//! Workspace traversal: find every `.rs` file, classify it into a
//! [`FileContext`], and run the rule engine over it.
//!
//! The walker is deterministic (directory entries are sorted before
//! recursion) so diagnostics come out in a stable order regardless of
//! filesystem enumeration order — the lint's own output obeys the
//! repo's reproducibility bar.

use crate::rules::{lint_source, FileContext, Finding};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Library crates whose `src/` trees carry the panic-free-surface
/// rules (`no-panic`, `index-literal`). `cli` is listed separately:
/// only its `lib.rs` is library surface, the binary half may panic at
/// the top level.
const LIBRARY_CRATES: &[&str] = &["congest", "core", "graphgen", "lint", "serve"];

/// File stems that are bit-identity-critical when under `src/`
/// (see [`crate::rules::Rule::Determinism`]). `soa` is the SoA
/// node-state arena: its raw-pointer views back both executors, so any
/// nondeterminism there breaks the seq≡par bit-identity contract.
/// `serve` is the probe service's job loop (verdicts must be a pure
/// function of the submitted job — wall-clock reads there are confined
/// to reasoned allows for latency histograms and idle-reclaim timers)
/// and `rpc` its verdict-carrying wire grammar, whose encode/decode
/// must be a pure function of the message bytes. `arena` and `node`
/// hold the round loop's inbox arena, its per-round digest (which also
/// feeds the distributed coordinator) and its send paths; `tester`,
/// `session`, `batch`, `prune` and `decide` are the tester's node
/// program and the layers that drive it. `graph` computes the step
/// order every in-process run steps its nodes in.
const DETERMINISM_STEMS: &[&str] = &[
    "engine", "arena", "node", "fault", "dist", "msg", "soa", "tester", "session", "batch",
    "prune", "decide", "serve", "rpc", "graph",
];

/// Classifies a workspace-relative path (with `/` separators) into the
/// rule context the engine needs. Pure so the mapping itself is
/// unit-testable.
pub fn classify(rel_path: &str) -> FileContext {
    let in_src = |prefix: &str| {
        rel_path.starts_with(prefix) && !rel_path.starts_with(&format!("{prefix}bin/"))
    };
    let library = LIBRARY_CRATES.iter().any(|c| in_src(&format!("crates/{c}/src/")))
        || rel_path == "crates/cli/src/lib.rs";

    let stem = Path::new(rel_path).file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let under_src = rel_path.contains("/src/");
    let in_net_dir = rel_path.contains("/src/net/");
    let determinism_critical = under_src
        && (in_net_dir || DETERMINISM_STEMS.contains(&stem))
        && !rel_path.contains("/bin/");

    FileContext { rel_path: rel_path.to_string(), library, determinism_critical }
}

/// Recursively collects every `.rs` file under `root`, skipping
/// `target/`, hidden directories, and the shims (external-crate
/// stand-ins are out of scope for repo invariants). Paths come back
/// sorted and workspace-relative.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name.starts_with('.') || name == "target" || name == "shims" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the whole workspace rooted at `root`. Returns all findings,
/// sorted by (file, line). IO errors on individual files become
/// synthetic findings rather than aborting the run, so one unreadable
/// file cannot mask real diagnostics elsewhere.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let files = collect_rs_files(root)?;
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let ctx = classify(&rel);
        match fs::read_to_string(&path) {
            Ok(src) => findings.extend(lint_source(&src, &ctx)),
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                rule: crate::rules::Rule::BadAllow,
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_classification() {
        assert!(classify("crates/congest/src/engine.rs").library);
        assert!(classify("crates/core/src/tester.rs").library);
        assert!(classify("crates/graphgen/src/lib.rs").library);
        assert!(classify("crates/lint/src/rules.rs").library);
        assert!(classify("crates/cli/src/lib.rs").library);
        assert!(classify("crates/serve/src/serve.rs").library);
        assert!(classify("crates/serve/src/rpc.rs").library);
        // Binaries, benches, tests, and non-library crates are not.
        assert!(!classify("crates/cli/src/bin/ckprobe.rs").library);
        assert!(!classify("crates/congest/src/bin/tool.rs").library);
        assert!(!classify("crates/bench/src/lib.rs").library);
        assert!(!classify("crates/congest/tests/faults.rs").library);
        assert!(!classify("tests/session_parity.rs").library);
        assert!(!classify("src/lib.rs").library);
    }

    #[test]
    fn determinism_classification() {
        assert!(classify("crates/congest/src/engine.rs").determinism_critical);
        assert!(classify("crates/congest/src/fault.rs").determinism_critical);
        assert!(classify("crates/congest/src/net/frame.rs").determinism_critical);
        assert!(classify("crates/congest/src/net/mod.rs").determinism_critical);
        assert!(classify("crates/core/src/dist.rs").determinism_critical);
        assert!(classify("crates/core/src/msg.rs").determinism_critical);
        assert!(classify("crates/core/src/soa.rs").determinism_critical);
        assert!(classify("crates/serve/src/serve.rs").determinism_critical);
        assert!(classify("crates/serve/src/rpc.rs").determinism_critical);
        assert!(classify("crates/congest/src/arena.rs").determinism_critical);
        assert!(classify("crates/congest/src/node.rs").determinism_critical);
        assert!(classify("crates/congest/src/session.rs").determinism_critical);
        assert!(classify("crates/core/src/tester.rs").determinism_critical);
        assert!(classify("crates/congest/src/graph.rs").determinism_critical);
        // The service's client helper and lib root are not verdict-
        // producing; only the job loop and the wire grammar are.
        assert!(!classify("crates/serve/src/client.rs").determinism_critical);
        assert!(!classify("crates/serve/src/lib.rs").determinism_critical);
        // Test files named like critical modules are out of scope: the
        // rule is about library behavior, not test harness clocks.
        assert!(!classify("crates/congest/tests/engine.rs").determinism_critical);
        assert!(!classify("tests/tester_golden.rs").determinism_critical);
    }
}

//! Workspace traversal: find every `.rs` file, classify it into a
//! [`FileContext`], and run the rule engine over it.
//!
//! Classification is by path alone. Library files — the `src/` trees
//! (minus `src/bin/`) of `congest`, `core`, `graphgen`, `lint` and
//! `serve`, plus `crates/cli/src/lib.rs` — carry the panic rules and the
//! `determinism` rule, except [`CLOCK_MODULE`], the one file the
//! `determinism` rule exempts. Tests, binaries, benches and the
//! non-library crates carry neither.
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
/// rules (`no-panic`, `index-literal`) and the `determinism` rule.
/// `cli` is listed separately: only its `lib.rs` is library surface,
/// the binary half may panic at the top level.
const LIBRARY_CRATES: &[&str] = &["congest", "core", "graphgen", "lint", "serve"];

/// The one library file that may read the wall clock, and so the
/// `determinism` rule's only exemption (see
/// [`crate::rules::Rule::Determinism`]).
pub const CLOCK_MODULE: &str = "crates/congest/src/clock.rs";

/// Classifies a workspace-relative path (with `/` separators) into the
/// rule context the engine needs. Pure so the mapping itself is
/// unit-testable.
pub fn classify(rel_path: &str) -> FileContext {
    let in_src = |prefix: &str| {
        rel_path.starts_with(prefix) && !rel_path.starts_with(&format!("{prefix}bin/"))
    };
    let library = LIBRARY_CRATES.iter().any(|c| in_src(&format!("crates/{c}/src/")))
        || rel_path == "crates/cli/src/lib.rs";
    let determinism_critical = library && rel_path != CLOCK_MODULE;

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
        // Every library file is critical, the verdict path's rank draws,
        // sequence rows, seed derivation and wire codec included.
        for path in [
            "crates/core/src/rank.rs",
            "crates/core/src/seq.rs",
            "crates/congest/src/rngs.rs",
            "crates/congest/src/message.rs",
            "crates/graphgen/src/random.rs",
            "crates/congest/src/engine.rs",
            "crates/congest/src/net/frame.rs",
            "crates/core/src/dist.rs",
            "crates/core/src/tester.rs",
            "crates/serve/src/serve.rs",
            "crates/serve/src/client.rs",
            "crates/lint/src/rules.rs",
            "crates/cli/src/lib.rs",
        ] {
            assert!(classify(path).determinism_critical, "{path}");
        }
        // The clock module is the rule's one exemption.
        assert!(!classify(CLOCK_MODULE).determinism_critical);
        // Tests, binaries, the bench crate and the baselines are out of
        // scope: the rule is about library behavior, not harness clocks.
        for path in [
            "crates/congest/tests/engine.rs",
            "crates/graphgen/tests/generator_golden.rs",
            "tests/tester_golden.rs",
            "crates/cli/src/main.rs",
            "crates/congest/src/bin/tool.rs",
            "crates/lint/src/bin/ck_lint.rs",
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/bench_engine.rs",
            "crates/baselines/src/c4.rs",
            "src/lib.rs",
        ] {
            assert!(!classify(path).determinism_critical, "{path}");
        }
    }
}

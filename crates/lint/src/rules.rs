//! The rule engine: repo-specific invariants checked on the lexed
//! token surface of every workspace source file.
//!
//! Each rule exists because one of the repository's *load-bearing
//! correctness properties* depends on the hygiene it enforces:
//!
//! | rule id | protects |
//! |---|---|
//! | `safety-comment` | auditability of the arena engine's `unsafe` aliasing contracts |
//! | `no-panic` | the panic-free library surface (`ckserve` north star) |
//! | `index-literal` | same — a literal index is a latent panic site |
//! | `determinism` | the sequential ≡ parallel ≡ distributed bit-identity oracle, and seed-only verdicts and instances |
//! | `bad-allow` | integrity of the suppression mechanism itself |
//!
//! Findings are suppressed **only** by an inline
//! `// ck-lint: allow(<rule>, reason = "...")` comment with a
//! non-empty reason (same line, the line directly above, or
//! `allow-file(...)` for a whole file). Directives are recognized only
//! in plain `//` comments whose text starts with `ck-lint:` — never in
//! doc comments, so documentation *about* the syntax stays inert. A suppression without a
//! reason is itself a finding — the point of the mechanism is that
//! every exception is *argued*, in place, in the diff. The
//! `determinism` rule takes no suppressions at all: its one exemption
//! is the clock module, by path ([`crate::walk::CLOCK_MODULE`]).

use crate::lexer::{find_token, has_token, is_ident_continue, mask_source, MaskedLine};

/// A lint rule. See the module table for what each protects; the
/// variant docs state the precise check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// **R1 — `safety-comment`.** Every `unsafe` occurrence (block,
    /// fn, `unsafe impl`) must be immediately preceded by a
    /// `// SAFETY:` comment (or carry a `/// # Safety` doc section),
    /// with only comment/attribute lines between. The arena engine's
    /// correctness rests on ~70 manually argued aliasing contracts —
    /// an unargued `unsafe` is an unreviewable one.
    SafetyComment,
    /// **R2 — `no-panic`.** No `unwrap` / `expect` / `panic!` /
    /// `todo!` / `unimplemented!` in library-crate code outside
    /// `#[cfg(test)]`. The service surface must degrade through typed
    /// errors (`ck_congest::engine::EngineError`-style), never
    /// abort: a panic inside a batch shard or a net worker kills the
    /// whole process, not one job.
    NoPanic,
    /// **R2b — `index-literal`.** No `expr[<integer literal>]`
    /// indexing in library-crate code outside `#[cfg(test)]`: a
    /// literal index is a bounds-check panic waiting for the one input
    /// shape nobody tested. Use pattern matching, `first`/`get`, or
    /// carry a reasoned allow arguing why the bound holds.
    IndexLiteral,
    /// **R3 — `determinism`.** Library code outside `#[cfg(test)]`
    /// must not use wall clocks (`Instant`, `SystemTime`),
    /// hash-randomized collections (`HashMap`, `HashSet`,
    /// `RandomState`), or process environment reads — any of these can
    /// silently make a verdict, a rank draw or a generated instance
    /// depend on something besides the graph, the identities and the
    /// seeds, and break the sequential ≡ parallel ≡ distributed oracle
    /// that every equivalence proptest and the whole bench gate rests
    /// on. The one exemption is the clock module,
    /// [`crate::walk::CLOCK_MODULE`], through which library code reads
    /// the time. An allow naming this rule is a [`Rule::BadAllow`]
    /// finding, so no other site can opt out.
    Determinism,
    /// **Meta — `bad-allow`.** A malformed or refused `ck-lint:`
    /// suppression comment: unknown rule name, missing or empty
    /// `reason`, or a `determinism` allow. Never itself suppressible.
    BadAllow,
}

impl Rule {
    /// The stable kebab-case id used in diagnostics and `allow(...)`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::SafetyComment => "safety-comment",
            Rule::NoPanic => "no-panic",
            Rule::IndexLiteral => "index-literal",
            Rule::Determinism => "determinism",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule id as written inside `allow(...)`.
    pub fn from_id(id: &str) -> Option<Rule> {
        Some(match id {
            "safety-comment" => Rule::SafetyComment,
            "no-panic" => Rule::NoPanic,
            "index-literal" => Rule::IndexLiteral,
            "determinism" => Rule::Determinism,
            _ => return None,
        })
    }
}

/// One diagnostic: `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (as given in [`FileContext::rel_path`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.id(), self.message)
    }
}

/// Where a file sits in the workspace — decides which rules apply.
/// Derived from the path by [`crate::walk`]; built by hand in rule
/// unit tests.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators (diagnostics).
    pub rel_path: String,
    /// True for library-crate source (`no-panic` / `index-literal`
    /// apply): `crates/{congest,core,graphgen,lint,serve}/src/**`
    /// (minus `src/bin/**`) and `crates/cli/src/lib.rs`.
    pub library: bool,
    /// True where `determinism` applies: every library file except the
    /// clock module, [`crate::walk::CLOCK_MODULE`].
    pub determinism_critical: bool,
}

/// Identifiers banned where `determinism` applies, with the reason
/// given in the diagnostic.
const DETERMINISM_BANNED: &[(&str, &str)] = &[
    ("Instant", "wall-clock reads vary across runs and executors"),
    ("SystemTime", "wall-clock reads vary across runs and executors"),
    ("RandomState", "per-process hash seeds randomize iteration order"),
    ("HashMap", "default hasher randomizes iteration order; use BTreeMap or a seeded hasher"),
    ("HashSet", "default hasher randomizes iteration order; use BTreeSet or a seeded hasher"),
];

/// Panic-site tokens banned on library paths. `expect`/`unwrap` are
/// method calls (require a preceding `.`), the rest are macros.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];

#[derive(Debug, Clone, PartialEq, Eq)]
enum AllowScope {
    /// Covers `line` itself and the next line carrying code.
    Local { line: usize },
    /// Covers the whole file.
    File,
}

#[derive(Debug, Clone)]
struct Allow {
    rule: Rule,
    scope: AllowScope,
}

/// Parsed result of scanning one comment for `ck-lint:` directives.
#[derive(Debug, Default)]
struct DirectiveScan {
    allows: Vec<Allow>,
    errors: Vec<String>,
}

/// Parses every `ck-lint:` directive inside `comment`. Grammar:
///
/// ```text
/// ck-lint: allow(<rule>, reason = "<non-empty>")
/// ck-lint: allow-file(<rule>, reason = "<non-empty>")
/// ```
fn scan_directives(comment: &str, line: usize) -> DirectiveScan {
    let mut out = DirectiveScan::default();
    let mut rest = comment;
    while let Some(pos) = rest.find("ck-lint:") {
        rest = &rest[pos + "ck-lint:".len()..];
        let body = rest.trim_start();
        let (file_scope, after_kw) = if let Some(a) = body.strip_prefix("allow-file") {
            (true, a)
        } else if let Some(a) = body.strip_prefix("allow") {
            (false, a)
        } else {
            out.errors.push("expected `allow(...)` or `allow-file(...)` after `ck-lint:`".into());
            continue;
        };
        let Some(args) = after_kw.trim_start().strip_prefix('(') else {
            out.errors.push("expected `(` after `allow`".into());
            continue;
        };
        let Some(close) = args.find(')') else {
            out.errors.push("unclosed `allow(...)` directive".into());
            continue;
        };
        let inner = &args[..close];
        let Some((rule_part, reason_part)) = inner.split_once(',') else {
            out.errors.push(format!("`allow({inner})` is missing its `reason = \"...\"` argument"));
            continue;
        };
        let rule_id = rule_part.trim();
        let Some(rule) = Rule::from_id(rule_id) else {
            out.errors.push(format!("unknown rule `{rule_id}` in allow directive"));
            continue;
        };
        if rule == Rule::Determinism {
            out.errors.push(format!(
                "`determinism` takes no allows: read the wall clock through `{}`, and use \
                 ordered collections",
                crate::walk::CLOCK_MODULE
            ));
            continue;
        }
        let reason = reason_part.trim();
        let Some(quoted) = reason
            .strip_prefix("reason")
            .map(str::trim_start)
            .and_then(|r| r.strip_prefix('='))
            .map(str::trim_start)
        else {
            out.errors.push(format!("`allow({rule_id}, ...)` needs `reason = \"...\"`"));
            continue;
        };
        let text = quoted.trim().trim_matches('"').trim();
        if text.is_empty() {
            out.errors.push(format!("`allow({rule_id})` has an empty reason"));
            continue;
        }
        let scope = if file_scope { AllowScope::File } else { AllowScope::Local { line } };
        out.allows.push(Allow { rule, scope });
    }
    out
}

/// Per-line facts the rules consume, precomputed in one pass.
struct LineFacts {
    /// Lexed code/comment channels.
    lines: Vec<MaskedLine>,
    /// Line is inside a `#[cfg(test)]` item (the attribute's own line
    /// included).
    in_test: Vec<bool>,
    /// Line is (part of) an outer/inner attribute.
    is_attr: Vec<bool>,
}

fn compute_facts(lines: Vec<MaskedLine>) -> LineFacts {
    let n = lines.len();
    let mut in_test = vec![false; n];
    let mut is_attr = vec![false; n];

    // Attribute spans: `#[...]` / `#![...]` may run over several lines;
    // `#` appears in code only as an attribute sigil (raw-string
    // fences were masked by the lexer).
    let mut attr_depth = 0u32;
    for (idx, l) in lines.iter().enumerate() {
        let code = l.code.as_bytes();
        let mut i = 0usize;
        if attr_depth > 0 {
            is_attr[idx] = true;
        }
        while i < code.len() {
            match code[i] {
                b'#' if attr_depth == 0 => {
                    let mut j = i + 1;
                    if j < code.len() && code[j] == b'!' {
                        j += 1;
                    }
                    if j < code.len() && code[j] == b'[' {
                        attr_depth = 1;
                        is_attr[idx] = true;
                        i = j + 1;
                        continue;
                    }
                }
                b'[' if attr_depth > 0 => attr_depth += 1,
                b']' if attr_depth > 0 => attr_depth -= 1,
                _ => {}
            }
            i += 1;
        }
        if attr_depth > 0 {
            is_attr[idx] = true;
        }
    }

    // `#[cfg(test)]` regions: after the attribute, the next braced
    // item (or the item ending at `;` first) is test-only code.
    // Tracked with a brace stack so nested modules close correctly.
    let mut pending_test = false;
    let mut brace_stack: Vec<bool> = Vec::new(); // true = opened a test region
    let mut test_depth = 0u32;
    for (idx, l) in lines.iter().enumerate() {
        if l.code.contains("cfg(test)") {
            pending_test = true;
        }
        if pending_test || test_depth > 0 {
            in_test[idx] = true;
        }
        for b in l.code.bytes() {
            match b {
                b'{' => {
                    let opens_test = pending_test;
                    pending_test = false;
                    brace_stack.push(opens_test);
                    if opens_test {
                        test_depth += 1;
                    }
                }
                b'}' => {
                    if let Some(was_test) = brace_stack.pop() {
                        if was_test {
                            test_depth = test_depth.saturating_sub(1);
                        }
                    }
                }
                b';' if pending_test => {
                    // `#[cfg(test)] use …;` — the item ends without a
                    // body; the region was just that item.
                    pending_test = false;
                }
                _ => {}
            }
        }
        if test_depth > 0 {
            in_test[idx] = true;
        }
    }

    LineFacts { lines, in_test, is_attr }
}

/// Lints one file's source text under `ctx`. Pure function of its
/// inputs — the unit-testable core the binary and the workspace walker
/// both call.
pub fn lint_source(src: &str, ctx: &FileContext) -> Vec<Finding> {
    let facts = compute_facts(mask_source(src));
    let n = facts.lines.len();

    // Pass 1: suppression directives (and their own malformations).
    let mut allows: Vec<Allow> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for (idx, l) in facts.lines.iter().enumerate() {
        // A directive must be a plain `//` comment whose text starts
        // with `ck-lint:` (`foo(); // ck-lint: allow(...)` counts).
        // Doc comments (`///`, `//!`) are documentation — prose there
        // describing the syntax must stay inert — and block comments
        // are not supported as directive carriers.
        let Some(body) = l.comment.trim_start().strip_prefix("//") else { continue };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        if !body.trim_start().starts_with("ck-lint:") {
            continue;
        }
        let scan = scan_directives(body, idx);
        for msg in scan.errors {
            findings.push(Finding {
                file: ctx.rel_path.clone(),
                line: idx + 1,
                rule: Rule::BadAllow,
                message: msg,
            });
        }
        allows.extend(scan.allows);
    }

    // Resolve local allow scopes to the concrete set of covered lines:
    // the directive's own line plus the next line carrying code.
    let mut suppressed: Vec<(usize, Rule)> = Vec::new();
    let mut file_allows: Vec<Rule> = Vec::new();
    for a in &allows {
        match a.scope {
            AllowScope::File => file_allows.push(a.rule),
            AllowScope::Local { line } => {
                suppressed.push((line, a.rule));
                let mut j = line + 1;
                while j < n && facts.lines[j].is_code_blank() {
                    j += 1;
                }
                if j < n {
                    suppressed.push((j, a.rule));
                }
            }
        }
    }
    let is_allowed = |line_idx: usize, rule: Rule| -> bool {
        file_allows.contains(&rule) || suppressed.iter().any(|&(l, r)| l == line_idx && r == rule)
    };

    // Pass 2: the rules.
    let mut emit = |line_idx: usize, rule: Rule, message: String| {
        if !is_allowed(line_idx, rule) {
            findings.push(Finding {
                file: ctx.rel_path.clone(),
                line: line_idx + 1,
                rule,
                message,
            });
        }
    };

    for idx in 0..n {
        let line = &facts.lines[idx];
        let code = line.code.as_str();
        if line.is_code_blank() {
            continue;
        }

        // R1: every `unsafe` needs an adjacent safety argument. Applies
        // everywhere, test code included — a test's aliasing contract
        // is as breakable as production's.
        if has_token(code, "unsafe") && !safety_covered(&facts, idx) {
            emit(
                idx,
                Rule::SafetyComment,
                "`unsafe` without an immediately preceding `// SAFETY:` comment \
                 (or `/// # Safety` doc section)"
                    .into(),
            );
        }

        let lib_code = ctx.library && !facts.in_test[idx];

        // R2: panic-free library surface.
        if lib_code {
            for &m in PANIC_METHODS {
                if let Some(pos) = find_token(code, m) {
                    let dotted = code[..pos].trim_end().ends_with('.');
                    let called = code[pos + m.len()..].trim_start().starts_with('(');
                    if dotted && called {
                        emit(
                            idx,
                            Rule::NoPanic,
                            format!(
                                "`.{m}()` on a library path — return a typed error instead \
                                 (or argue unreachability in an allow)"
                            ),
                        );
                    }
                }
            }
            for &m in PANIC_MACROS {
                if let Some(pos) = find_token(code, m) {
                    if code[pos + m.len()..].starts_with('!') {
                        emit(
                            idx,
                            Rule::NoPanic,
                            format!("`{m}!` on a library path — return a typed error instead"),
                        );
                    }
                }
            }
            if let Some(col) = literal_index(code) {
                emit(
                    idx,
                    Rule::IndexLiteral,
                    format!(
                        "literal index `{}` on a library path — a latent bounds panic; \
                         destructure or `get`, or argue the bound in an allow",
                        col
                    ),
                );
            }
        }

        // R3: determinism hygiene in every library file but the clock.
        if ctx.determinism_critical && !facts.in_test[idx] {
            for &(ident, why) in DETERMINISM_BANNED {
                if has_token(code, ident) {
                    emit(idx, Rule::Determinism, format!("`{ident}` in library code: {why}"));
                }
            }
            if code.contains("env::var") || code.contains("env::vars_os") {
                emit(idx, Rule::Determinism, "process-environment read in library code".into());
            }
        }
    }

    findings
}

/// True when the `unsafe` on `lines[idx]` carries a safety argument:
/// a `SAFETY:` marker in a same-line comment, or in the contiguous
/// comment/attribute block directly above (doc `# Safety` sections
/// count — that is the public-`unsafe fn` convention).
fn safety_covered(facts: &LineFacts, idx: usize) -> bool {
    let mentions_safety =
        |c: &str| c.contains("SAFETY:") || c.contains("Safety:") || c.contains("# Safety");
    if mentions_safety(&facts.lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &facts.lines[j];
        let comment_only = l.is_code_blank() && !l.comment.is_empty();
        if comment_only || facts.is_attr[j] {
            if mentions_safety(&l.comment) {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// Detects `expr[<integer literal>]` indexing: an identifier, `)`, or
/// `]` immediately followed by `[`, an integer literal, `]`. Returns
/// the matched index text. Array *types* (`[u64; 4]`), repeat
/// expressions (`[0u8; 5]`), and range indexing (`buf[1..5]`) do not
/// match.
fn literal_index(code: &str) -> Option<String> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(is_ident_continue(prev) || prev == ')' || prev == ']') {
            continue;
        }
        let inner = &code[i + 1..];
        let digits: usize = inner.bytes().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            continue;
        }
        let after = &inner[digits..];
        if after.starts_with(']') {
            return Some(inner[..digits].to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx() -> FileContext {
        FileContext {
            rel_path: "crates/congest/src/example.rs".into(),
            library: true,
            determinism_critical: false,
        }
    }

    fn det_ctx() -> FileContext {
        FileContext {
            rel_path: "crates/congest/src/engine.rs".into(),
            library: true,
            determinism_critical: true,
        }
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // ---- R1: safety-comment ----

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::SafetyComment]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_directly_above_covers() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn safety_comment_same_line_covers() {
        let src =
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: p valid by contract.\n}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn multi_line_safety_block_covers() {
        let src = "// SAFETY: long argument\n// continuing on a second line.\nunsafe impl Send for X {}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn doc_safety_section_covers_unsafe_fn() {
        let src = "/// Does things.\n///\n/// # Safety\n/// `p` must be valid.\n#[inline]\npub unsafe fn f(p: *const u8) -> u8 {\n    *p\n}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn attribute_between_comment_and_unsafe_is_skipped() {
        let src = "// SAFETY: argued here.\n#[allow(clippy::something)]\nunsafe { work() }\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn multiline_attribute_is_skipped_upward() {
        let src = "// SAFETY: argued above the attribute.\n#[deprecated(\n    note = \"x\"\n)]\npub unsafe fn g() {}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn code_line_between_comment_and_unsafe_breaks_coverage() {
        let src = "// SAFETY: stale, belongs to nothing.\nlet x = 1;\nunsafe { work() }\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::SafetyComment]);
    }

    #[test]
    fn unsafe_in_string_or_comment_is_not_flagged() {
        let src = "let s = \"unsafe\"; // unsafe in prose\n/* unsafe */ let t = 1;\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn unsafe_in_test_code_still_needs_safety() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        unsafe { poke() }\n    }\n}\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::SafetyComment]);
    }

    // ---- R2: no-panic / index-literal ----

    #[test]
    fn unwrap_on_library_path_is_flagged() {
        let f = lint_source("pub fn f() { x().unwrap(); }\n", &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::NoPanic]);
    }

    #[test]
    fn expect_and_macros_are_flagged() {
        let src = "pub fn f() {\n    y().expect(\"nope\");\n    panic!(\"boom\");\n    todo!();\n    unimplemented!();\n}\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|x| x.rule == Rule::NoPanic));
    }

    #[test]
    fn unwrap_lookalikes_are_not_flagged() {
        let src = "pub fn f() {\n    x().unwrap_or(0);\n    x().unwrap_or_else(|| 1);\n    x().unwrap_or_default();\n    let expect = 3; let _ = expect;\n}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_is_exempt() {
        let src =
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); panic!(); }\n}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn unwrap_outside_library_context_is_exempt() {
        let ctx = FileContext { rel_path: "crates/bench/src/lib.rs".into(), ..Default::default() };
        assert!(lint_source("pub fn f() { x().unwrap(); }\n", &ctx).is_empty());
    }

    #[test]
    fn doc_example_unwrap_is_exempt() {
        let src = "/// ```\n/// session.run(f).unwrap();\n/// ```\npub fn f() {}\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn literal_index_is_flagged_but_ranges_and_types_are_not() {
        let flagged = lint_source("pub fn f(b: &[u8]) -> u8 { b[0] }\n", &lib_ctx());
        assert_eq!(rules_of(&flagged), vec![Rule::IndexLiteral]);
        let ok = "pub fn f(b: &[u8]) -> (&[u8], [u8; 4], Vec<u8>, u8, u8) {\n    let arr: [u8; 4] = [0u8; 4];\n    let i = 1;\n    (&b[1..3], arr, vec![0u8; 9], b[i], *b.first().unwrap_or(&0))\n}\n";
        assert!(lint_source(ok, &lib_ctx()).is_empty());
    }

    // ---- R3: determinism ----

    #[test]
    fn wall_clock_and_hash_collections_flagged_in_critical_modules() {
        let src = "use std::time::Instant;\npub fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let _ = m;\n}\n";
        let f = lint_source(src, &det_ctx());
        // Instant (use), HashMap twice (type + ctor line counts once per line).
        assert!(f.iter().all(|x| x.rule == Rule::Determinism));
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn determinism_rule_ignores_noncritical_files_and_tests() {
        let src = "pub fn f() { let _ = std::time::Instant::now(); }\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
        assert!(lint_source(test_src, &det_ctx()).is_empty());
    }

    #[test]
    fn instant_in_the_rank_draws_is_flagged() {
        let src = "pub fn draw() -> u64 {\n    std::time::Instant::now().elapsed().as_nanos() as u64\n}\n";
        let f = lint_source(src, &crate::walk::classify("crates/core/src/rank.rs"));
        assert_eq!(rules_of(&f), vec![Rule::Determinism]);
        assert_eq!(f[0].line, 2);
        let clock = crate::walk::classify(crate::walk::CLOCK_MODULE);
        assert!(lint_source(src, &clock).is_empty());
    }

    #[test]
    fn determinism_allows_are_refused() {
        // Neither scope suppresses; each directive is itself a finding.
        let id = Rule::Determinism.id();
        for scope in ["allow", "allow-file"] {
            let src = format!(
                "// ck-lint: {scope}({id}, reason = \"only a timing\")\n\
                 pub fn f() {{ let _ = Instant::now(); }}\n"
            );
            let f = lint_source(&src, &det_ctx());
            assert_eq!(rules_of(&f), vec![Rule::BadAllow, Rule::Determinism], "{scope}");
        }
    }

    #[test]
    fn btree_collections_pass_the_determinism_rule() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\npub fn f(m: &BTreeMap<u32, u32>, s: &BTreeSet<u32>) -> usize { m.len() + s.len() }\n";
        assert!(lint_source(src, &det_ctx()).is_empty());
    }

    // ---- suppression ----

    #[test]
    fn same_line_allow_suppresses() {
        let src = "pub fn f() { x().unwrap() } // ck-lint: allow(no-panic, reason = \"poisoning is unrecoverable here\")\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn preceding_line_allow_suppresses() {
        let src = "// ck-lint: allow(no-panic, reason = \"len checked two lines up\")\npub fn f() { x().unwrap() }\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn allow_reaches_over_blank_and_comment_lines() {
        let src = "// ck-lint: allow(no-panic, reason = \"argued\")\n\n// interleaved prose\npub fn f() { x().unwrap() }\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn allow_covers_only_its_rule_and_line() {
        let src = "// ck-lint: allow(no-panic, reason = \"argued\")\npub fn f() { x().unwrap() }\npub fn g() { y().unwrap() }\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_of_wrong_rule_does_not_suppress() {
        let src = "// ck-lint: allow(index-literal, reason = \"misdirected\")\npub fn f() { x().unwrap() }\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::NoPanic]);
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// ck-lint: allow-file(no-panic, reason = \"generated table, bounds static\")\npub fn f() { x().unwrap() }\npub fn g() { y().unwrap() }\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_finding_and_does_not_suppress() {
        let src = "// ck-lint: allow(no-panic)\npub fn f() { x().unwrap() }\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::BadAllow, Rule::NoPanic]);
    }

    #[test]
    fn allow_with_empty_reason_is_a_finding() {
        let src = "// ck-lint: allow(no-panic, reason = \"\")\npub fn f() { x().unwrap() }\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::BadAllow, Rule::NoPanic]);
    }

    #[test]
    fn allow_with_unknown_rule_is_a_finding() {
        let src = "// ck-lint: allow(no-such-rule, reason = \"typo\")\npub fn f() {}\n";
        let f = lint_source(src, &lib_ctx());
        assert_eq!(rules_of(&f), vec![Rule::BadAllow]);
    }

    #[test]
    fn directive_text_in_a_string_is_inert() {
        // The fixture strings in ck-lint's own tests must not
        // self-trigger: directives only count inside comments.
        let src = "let s = \"// ck-lint: allow(no-panic)\";\n";
        assert!(lint_source(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn findings_format_as_file_line_rule() {
        let f = lint_source("pub fn f() { x().unwrap(); }\n", &lib_ctx());
        let s = f[0].to_string();
        assert!(s.starts_with("crates/congest/src/example.rs:1: [no-panic]"), "{s}");
    }
}

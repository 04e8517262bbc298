//! `ck_lint` — the workspace's self-hosted correctness tooling.
//!
//! Two halves:
//!
//! * **Static analysis** ([`rules`], [`walk`], [`lexer`]): a
//!   dependency-free lint pass over every workspace `.rs` file,
//!   enforcing the repo-specific invariants the compiler cannot —
//!   `// SAFETY:` coverage of `unsafe`, a panic-free library surface,
//!   and determinism hygiene in every library file but the clock
//!   module (`ck_congest::clock`). Run
//!   it as
//!   `cargo run -p ck-lint` (nonzero exit on findings; CI's `lint`
//!   job does exactly this).
//! * **Dynamic analysis** (`alloc_gate`, behind the `alloc-gate`
//!   feature): a counting global allocator so regression tests can
//!   assert the warm engine paths really are zero-allocation.
//!
//! The lint is *self-hosted*: this crate is classified as library
//! surface and must itself pass every rule it enforces.

pub mod lexer;
pub mod rules;
pub mod walk;

#[cfg(feature = "alloc-gate")]
pub mod alloc_gate;

pub use rules::{lint_source, FileContext, Finding, Rule};
pub use walk::{classify, lint_workspace};

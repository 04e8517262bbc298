//! # ck-bench — experiment harness
//!
//! One function per experiment (E1–E15), each measuring one claim on
//! concrete instances. Each returns a rendered
//! markdown table plus a machine-checkable pass flag; the `experiments`
//! binary prints them. The `bench_engine` binary times the engine and
//! the tester and writes the gated bench records; the frozen pre-arena
//! engine in [`legacy_engine`] is the baseline of its
//! arena-over-legacy ratio.

pub mod experiments;
pub mod legacy_engine;
pub mod table;

pub use experiments::{all_experiments, run_experiment, ExperimentResult};
pub use legacy_engine::run_legacy;
pub use table::Table;

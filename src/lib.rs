//! # ck-repro — reproduction of *Distributed Detection of Cycles*
//! (Fraigniaud & Olivetti, SPAA 2017)
//!
//! Umbrella crate re-exporting the workspace members; the examples and
//! cross-crate integration tests live here. See `README.md` for the
//! architecture overview and the experiment tables (E1–E15) that check
//! each of the paper's claims.

pub use ck_baselines as baselines;
pub use ck_congest as congest;
pub use ck_core as core;
pub use ck_graphgen as graphgen;

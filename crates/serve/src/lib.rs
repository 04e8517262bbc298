//! `ckserve`: a long-running multi-tenant probe service over the warm
//! `TesterSession` substrate.
//!
//! The repo's engine stack already owns everything a service needs —
//! warm sessions with zero-allocation reruns, the length-prefixed
//! frame transport of the distributed executor, typed `ConfigError` /
//! `FrameError` failure paths — but until this crate nothing put
//! *sustained, heterogeneous, untrusted* traffic on them. `ck_serve`
//! is that front door:
//!
//! - [`rpc`] — the `ServeMsg` RPC grammar (Submit / Result / Stats /
//!   Shutdown) riding [`ck_congest::net::frame::FrameKind::Serve`]
//!   frames. Bodies are plain bytes, like the distributed executor's
//!   `Spec` / `Done` / `Verdicts` bodies. Every decode is total: any
//!   byte prefix is a typed error, never a panic, never an over-read.
//! - [`serve`] — the service itself: a `std::net` accept loop plus a
//!   worker-thread pool holding one warm
//!   [`ck_core::session::TesterSession`] each, recycling arenas across
//!   jobs exactly as `test_batch` does. Bad jobs fail *that client*
//!   with the job id echoed back; admission control sheds load with a
//!   typed [`rpc::ServeError::Overloaded`] backpressure frame; idle
//!   sessions are reclaimed; shutdown drains gracefully.
//! - [`client`] — a small blocking client used by `ckprobe submit`,
//!   the soak tests, and the bench harness.

pub mod client;
pub mod rpc;
pub mod serve;

pub use client::{ClientError, ServeClient};
pub use rpc::{
    JobRequest, JobResult, JobVerdict, LatencySummary, ServeError, ServeMsg, StatsSnapshot,
};
pub use serve::{BoundServer, LatencyHistogram, ServeOptions, ServerHandle};

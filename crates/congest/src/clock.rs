//! The one wall clock. Library code reads the time only through this
//! module:
//!
//! - [`Deadline`] is the transport's budget for a blocking read. Its
//!   expiry becomes a typed [`crate::net::frame::FrameError::TimedOut`],
//!   a fault the caller handles like any other link failure.
//! - [`Stopwatch`] measures what is reported and never decided on: a
//!   worker's heartbeat freshness, a service job's wall time and
//!   submit-to-result latency, the distributed fallback's recovery time.
//!
//! A verdict, a rank draw or a generated instance must be a function of
//! the graph, the identities and the seeds alone. ck-lint's
//! `determinism` rule enforces that on every library file except this
//! one, and refuses allow comments for it, so a wall-clock read outside
//! this module cannot be waved through at one site.

use std::time::{Duration, Instant};

/// A wall-clock budget; reads retry short socket timeouts until it
/// expires, so a slow link degrades to
/// [`crate::net::frame::FrameError::TimedOut`], never a hang.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    /// `None` never expires.
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        Deadline::after(Duration::from_millis(ms))
    }

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline { at: Some(Instant::now() + d) }
    }

    /// A deadline that never expires: the read blocks until the frame
    /// arrives or the stream ends.
    pub fn never() -> Self {
        Deadline { at: None }
    }

    /// True once the budget is spent.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left: zero when expired, `Duration::MAX` for
    /// [`Deadline::never`].
    pub fn remaining(&self) -> Duration {
        self.at.map_or(Duration::MAX, |at| at.saturating_duration_since(Instant::now()))
    }
}

/// Wall time since a start point, for measurements that are reported
/// and never decide anything.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// A stopwatch that starts now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

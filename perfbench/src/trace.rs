//! In-memory span recorder for the traced run, plus the sample
//! statistics every metric is computed with.
//!
//! A span is one call the benchmark makes into a layer's public API:
//! name, start, end, parent span and job id. Spans are pushed to a
//! `Vec` while the workload runs and written out once at the end. With
//! tracing off, [`Trace::open`] and [`Trace::close`] do nothing, so the
//! untraced phase pays for no clock reads beyond its own latency timer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span inside its [`Trace`].
pub type SpanId = u32;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub job: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer. Threads that record concurrently each take a
/// [`Trace::fork`] sharing the epoch and hand it back through
/// [`Trace::merge`].
#[derive(Clone, Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace { on, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty buffer with the same epoch and switch, for another thread.
    pub fn fork(&self) -> Trace {
        Trace { on: self.on, epoch: self.epoch, spans: Vec::new() }
    }

    /// Appends a forked buffer's spans, re-basing their parent ids.
    pub fn merge(&mut self, other: Trace) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, job });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Records a child whose duration another party measured (the
    /// service-side `wall_us` of a serve job). It is placed at the end
    /// of its parent, which must already be closed.
    pub fn child(&mut self, name: &'static str, parent: Option<SpanId>, dur_ns: u64) {
        if let Some(p) = parent {
            let (end_ns, job) = (self.spans[p as usize].end_ns, self.spans[p as usize].job);
            let start_ns = end_ns.saturating_sub(dur_ns);
            self.spans.push(Span { name, start_ns, end_ns, parent, job });
        }
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Self times (duration minus the union of child intervals) of
    /// every span called `name`, in milliseconds.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut kids = children.remove(&(i as SpanId)).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            out.push(s.dur_ns().saturating_sub(covered) as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.job
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Nearest-rank quantile of raw samples: the smallest sample with at
/// least `q` of the mass at or below it. `NaN` on no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_raw_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 5.0);
        assert_eq!(nearest_rank(&xs, 0.9), 9.0);
        assert_eq!(nearest_rank(&xs, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(true);
        t.spans.push(Span { name: "p", start_ns: 0, end_ns: 100, parent: None, job: 0 });
        t.child("c", Some(0), 30);
        assert_eq!(t.self_times_ms("p"), vec![70.0 / 1e6]);
        assert_eq!(t.durations_ms("c"), vec![30.0 / 1e6]);
    }
}

//! Run-level measurement: per-round message/bit counts, link loads, and
//! CONGEST-normalized round costs.
//!
//! These are the quantities the paper's Lemma 3 bounds (sequences per
//! message, hence bits per link per round) and that the experiment harness
//! reports for every table.

/// Statistics of a single synchronous round.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundStats {
    /// Round number (0-based).
    pub round: u32,
    /// Number of nodes still running at the start of the round.
    pub active_nodes: usize,
    /// Messages sent this round.
    pub messages: u64,
    /// Total bits sent this round.
    pub bits: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Largest per-directed-link load this round, in bits. A link
    /// carries at most one message per round, so this is the largest
    /// message sent (equal to `max_message_bits`).
    pub max_link_bits: u64,
    /// Largest number of messages pushed through a single directed
    /// link: 1 when the round sent any message, 0 otherwise.
    pub max_link_messages: u64,
}

/// Aggregated report of a finished run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Rounds actually executed.
    pub rounds: u32,
    /// True if the run ended because every node halted (as opposed to
    /// hitting the round cap).
    pub all_halted: bool,
    /// Executor that produced the run (`"sequential"` / `"parallel"`),
    /// recorded so measurement records can label entries honestly.
    /// Never part of any cross-executor equality check — the *contents*
    /// of the report are executor-independent by the determinism
    /// contract.
    pub executor: &'static str,
    /// Worker threads the executor could use (1 for sequential).
    pub threads: usize,
    /// Per-round statistics: one row per executed round, in round
    /// order, so `per_round.len() == rounds as usize`.
    pub per_round: Vec<RoundStats>,
    /// What the fault plan did to this run (all-zero for clean runs).
    /// Executor-independent like every other report field: fault
    /// decisions are pure functions of message coordinates.
    pub faults: FaultReport,
    /// Transport-layer record of a distributed run (`None` for the
    /// in-process executors). Unlike every other field this one is
    /// executor-*dependent* by design — it describes the transport,
    /// not the computation — and is excluded from cross-executor
    /// equality checks.
    pub net: Option<NetReport>,
}

/// What the distributed transport did during a run: traffic totals,
/// recovery events, and whether the run had to degrade to the
/// in-process sequential oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetReport {
    /// Worker (partition) count the run was configured for.
    pub workers: u32,
    /// Cross-partition message frames the coordinator routed.
    pub frames_routed: u64,
    /// Payload bytes of those frames (length-prefixed codec bytes).
    pub frame_bytes: u64,
    /// Round barriers completed across all workers.
    pub barriers: u64,
    /// Heartbeat frames consumed while waiting on workers.
    pub heartbeats: u64,
    /// True when the run spawned its worker fleet (a first run, or a
    /// respawn after a failure or an options change); false when it
    /// reused the fleet a previous run left connected.
    pub fleet_spawned: bool,
    /// Why the run fell back to the in-process sequential executor
    /// (`None` when the distributed run completed on its own).
    pub fallback: Option<String>,
    /// Wall-clock milliseconds from detecting the failure to the
    /// completed fallback run — the recovery latency the bench gates.
    pub recovery_ms: Option<u64>,
}

impl NetReport {
    /// The record of a run that never left the coordinator process:
    /// distribution was requested but the job cannot ship, so the
    /// sequential oracle ran in place.
    pub fn degraded(workers: u32, reason: &str) -> Self {
        NetReport { workers, fallback: Some(reason.to_string()), ..NetReport::default() }
    }

    /// True when the distributed run completed without degradation.
    pub fn completed_distributed(&self) -> bool {
        self.fallback.is_none()
    }
}

/// Observability record of a run's injected faults: how many messages
/// each fault kind claimed, what corruption did, and which nodes had
/// crash-stopped by the end of the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Messages lost to explicit drop rules.
    pub dropped_explicit: u64,
    /// Messages lost to the i.i.d. Bernoulli coin.
    pub dropped_random: u64,
    /// Messages lost because their sender had crash-stopped.
    pub dropped_crash: u64,
    /// Messages lost on permanently cut links.
    pub dropped_cut: u64,
    /// Messages lost to Gilbert–Elliott burst loss.
    pub dropped_burst: u64,
    /// Frames tampered in flight that still decoded and were delivered
    /// as garbage.
    pub corrupted_delivered: u64,
    /// Frames tampered in flight that no longer decoded — rejected by
    /// the codec and counted as lost.
    pub corrupted_rejected: u64,
    /// Nodes that crash-stopped before the run ended (sorted indices).
    pub crashed_nodes: Vec<u32>,
}

impl FaultReport {
    /// Zeroes every counter and clears `crashed_nodes` keeping its
    /// capacity — a reset report is observationally
    /// [`FaultReport::default`] without the allocation.
    pub fn reset(&mut self) {
        self.dropped_explicit = 0;
        self.dropped_random = 0;
        self.dropped_crash = 0;
        self.dropped_cut = 0;
        self.dropped_burst = 0;
        self.corrupted_delivered = 0;
        self.corrupted_rejected = 0;
        self.crashed_nodes.clear();
    }

    /// Total messages that never reached their receiver: every drop
    /// kind plus corrupted frames the codec rejected.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_explicit
            + self.dropped_random
            + self.dropped_crash
            + self.dropped_cut
            + self.dropped_burst
            + self.corrupted_rejected
    }
}

impl RunReport {
    /// Clears the report for reuse, keeping the `per_round` and
    /// `crashed_nodes` allocations — the warm half of the engine's
    /// zero-steady-state-allocation rerun contract (see
    /// [`crate::engine::RunOutcome::reset`]).
    pub fn reset(&mut self) {
        self.rounds = 0;
        self.all_halted = false;
        self.executor = "";
        self.threads = 0;
        self.per_round.clear();
        self.faults.reset();
        self.net = None;
    }

    /// Total messages across all rounds.
    pub fn total_messages(&self) -> u64 {
        self.per_round.iter().map(|r| r.messages).sum()
    }

    /// Total bits across all rounds.
    pub fn total_bits(&self) -> u64 {
        self.per_round.iter().map(|r| r.bits).sum()
    }

    /// Maximum single-message size over the run, in bits.
    pub fn max_message_bits(&self) -> u64 {
        self.per_round.iter().map(|r| r.max_message_bits).max().unwrap_or(0)
    }

    /// Maximum directed-link load over the run, in bits.
    pub fn max_link_bits(&self) -> u64 {
        self.per_round.iter().map(|r| r.max_link_bits).max().unwrap_or(0)
    }

    /// CONGEST-normalized round count for bandwidth `b` bits per edge per
    /// round: each wall round costs `⌈worst link load / b⌉` model rounds
    /// (at least 1 when anything was sent, and exactly 1 for silent
    /// rounds, which still consume a synchronous step).
    pub fn normalized_rounds(&self, b: u64) -> u64 {
        assert!(b > 0, "bandwidth must be positive");
        self.per_round
            .iter()
            .map(|r| if r.max_link_bits == 0 { 1 } else { r.max_link_bits.div_ceil(b) })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            rounds: 3,
            all_halted: true,
            executor: "sequential",
            threads: 1,
            per_round: vec![
                RoundStats {
                    round: 0,
                    active_nodes: 4,
                    messages: 4,
                    bits: 40,
                    max_message_bits: 10,
                    max_link_bits: 10,
                    max_link_messages: 1,
                },
                RoundStats {
                    round: 1,
                    active_nodes: 4,
                    messages: 8,
                    bits: 200,
                    max_message_bits: 50,
                    max_link_bits: 70,
                    max_link_messages: 2,
                },
                RoundStats {
                    round: 2,
                    active_nodes: 4,
                    messages: 0,
                    bits: 0,
                    max_message_bits: 0,
                    max_link_bits: 0,
                    max_link_messages: 0,
                },
            ],
            faults: FaultReport {
                dropped_random: 2,
                corrupted_rejected: 1,
                crashed_nodes: vec![1, 3],
                ..FaultReport::default()
            },
            net: None,
        }
    }

    #[test]
    fn totals() {
        let r = report();
        assert_eq!(r.total_messages(), 12);
        assert_eq!(r.total_bits(), 240);
        assert_eq!(r.max_message_bits(), 50);
        assert_eq!(r.max_link_bits(), 70);
    }

    #[test]
    fn normalization_charges_ceil_per_round() {
        let r = report();
        // Round 0: ceil(10/32)=1, round 1: ceil(70/32)=3, round 2 silent: 1.
        assert_eq!(r.normalized_rounds(32), 5);
        // Generous bandwidth: every round costs 1.
        assert_eq!(r.normalized_rounds(1 << 20), 3);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn normalization_rejects_zero_bandwidth() {
        report().normalized_rounds(0);
    }

    #[test]
    fn fault_report_totals_and_cleanliness() {
        assert_eq!(FaultReport::default().total_dropped(), 0);
        // Rejected corrupted frames count as lost; delivered garbage
        // does not.
        assert_eq!(report().faults.total_dropped(), 3);
        let delivered_only = FaultReport { corrupted_delivered: 5, ..FaultReport::default() };
        assert_eq!(delivered_only.total_dropped(), 0);
    }
}

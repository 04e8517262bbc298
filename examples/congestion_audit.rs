//! Congestion audit: why Algorithm 1 prunes.
//!
//! Sweeps spindle graphs of growing fan-in width p and compares the
//! unpruned append-and-forward baseline against Algorithm 1 on the
//! quantities the CONGEST model cares about: sequences per message,
//! per-link bits, and normalized rounds (wall rounds × ⌈link-bits / B⌉
//! with B = 4⌈log₂ n⌉).
//!
//! ```text
//! cargo run --release --example congestion_audit
//! ```

use ck_baselines::naive::{naive_detect_through_edge, DropPolicy};
use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_congest::message::WireParams;
use ck_core::prune::lemma3_bound;
use ck_core::single::detect_ck_through_edge;
use ck_graphgen::basic::spindle;

fn main() {
    let k = 6;
    let bound = (2..=k / 2).map(|t| lemma3_bound(k, t)).max().unwrap();
    println!("k = {k}; Lemma 3 worst-round bound = {bound} sequences/message\n");
    println!("    p | naive seqs | naive link bits | naive norm rounds | pruned seqs | pruned link bits | pruned norm rounds");
    println!("------+------------+-----------------+-------------------+-------------+------------------+-------------------");
    for p in [4usize, 8, 16, 32, 64, 128] {
        let g = spindle(p, 2);
        let e = Edge::new(0, 1);
        let wp = WireParams::for_graph(&g);
        let b = wp.congest_bandwidth(4);

        let naive =
            naive_detect_through_edge(&g, k, e, DropPolicy::KeepAll, &EngineConfig::default())
                .unwrap();
        let pruned = detect_ck_through_edge(&g, k, e, &EngineConfig::default()).unwrap();
        assert!(naive.reject && pruned.reject);
        assert!((pruned.max_sent_seqs() as u128) <= bound);

        println!(
            "{p:5} | {:10} | {:15} | {:17} | {:11} | {:16} | {:18}",
            naive.max_offered,
            naive.outcome.report.max_link_bits(),
            naive.outcome.report.normalized_rounds(b),
            pruned.max_sent_seqs(),
            pruned.outcome.report.max_link_bits(),
            pruned.outcome.report.normalized_rounds(b),
        );
    }
    println!("\nNaive grows linearly with p; Algorithm 1 stays at the Lemma 3 constant.");
}

//! Figure 1, replayed: detecting a C5 through {u, v}.
//!
//! Reconstructs the paper's Figure-1 instance (hubs u, v; middle nodes
//! x, y adjacent to both; apex z) and walks through why forwarding
//! decisions matter: if x and y each forward only their u-side sequence,
//! z never assembles the cycle — Algorithm 1's pruning provably keeps
//! both sides.
//!
//! ```text
//! cargo run --release --example figure1_c5
//! ```

use ck_baselines::naive::{naive_detect_through_edge, DropPolicy};
use ck_congest::engine::EngineConfig;
use ck_congest::graph::Edge;
use ck_core::prune::build_send_set;
use ck_core::seq::SeqRows;
use ck_core::single::detect_ck_through_edge;
use ck_graphgen::basic::figure1;

fn main() {
    let g = figure1();
    let e = Edge::new(0, 1);
    println!("Figure 1 graph: u=0, v=1, x=2, y=3, z=4; testing C5 through {{u,v}}\n");

    // Round 1: u and v seed; x receives both IDs.
    println!("round 1: u, v broadcast their IDs; x and y receive both (u) and (v)");

    // Round 2 at x (= node id 2): the pruning decision.
    let received = SeqRows::from_rows(1, &[&[0], &[1]]);
    let sent = build_send_set(&received, 2, 5, 2);
    println!("round 2 at x: received {{(u), (v)}} → forwards {:?}", seqs(&sent));
    assert_eq!(sent.len(), 2, "the pruner must keep BOTH hub sequences");

    // Full protocol: z decides.
    let run = detect_ck_through_edge(&g, 5, e, &EngineConfig::default()).unwrap();
    let z = &run.outcome.verdicts[4];
    println!(
        "round 2→3: z receives the forwarded pairs and outputs {}",
        if z.reject { "REJECT" } else { "accept" }
    );
    let w = z.witness.as_ref().expect("z detects");
    println!("  witness: L1={:?}, L2={:?} → cycle {:?}\n", w.l1, w.l2, w.cycle_ids());

    // The pitfall, made concrete: truncate to one sequence per node.
    let capped = naive_detect_through_edge(
        &g,
        5,
        e,
        DropPolicy::TruncateDeterministic { cap: 1 },
        &EngineConfig::default(),
    )
    .unwrap();
    println!(
        "same run with arbitrary cap-1 truncation instead of pruning: {}",
        if capped.reject { "REJECT" } else { "accept (cycle LOST — the Figure 1 pitfall)" }
    );
    assert!(!capped.reject);
}

fn seqs(s: &SeqRows) -> Vec<Vec<u64>> {
    s.rows().map(<[u64]>::to_vec).collect()
}

//! Quickstart: test a network for C5-freeness through the `Session`
//! API — one builder, parameters validated up front, engine and
//! node-state arenas recycled across runs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ck_core::session::TesterSession;
use ck_graphgen::basic::cycle;
use ck_graphgen::planted::matched_free_instance;

fn main() {
    let k = 5;
    let eps = 0.1;

    // One session, many graphs: (k, ε) are checked here, not deep
    // inside a run.
    let mut session = TesterSession::builder(k, eps).seed(42).build().expect("valid parameters");

    // A C5-free network (blocks of C6 chained together): the tester is
    // 1-sided, so this must be accepted no matter the seed.
    let free = matched_free_instance(60, k);
    let run = session.test(&free).expect("default engine config cannot fail");
    println!(
        "C6-cactus (n={}, m={}): {}  [{} repetitions, {} rounds, {} messages]",
        free.n(),
        free.m(),
        if run.reject { "REJECT" } else { "accept" },
        run.repetitions,
        run.outcome.report.rounds,
        run.outcome.report.total_messages(),
    );
    assert!(!run.reject, "1-sided error: a C5-free graph is never rejected");

    // A single C5: every edge lies on it, so whichever edge wins the
    // Phase-1 rank draw, Phase 2 finds the cycle.
    let c5 = cycle(k);
    let run = session.test(&c5).expect("default engine config cannot fail");
    println!(
        "C5 itself   (n={}, m={}): {}",
        c5.n(),
        c5.m(),
        if run.reject { "REJECT" } else { "accept" },
    );
    for r in run.rejections() {
        println!(
            "  node rejected in repetition {} via edge ({}, {}): cycle {:?}",
            r.repetition,
            r.tag.lo,
            r.tag.hi,
            r.witness.cycle_ids()
        );
    }
    assert!(run.reject);
}

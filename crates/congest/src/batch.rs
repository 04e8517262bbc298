//! Sharded batch execution: run many independent jobs with one
//! reusable shard state per worker.
//!
//! The experiment tables and sweep harnesses of this workspace are
//! statements over *families* of instances — dozens of graphs, trials ×
//! seeds per cell — yet a naive loop rebuilds the engine's arenas and
//! scratch from scratch for every run. This module provides the
//! deterministic fan-out those sweeps share: items are split into
//! contiguous chunks ("shards"), each shard lazily creates one state
//! (typically an [`crate::engine::EngineWorkspace`] plus protocol
//! scratch) and drives its items through it sequentially, and results
//! come back **in input order**, independent of scheduling.
//!
//! Determinism: each job's result depends only on the item and the
//! shard-state contract (a reset workspace delivers exactly what a fresh
//! one does), never on which shard ran it or in what interleaving — so a
//! sharded run is bit-identical to `shards = 1`, which is bit-identical
//! to a plain loop.

use rayon::prelude::*;

/// Clamps a requested shard count to something useful for `len` items:
/// at least 1, at most one shard per item, defaulting to the thread
/// pool's width when `requested` is `None`.
pub fn effective_shards(requested: Option<usize>, len: usize) -> usize {
    requested.unwrap_or_else(rayon::current_num_threads).clamp(1, len.max(1))
}

/// Runs `job` over every item, sharded across the thread pool.
///
/// Items are split into `shards` contiguous chunks; each chunk gets one
/// state from `init` and processes its items in index order. With
/// `shards <= 1` everything runs inline on the caller's thread through
/// a single state — the reference path the parallel one must match.
///
/// `job` receives the shard state, the item's global index, and the
/// item; results are returned in input order. Spawns whenever more than
/// one shard is requested — callers whose jobs may be too small to pay
/// for a spawn set a threshold via [`run_sharded_with_min_items`].
pub fn run_sharded<T, S, R, I, J>(items: &[T], shards: usize, init: I, job: J) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    J: Fn(&mut S, usize, &T) -> R + Sync,
{
    run_sharded_with_min_items(items, shards, 0, init, job)
}

/// [`run_sharded`] with a per-call-site inline-vs-spawn threshold:
/// batches of fewer than `min_items` items run inline on the caller's
/// thread through a single state (same as `shards = 1`), regardless of
/// the requested shard count. The global pool heuristic
/// (`MIN_PAR_LEN`) is tuned for node-step closures, not whole tester
/// jobs, so batch call sites pick their own break-even point here.
/// `min_items = 0` always spawns when `shards > 1`.
pub fn run_sharded_with_min_items<T, S, R, I, J>(
    items: &[T],
    shards: usize,
    min_items: usize,
    init: I,
    job: J,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    J: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let shards = shards.clamp(1, n.max(1));
    if shards <= 1 || n < min_items {
        let mut state = init();
        return items.iter().enumerate().map(|(i, t)| job(&mut state, i, t)).collect();
    }
    let chunk = n.div_ceil(shards);
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    out.par_chunks_mut(chunk).with_min_items(min_items).enumerate().for_each(|(ci, outs)| {
        let base = ci * chunk;
        let mut state = init();
        for (off, slot) in outs.iter_mut().enumerate() {
            *slot = Some(job(&mut state, base + off, &items[base + off]));
        }
    });
    // ck-lint: allow(no-panic, reason = "the shard loop above writes every slot of its chunk exactly once before joining")
    out.into_iter().map(|r| r.expect("every shard fills its chunk")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..23).collect();
        for shards in [1, 2, 4, 23, 100] {
            let states = AtomicUsize::new(0);
            let out = run_sharded(
                &items,
                shards,
                || {
                    states.fetch_add(1, Ordering::Relaxed);
                    0u64 // per-shard running sum, to prove state reuse
                },
                |acc, i, &x| {
                    *acc += x;
                    (i, x * 2, *acc)
                },
            );
            assert_eq!(out.len(), items.len(), "shards={shards}");
            for (i, &(idx, doubled, _)) in out.iter().enumerate() {
                assert_eq!(idx, i);
                assert_eq!(doubled, items[i] * 2);
            }
            // One state per shard actually used (≤ requested; chunks of
            // ceil(n/shards) may need fewer).
            let used = items.len().div_ceil(items.len().div_ceil(shards.clamp(1, items.len())));
            assert_eq!(states.load(Ordering::Relaxed), used, "shards={shards}");
            // Within a shard the state threads through jobs in order:
            // the last job of the first shard saw the chunk's full sum.
            let chunk = items.len().div_ceil(shards.clamp(1, items.len()));
            let first_chunk_sum: u64 = items[..chunk].iter().sum();
            assert_eq!(out[chunk - 1].2, first_chunk_sum, "shards={shards}");
        }
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u32> = Vec::new();
        let out = run_sharded(&empty, 8, || (), |(), _, _| 1);
        assert!(out.is_empty());
        let one = [42u32];
        let out = run_sharded(&one, 8, || (), |(), i, &x| (i, x));
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn min_items_threshold_runs_small_batches_inline() {
        let items: Vec<u64> = (0..6).collect();
        // Below the threshold: one state, inline, same results.
        let states = AtomicUsize::new(0);
        let out = run_sharded_with_min_items(
            &items,
            4,
            16,
            || {
                states.fetch_add(1, Ordering::Relaxed);
            },
            |(), i, &x| (i, x * 3),
        );
        assert_eq!(states.load(Ordering::Relaxed), 1, "small batch must not spawn");
        assert_eq!(out, (0..6).map(|i| (i as usize, i * 3)).collect::<Vec<_>>());
        // At/above the threshold the sharded path engages and agrees.
        let out2 = run_sharded_with_min_items(&items, 4, 6, || (), |(), i, &x| (i, x * 3));
        assert_eq!(out, out2);
        // min_items = 0 is the plain run_sharded behavior.
        let out3 = run_sharded(&items, 4, || (), |(), i, &x| (i, x * 3));
        assert_eq!(out, out3);
    }

    #[test]
    fn effective_shards_clamps_sensibly() {
        assert_eq!(effective_shards(Some(8), 3), 3);
        assert_eq!(effective_shards(Some(0), 3), 1);
        assert_eq!(effective_shards(Some(2), 100), 2);
        assert_eq!(effective_shards(Some(5), 0), 1);
        let auto = effective_shards(None, 64);
        assert!((1..=64).contains(&auto));
    }
}

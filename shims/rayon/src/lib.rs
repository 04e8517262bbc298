//! Offline stand-in for `rayon`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the fragment of rayon's API the workspace calls — `par_iter_mut` over
//! slices with its `map` → `collect` and `enumerate` → `fold` →
//! `reduce` chains, and `par_chunks_mut` → `enumerate` → `for_each` —
//! implemented with `std::thread::scope` over contiguous chunks.
//!
//! Differences from real rayon, by design:
//!
//! * no global thread pool — threads are spawned per call and joined
//!   before it returns (scoped, so borrowed captures work exactly as
//!   they do with rayon);
//! * small inputs (below [`MIN_PAR_LEN`]) run inline on the caller's
//!   thread, since per-call spawning would dominate;
//! * a caller can pin an element-wise call's partition to a captured
//!   [`ChunkPlan`] ([`ParIterMut::with_chunk_plan`]), which the round
//!   engine does to key chunk-local state off the executing partition;
//! * adapters are executed eagerly at the terminal operation; there is
//!   no lazy iterator fusion.
//!
//! Chunks are contiguous and results are reassembled in input order, so
//! `collect` is order-preserving — the property the round engine's
//! determinism contract relies on. As in rayon, a worker's panic is
//! re-raised on the caller's thread with its own payload.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Inputs shorter than this run inline; scoped-thread spawning costs a
/// few tens of microseconds per call, which only pays off for wide
/// loops. Call sites whose per-element work is heavier than a trivial
/// loop body (e.g. a whole CONGEST node step) plan under a lower
/// threshold with [`chunk_plan`] and pin that plan with
/// [`ParIterMut::with_chunk_plan`].
pub const MIN_PAR_LEN: usize = 4096;

/// Test override for the worker count (0 = fall back to the
/// `CK_FORCED_WORKERS` environment default, then the core count).
static FORCED_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Forces every parallel call to split across exactly `n` scoped
/// threads regardless of core count or input length (0 restores the
/// default: the `CK_FORCED_WORKERS` environment value if set, else the
/// core count). For tests: lets single-core machines and small inputs
/// exercise the genuinely multi-threaded code paths that callers'
/// unsafe code (e.g. the round engine's shared arenas) must survive.
///
/// Call this only **between** runs, never while a parallel computation
/// is in flight. A call that does land mid-run cannot split a pinned
/// run differently: callers that key external chunk-local state off a
/// captured [`ChunkPlan`] prepare that state from one forced-worker
/// snapshot and hand the same plan to [`ParIterMut::with_chunk_plan`],
/// which the round engine does for every round of a run, so that run
/// keeps the partition its state was sized for. Unpinned parallel calls
/// read the new count at their next call, and the next run captures a
/// new plan.
pub fn force_workers_for_tests(n: usize) {
    FORCED_WORKERS.store(n, Ordering::Relaxed);
}

/// Process-wide forced-worker default from the `CK_FORCED_WORKERS`
/// environment variable, read once — CI's thread-matrix leg uses this
/// to run whole test binaries at a fixed worker count without touching
/// every test. Invalid or absent values mean "no forcing".
fn env_forced_workers() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("CK_FORCED_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
    })
}

/// The forced worker count in effect: an explicit
/// [`force_workers_for_tests`] wins, then the `CK_FORCED_WORKERS`
/// environment default; 0 means "not forced".
fn effective_forced() -> usize {
    let forced = FORCED_WORKERS.load(Ordering::Relaxed);
    if forced > 0 {
        forced
    } else {
        env_forced_workers()
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Number of worker threads a wide parallel call will use — the forced
/// override if set, else the core count. Mirrors rayon's
/// `current_num_threads` so callers (e.g. benchmark metadata) can
/// report the parallel executor's width honestly.
pub fn current_num_threads() -> usize {
    let forced = effective_forced();
    if forced > 0 {
        return forced;
    }
    cores()
}

fn worker_count(len: usize) -> usize {
    let forced = effective_forced();
    if forced > 0 {
        return forced.min(len.max(1));
    }
    cores().min(len)
}

/// The contiguous chunk partition a wide element-wise parallel call
/// (`par_iter_mut` and its adapters) uses for a slice of `len` items:
/// `workers` scoped threads, each owning one contiguous chunk of
/// `chunk_len` elements (the last may be shorter), `workers == 1`
/// meaning the call runs inline on the caller's thread.
///
/// This is the **single source of truth** for the shim's element→thread
/// mapping: [`chunk_plan`] exposes it so callers that share mutable
/// state per chunk (the round engine's SoA node-state arena keys its
/// chunk-local scratch off this) partition exactly as the executor
/// does. `index / chunk_len` is the chunk an element runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Slice length the plan was computed for.
    pub len: usize,
    /// Number of contiguous chunks (== scoped threads when > 1).
    pub workers: usize,
    /// Elements per chunk (≥ 1 even for empty slices, so
    /// `index / chunk_len` is always well-defined).
    pub chunk_len: usize,
}

impl ChunkPlan {
    /// Number of nonempty chunks the slice actually splits into.
    pub fn chunks(&self) -> usize {
        self.len.div_ceil(self.chunk_len).max(1)
    }

    /// The chunk (and therefore thread) an element index runs on.
    pub fn chunk_of(&self, index: usize) -> usize {
        index / self.chunk_len
    }
}

/// Pure partition math behind [`chunk_plan`]: injectable inputs so the
/// mapping is unit-testable on any machine.
fn plan_for(len: usize, cores: usize, forced: usize, min_len: usize) -> ChunkPlan {
    let workers = if forced > 0 { forced.min(len.max(1)) } else { cores.min(len) };
    let inline = workers <= 1 || (forced == 0 && len < min_len);
    if inline {
        ChunkPlan { len, workers: 1, chunk_len: len.max(1) }
    } else {
        ChunkPlan { len, workers, chunk_len: len.div_ceil(workers) }
    }
}

/// The partition an element-wise parallel call over `len` items uses
/// under the inline threshold `min_len` (an unpinned call uses
/// [`MIN_PAR_LEN`]), from the current forced-worker and core state.
/// Pin the returned plan with [`ParIterMut::with_chunk_plan`] so the
/// plan and the execution agree.
pub fn chunk_plan(len: usize, min_len: usize) -> ChunkPlan {
    plan_for(len, cores(), effective_forced(), min_len)
}

/// Runs `f(start_index, chunk)` over contiguous chunks of `data` on
/// scoped threads, returning per-chunk outputs in input order. The
/// partition is the caller's `pinned` plan verbatim, or else
/// [`chunk_plan`]`(data.len(), MIN_PAR_LEN)`, recomputed now. Callers
/// synchronizing external chunk-local state rely on that equality.
fn run_mut_chunks<T: Send, R: Send>(
    data: &mut [T],
    pinned: Option<ChunkPlan>,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let n = data.len();
    let plan = match pinned {
        Some(p) => {
            assert_eq!(p.len, n, "pinned ChunkPlan was computed for a different length");
            p
        }
        None => chunk_plan(n, MIN_PAR_LEN),
    };
    if plan.workers <= 1 {
        if n == 0 {
            return Vec::new();
        }
        return vec![f(0, data)];
    }
    let chunk = plan.chunk_len;
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = data
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, ch)| s.spawn(move || f(ci * chunk, ch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Collection target of a parallel `collect` (only `Vec` is needed).
pub trait FromParallelVec<R>: Sized {
    fn from_parallel_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallelVec<R> for Vec<R> {
    fn from_parallel_vec(v: Vec<R>) -> Self {
        v
    }
}

// ---------------------------------------------------------------- slices

/// Parallel iterator over `&mut [T]`.
pub struct ParIterMut<'a, T> {
    data: &'a mut [T],
    pinned: Option<ChunkPlan>,
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Pins this call's partition to a caller-captured [`ChunkPlan`]
    /// (from [`chunk_plan`]): the element→thread mapping becomes a pure
    /// function of the plan, unaffected by any
    /// [`force_workers_for_tests`] / `CK_FORCED_WORKERS` change after
    /// the capture. Callers that key external chunk-local state off a
    /// plan (the round engine's SoA node-state arena) pass that exact
    /// plan here, so the executing partition and the state's layout
    /// provably agree for every call sharing the capture. The plan
    /// must have been computed for this slice's length.
    pub fn with_chunk_plan(mut self, plan: ChunkPlan) -> Self {
        self.pinned = Some(plan);
        self
    }

    pub fn map<R, F>(self, f: F) -> MapMut<'a, T, F>
    where
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        MapMut { data: self.data, pinned: self.pinned, f }
    }

    pub fn enumerate(self) -> EnumerateMut<'a, T> {
        EnumerateMut { data: self.data, pinned: self.pinned }
    }
}

pub struct MapMut<'a, T, F> {
    data: &'a mut [T],
    pinned: Option<ChunkPlan>,
    f: F,
}

impl<'a, T: Send, F> MapMut<'a, T, F> {
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(&mut T) -> R + Sync,
        C: FromParallelVec<R>,
    {
        let (n, f) = (self.data.len(), &self.f);
        let parts = run_mut_chunks(self.data, self.pinned, |_, ch| {
            ch.iter_mut().map(f).collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(n);
        for p in parts {
            out.extend(p);
        }
        C::from_parallel_vec(out)
    }
}

pub struct EnumerateMut<'a, T> {
    data: &'a mut [T],
    pinned: Option<ChunkPlan>,
}

impl<'a, T: Send> EnumerateMut<'a, T> {
    /// Mirrors rayon's `fold`: each chunk folds its items from a fresh
    /// `identity()`; combine the chunk results with the returned
    /// adapter's `reduce`.
    pub fn fold<R, ID, F>(self, identity: ID, fold_op: F) -> EnumerateFoldMut<'a, T, ID, F>
    where
        R: Send,
        ID: Fn() -> R + Sync,
        F: Fn(R, (usize, &mut T)) -> R + Sync,
    {
        EnumerateFoldMut { data: self.data, pinned: self.pinned, identity, fold_op }
    }
}

pub struct EnumerateFoldMut<'a, T, ID, F> {
    data: &'a mut [T],
    pinned: Option<ChunkPlan>,
    identity: ID,
    fold_op: F,
}

impl<'a, T: Send, ID, F> EnumerateFoldMut<'a, T, ID, F> {
    /// Combines per-chunk fold results in input order. With an
    /// associative `op` (and `identity` a true identity) this equals
    /// the sequential left fold.
    pub fn reduce<R, ID2, OP>(self, identity: ID2, op: OP) -> R
    where
        R: Send,
        ID: Fn() -> R + Sync,
        F: Fn(R, (usize, &mut T)) -> R + Sync,
        ID2: Fn() -> R + Sync,
        OP: Fn(R, R) -> R + Sync,
    {
        let (identity_fn, fold_op) = (&self.identity, &self.fold_op);
        let parts = run_mut_chunks(self.data, self.pinned, |base, ch| {
            let mut acc = identity_fn();
            for (i, t) in ch.iter_mut().enumerate() {
                acc = fold_op(acc, (base + i, t));
            }
            acc
        });
        parts.into_iter().fold(identity(), &op)
    }
}

/// Parallel iterator over contiguous mutable chunks of a slice,
/// mirroring rayon's `par_chunks_mut`. Unlike the element-wise
/// adapters, the chunk size is an *explicit* granularity choice by the
/// caller — batch runners size one chunk per shard — so the
/// [`MIN_PAR_LEN`] heuristic does not apply: chunks run on scoped
/// threads whenever more than one worker is available (each chunk's
/// work is presumed heavy). Like real rayon, concurrency is bounded by
/// the pool width: chunks are multiplexed round-robin onto at most
/// [`current_num_threads`] workers, so a caller asking for thousands
/// of tiny chunks gets thousands of `f` calls, not thousands of OS
/// threads. Chunk order and contents match `slice::chunks_mut`.
pub struct ParChunksMut<'a, T> {
    data: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut { data: self.data, chunk: self.chunk }
    }
}

pub struct EnumerateChunksMut<'a, T> {
    data: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> EnumerateChunksMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let chunk = self.chunk.max(1);
        let chunks = self.data.len().div_ceil(chunk);
        let workers = worker_count(chunks);
        if workers <= 1 {
            self.data.chunks_mut(chunk).enumerate().for_each(f);
            return;
        }
        // Deal chunks round-robin onto exactly `workers` scoped
        // threads; each thread drains its hand in chunk order.
        let mut hands: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
        for (ci, ch) in self.data.chunks_mut(chunk).enumerate() {
            hands[ci % workers].push((ci, ch));
        }
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = hands
                .into_iter()
                .map(|hand| s.spawn(move || hand.into_iter().for_each(|(ci, ch)| f((ci, ch)))))
                .collect();
            for h in handles {
                h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        });
    }
}

/// Extension trait providing `par_iter_mut` and `par_chunks_mut` on
/// slices (and, by auto-deref, on `Vec`s).
pub trait ParallelSliceMut<T: Send> {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;

    /// Parallel iterator over contiguous mutable chunks of `chunk`
    /// elements (the last may be shorter); see [`ParChunksMut`].
    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut { data: self, pinned: None }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
        ParChunksMut { data: self, chunk }
    }
}

/// The drop-in prelude, mirroring `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{FromParallelVec, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    /// Restores the default worker count when dropped, even on panic.
    struct Reset;

    impl Drop for Reset {
        fn drop(&mut self) {
            crate::force_workers_for_tests(0);
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let mut v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter_mut().map(|x| *x * 2).collect();
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &d)| d == 2 * i as u64));
    }

    #[test]
    fn for_each_mutates_every_element() {
        let mut v = vec![1u32; 9000];
        let _: Vec<()> = v.par_iter_mut().map(|x| *x += 1).collect();
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn enumerate_indices_are_global() {
        let mut v = vec![0usize; 10_000];
        let visited = v
            .par_iter_mut()
            .enumerate()
            .fold(
                || 0usize,
                |count, (i, x)| {
                    *x = i;
                    count + 1
                },
            )
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(visited, 10_000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn par_chunks_mut_covers_every_chunk_with_global_indices() {
        // Small input: the explicit-granularity path must still run
        // every chunk (inline on 1 worker, threaded otherwise).
        let mut v = vec![0usize; 10];
        v.par_chunks_mut(4).enumerate().for_each(|(ci, ch)| {
            for x in ch.iter_mut() {
                *x = ci + 1;
            }
        });
        assert_eq!(v, vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);

        // Forced workers: exercise the genuinely threaded path.
        let _reset = Reset;
        crate::force_workers_for_tests(3);
        let mut v = [0usize; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(_, ch)| ch.iter_mut().for_each(|x| *x += 7));
        assert!(v.iter().all(|&x| x == 7));

        // Far more chunks than workers: every chunk still runs with its
        // global index, multiplexed onto the bounded worker set.
        let mut v = vec![0usize; 500];
        v.par_chunks_mut(1).enumerate().for_each(|(ci, ch)| ch[0] = ci);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn small_inputs_run_inline() {
        let mut v = [3u8; 5];
        let out: Vec<u8> = v.par_iter_mut().map(|x| *x).collect();
        assert_eq!(out, vec![3; 5]);
        let empty: Vec<u8> = Vec::<u8>::new().par_iter_mut().map(|x| *x).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn chunk_plan_math() {
        use crate::plan_for;
        // Below the threshold: inline, one logical chunk.
        assert_eq!(
            plan_for(100, 8, 0, 4096),
            crate::ChunkPlan { len: 100, workers: 1, chunk_len: 100 }
        );
        // Above the threshold: ceil-divided contiguous chunks.
        assert_eq!(
            plan_for(10_000, 8, 0, 4096),
            crate::ChunkPlan { len: 10_000, workers: 8, chunk_len: 1250 }
        );
        // A lowered per-call threshold flips the same length to spawn.
        assert_eq!(plan_for(100, 8, 0, 64).workers, 8);
        assert_eq!(plan_for(100, 8, 0, 64).chunk_len, 13);
        // Forced workers bypass the length threshold entirely...
        assert_eq!(plan_for(10, 1, 4, 4096).workers, 4);
        // ...but never exceed the element count.
        assert_eq!(plan_for(3, 1, 8, 4096).workers, 3);
        // Degenerate inputs stay well-defined: chunk_len >= 1.
        assert_eq!(plan_for(0, 8, 0, 4096).chunk_len, 1);
        assert_eq!(plan_for(0, 8, 2, 4096).workers, 1);
        // One core, nothing forced: always inline.
        assert_eq!(plan_for(1_000_000, 1, 0, 0).workers, 1);

        // chunk_of maps indices onto the contiguous partition.
        let p = plan_for(10, 8, 4, 4096);
        assert_eq!((p.workers, p.chunk_len, p.chunks()), (4, 3, 4));
        assert_eq!(p.chunk_of(0), 0);
        assert_eq!(p.chunk_of(2), 0);
        assert_eq!(p.chunk_of(3), 1);
        assert_eq!(p.chunk_of(9), 3);
    }

    /// A plan computed under a lowered threshold splits a slice far
    /// below [`crate::MIN_PAR_LEN`], and a fold pinned to it equals the
    /// sequential fold (order-preserving combine) — the round engine's
    /// node-step path.
    #[test]
    fn lowered_threshold_plan_splits_small_slices() {
        let _reset = Reset;
        // Forced to 3 workers so the threaded path is real even on a
        // 1-core machine.
        crate::force_workers_for_tests(3);
        let plan = crate::chunk_plan(10, 8);
        assert_eq!((plan.workers, plan.chunk_len), (3, 4));
        let mut v: Vec<u64> = (0..10).collect();
        let sum = v
            .par_iter_mut()
            .with_chunk_plan(plan)
            .enumerate()
            .fold(|| 0u64, |acc, (i, x)| acc + *x + i as u64)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(sum, 2 * (0..10u64).sum::<u64>());

        // Without the lowered threshold the same tiny slice stays inline
        // under a non-forced plan (cores may exceed 1 on the host, so
        // only check the planner's inline decision directly).
        assert_eq!(crate::plan_for(10, 8, 0, crate::MIN_PAR_LEN).workers, 1);
    }

    #[test]
    fn with_chunk_plan_pins_partition_across_forced_worker_changes() {
        // A pinned plan is a pure function of its fields: the executing
        // partition must match it exactly no matter what the global
        // forced-worker state says at call time. This is the contract
        // the round engine's per-run capture (and the SoA arena's
        // chunk-shared scratch) relies on.
        let plan = crate::ChunkPlan { len: 12, workers: 4, chunk_len: 3 };
        // No forcing in effect (and len far below MIN_PAR_LEN, which
        // would normally run inline): the pinned plan must still split
        // into its own chunks. Record each element's observed chunk
        // base and check it against the plan's chunk_of mapping.
        let mut v = [usize::MAX; 12];
        v.par_iter_mut()
            .with_chunk_plan(plan)
            .enumerate()
            .fold(Vec::new, |mut acc, (i, x)| {
                // Chunk-local fold: every element folded together came
                // from one contiguous chunk of the pinned plan.
                *x = i;
                acc.push(i);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                // Each incoming fold part must sit entirely inside one
                // pinned chunk (the accumulator `a` spans the chunks
                // already combined, so only `b` is checked).
                if let Some(&first) = b.first() {
                    assert!(
                        b.iter().all(|&i| plan.chunk_of(i) == plan.chunk_of(first)),
                        "fold part crossed a pinned chunk boundary: {b:?}"
                    );
                }
                a.append(&mut b);
                a
            });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));

        // Mutating the forced state between capture and call must not
        // change the partition: pin 2 chunks, then force 5 workers —
        // the call still splits into exactly the pinned 2 chunks.
        let _reset = Reset;
        let pinned = crate::ChunkPlan { len: 10, workers: 2, chunk_len: 5 };
        crate::force_workers_for_tests(5);
        let bases: Vec<usize> = {
            let mut v = vec![0u8; 10];
            let parts = crate::run_mut_chunks(&mut v, Some(pinned), |base, ch| (base, ch.len()));
            parts.iter().for_each(|&(base, len)| assert!(len <= pinned.chunk_len, "{base}/{len}"));
            parts.into_iter().map(|(base, _)| base).collect()
        };
        assert_eq!(bases, vec![0, 5], "pinned partition must ignore the forced-worker state");
    }

    #[test]
    #[should_panic(expected = "different length")]
    fn with_chunk_plan_rejects_mismatched_length() {
        let plan = crate::ChunkPlan { len: 8, workers: 2, chunk_len: 4 };
        let mut v = [0usize; 9];
        let _: Vec<usize> = v.par_iter_mut().with_chunk_plan(plan).map(|x| *x + 1).collect();
    }
}

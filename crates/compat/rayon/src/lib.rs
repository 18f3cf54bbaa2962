//! Offline stand-in for `rayon`.
//!
//! The build environment has no network access, so this crate implements the
//! subset of rayon's API the workspace uses on top of `std::thread::scope`:
//!
//! * [`prelude`] — `into_par_iter()` on `usize` ranges, `par_iter()` /
//!   `par_chunks_mut()` on slices, with `map` / `enumerate` / `for_each` /
//!   `collect` / `reduce` terminals;
//! * [`join`] — two-way fork/join;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — thread-count control
//!   (implemented as a scoped override, which is all the tests need);
//! * [`current_num_threads`].
//!
//! Execution model: each terminal runs on one scoped thread per worker.
//! `collect` and `for_each` are **self-scheduling**: workers claim items
//! one at a time from a shared atomic counter and write each output into
//! its item's slot, so items of unequal cost (sequences of unequal
//! length in one engine fork) balance across workers instead of leaving
//! one idle behind a pre-cut span. Upstream rayon balances by work
//! stealing; the claim counter approximates it. `reduce` keeps one
//! contiguous span per worker, because those spans define its combine
//! grouping. Worker threads are flagged so *nested* parallel calls run
//! inline instead of oversubscribing — rayon's pool reuse, approximated.
//!
//! Ordering guarantees match rayon's: `collect` returns outputs in item
//! order whatever the claim order, and `reduce` combines span results in
//! item order, so any fold the caller builds from associative operations
//! is deterministic and thread-count-independent.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set inside worker threads: nested parallel terminals run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// The worker's index within its parallel terminal (see
    /// [`current_thread_index`]).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-thread override installed by [`ThreadPool::install`] (0 = none).
    static NUM_THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Marks the current thread as a pool worker with the given index.
fn enter_worker(index: usize) {
    IN_POOL.with(|flag| flag.set(true));
    WORKER_INDEX.with(|i| i.set(Some(index)));
}

/// The calling thread's index within the pool, or `None` when called from
/// outside any parallel terminal — rayon's API for "am I already on a
/// worker?". Fork policies use this to route nested parallel calls (which
/// the shim runs inline anyway) straight down their serial path, skipping
/// the parallel entry's item-list materialization.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|i| i.get())
}

/// Whether the calling thread has an active [`ThreadPool::install`]
/// thread-count override.
///
/// **Shim-only API** (upstream rayon has no equivalent — deliberately):
/// `fa_tensor::par`'s fork policy uses it in a `debug_assert!` to encode
/// the shim's execution model — `install` runs its closure on the
/// *calling* thread, and pool workers are fresh scoped threads that never
/// carry an override, so "worker with an override" is impossible here.
/// Upstream rayon runs `install` closures ON a pool worker, which is
/// exactly the configuration whose silent-serialization hazard the SWAP
/// NOTE in `fa_tensor::par` documents; swapping upstream in without
/// following that note fails at compile time on this symbol instead of
/// silently serializing every `pool.install(..)` call site.
pub fn install_override_active() -> bool {
    NUM_THREADS_OVERRIDE.with(|n| n.get()) > 0
}

/// The number of worker threads a parallel terminal may use.
pub fn current_num_threads() -> usize {
    let overridden = NUM_THREADS_OVERRIDE.with(|n| n.get());
    if overridden > 0 {
        return overridden;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn effective_threads(len: usize) -> usize {
    if IN_POOL.with(|f| f.get()) {
        1
    } else {
        current_num_threads().min(len).max(1)
    }
}

/// Splits `items` into `parts` contiguous spans of near-equal length.
fn partition<I>(mut items: Vec<I>, parts: usize) -> Vec<Vec<I>> {
    let len = items.len();
    let mut spans = Vec::with_capacity(parts);
    let base = len / parts;
    let extra = len % parts;
    // Split from the back so each split_off is O(span).
    let mut sizes: Vec<usize> = (0..parts).map(|i| base + usize::from(i < extra)).collect();
    while let Some(size) = sizes.pop() {
        let tail = items.split_off(items.len() - size);
        spans.push(tail);
    }
    spans.reverse();
    spans
}

/// Runs `f` over every item on `threads` scoped workers that claim items
/// one at a time from a shared atomic counter, so a worker that drew
/// cheap items keeps drawing instead of idling while another finishes an
/// expensive one. Each item's output lands in the item's own slot, so
/// the returned vector is in item order whatever the claim order was.
fn run_claimed<I, O, F>(items: Vec<I>, threads: usize, f: &F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    // The counter only hands out indices; the items and outputs it
    // indexes are published through their slots' mutexes, so `Relaxed`
    // suffices.
    let next = AtomicUsize::new(0);
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|idx| {
                let (next, inputs, outputs) = (&next, &inputs, &outputs);
                scope.spawn(move || {
                    enter_worker(idx);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = inputs.get(i) else { break };
                        let item = lock(slot).take().expect("each item is claimed once");
                        let out = f(item);
                        *lock(&outputs[i]) = Some(out);
                    }
                })
            })
            .collect();
        // Explicit joins wait for each worker thread to exit, not just to
        // finish its closure (all the scope's implicit join waits for), so
        // the allocator has released the worker's heap arena before the
        // next fork spawns workers; otherwise back-to-back forks keep
        // creating arenas, each holding freed memory resident.
        for h in handles {
            h.join().expect("rayon-shim worker panicked");
        }
    });
    outputs
        .iter()
        .map(|slot| {
            lock(slot)
                .take()
                .expect("every claimed item wrote its output")
        })
        .collect()
}

/// Locks a claim slot. No slot is ever locked while `f` runs, so a
/// panicking item cannot poison one.
fn lock<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock()
        .expect("claim slots are never locked across a panic")
}

/// Runs `f` over every item, producing outputs in item order.
fn run_ordered<I, O, F>(items: Vec<I>, f: &F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    run_claimed(items, threads, f)
}

/// Runs `f` for every item, discarding outputs.
fn run_for_each<I, F>(items: Vec<I>, f: &F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 {
        items.into_iter().for_each(f);
        return;
    }
    run_claimed(items, threads, f);
}

/// An eager parallel iterator: a materialized item list plus a composed
/// per-item mapping applied on worker threads.
pub struct ParIter<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, O, F> ParIter<I, F>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    /// Maps each item through `g` (on the worker, composed with prior maps).
    pub fn map<U, G>(self, g: G) -> ParIter<I, impl Fn(I) -> U + Sync + Send>
    where
        G: Fn(O) -> U + Sync + Send,
    {
        let f = self.f;
        ParIter {
            items: self.items,
            f: move |item| g(f(item)),
        }
    }

    /// Pairs each mapped item with its index.
    #[allow(clippy::type_complexity)]
    pub fn enumerate(self) -> ParIter<(usize, I), impl Fn((usize, I)) -> (usize, O) + Sync + Send> {
        let f = self.f;
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
            f: move |(i, item)| (i, f(item)),
        }
    }

    /// Runs `g` on every mapped item across the pool.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(O) + Sync + Send,
    {
        let f = self.f;
        run_for_each(self.items, &move |item| g(f(item)));
    }

    /// Collects mapped items in order.
    pub fn collect<C: FromParIter<O>>(self) -> C {
        C::from_ordered(run_ordered(self.items, &self.f))
    }

    /// Folds mapped items with `op`, seeding every span with `identity()`
    /// and combining span results in item order — deterministic for
    /// associative `op` regardless of thread count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> O
    where
        ID: Fn() -> O + Sync + Send,
        OP: Fn(O, O) -> O + Sync + Send,
    {
        let threads = effective_threads(self.items.len());
        let f = self.f;
        if threads <= 1 {
            return self.items.into_iter().map(f).fold(identity(), &op);
        }
        let spans = partition(self.items, threads);
        let partials: Vec<O> = std::thread::scope(|scope| {
            let handles: Vec<_> = spans
                .into_iter()
                .enumerate()
                .map(|(idx, span)| {
                    let f = &f;
                    let identity = &identity;
                    let op = &op;
                    scope.spawn(move || {
                        enter_worker(idx);
                        span.into_iter().map(f).fold(identity(), op)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rayon-shim worker panicked"))
                .collect()
        });
        partials.into_iter().fold(identity(), &op)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Ordered collection target for [`ParIter::collect`].
pub trait FromParIter<O> {
    /// Builds the collection from in-order items.
    fn from_ordered(items: Vec<O>) -> Self;
}

impl<O> FromParIter<O> for Vec<O> {
    fn from_ordered(items: Vec<O>) -> Self {
        items
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Concrete iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_range_into_par {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$ty> {
            type Item = $ty;
            type Iter = ParIter<$ty, fn($ty) -> $ty>;
            fn into_par_iter(self) -> Self::Iter {
                ParIter { items: self.collect(), f: |x| x }
            }
        }
    )*};
}

impl_range_into_par!(usize, u32, u64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T, fn(T) -> T>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self,
            f: |x| x,
        }
    }
}

/// Parallel views of shared slices.
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator over `&T`.
    #[allow(clippy::type_complexity)]
    fn par_iter(&self) -> ParIter<&T, fn(&T) -> &T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, fn(&T) -> &T> {
        ParIter {
            items: self.iter().collect(),
            f: identity_fn_ref,
        }
    }
}

fn identity_fn_ref<T>(x: &T) -> &T {
    x
}

/// Parallel views of mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// A parallel iterator over non-overlapping mutable chunks of
    /// `chunk_size` elements (last chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    #[allow(clippy::type_complexity)]
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T], fn(&mut [T]) -> &mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T], fn(&mut [T]) -> &mut [T]> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
            f: identity_fn_mut,
        }
    }
}

fn identity_fn_mut<T>(x: &mut [T]) -> &mut [T] {
    x
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if IN_POOL.with(|f| f.get()) || current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(|| {
            enter_worker(1);
            b()
        });
        let ra = a();
        (ra, hb.join().expect("rayon-shim join worker panicked"))
    })
}

/// Builder mirroring rayon's `ThreadPoolBuilder`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (infallible in the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default (auto) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = auto).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool": in the shim, a scoped thread-count override.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing any parallel
    /// terminals it executes. The previous override is restored even if
    /// `f` panics (callers like the proptest runner catch unwinds and
    /// keep using the thread).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                NUM_THREADS_OVERRIDE.with(|n| n.set(self.0));
            }
        }
        let _restore = Restore(NUM_THREADS_OVERRIDE.with(|n| n.replace(self.num_threads)));
        f()
    }

    /// The configured thread count (0 = auto).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The traits a `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn collect_keeps_item_order_when_items_finish_out_of_order() {
        // Item 0 blocks until every other item has run, so outputs are
        // produced out of item order. That completes only if idle workers
        // keep claiming items: a worker holding a pre-cut span that
        // starts at item 0 would stall the rest of its span, and item 0
        // would time out.
        use std::sync::Condvar;
        use std::time::Duration;
        let n = 48usize;
        for threads in [2, 4] {
            let (count, ran) = (Mutex::new(0usize), Condvar::new());
            let out: Vec<usize> = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    (0..n)
                        .into_par_iter()
                        .map(|i| {
                            let mut c = count.lock().unwrap();
                            if i == 0 {
                                let wait = Duration::from_secs(10);
                                let (guard, t) =
                                    ran.wait_timeout_while(c, wait, |c| *c < n - 1).unwrap();
                                assert!(!t.timed_out(), "{threads} threads: items stalled");
                                c = guard;
                            }
                            *c += 1;
                            ran.notify_all();
                            i * 3 + 1
                        })
                        .collect()
                });
            assert_eq!(
                out,
                (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>(),
                "{threads} threads"
            );
            assert_eq!(
                *count.lock().unwrap(),
                n,
                "{threads} threads: each item ran once"
            );
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0u64; 64 * 7];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 100 + j) as u64;
            }
        });
        for (i, chunk) in data.chunks(7).enumerate() {
            for (j, &x) in chunk.iter().enumerate() {
                assert_eq!(x, (i * 100 + j) as u64);
            }
        }
    }

    #[test]
    fn reduce_is_thread_count_independent_for_associative_ops() {
        let sum = |n: usize| {
            ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
                .install(|| {
                    (0..10_000usize)
                        .into_par_iter()
                        .map(|x| x as u64)
                        .reduce(|| 0, |a, b| a + b)
                })
        };
        let expected: u64 = (0..10_000u64).sum();
        for n in [1, 2, 3, 8] {
            assert_eq!(sum(n), expected);
        }
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        // Outer parallel loop; inner loops must not explode thread counts
        // (smoke test: it finishes and results are correct).
        let out: Vec<u64> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                (0..100usize)
                    .into_par_iter()
                    .map(|j| (i * j) as u64)
                    .reduce(|| 0, |a, b| a + b)
            })
            .collect();
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (0..100).map(|j| (i * j) as u64).sum::<u64>());
        }
    }

    #[test]
    fn install_overrides_and_restores() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn thread_index_is_some_only_inside_workers() {
        assert_eq!(current_thread_index(), None);
        let seen: Vec<bool> = ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                (0..4usize)
                    .into_par_iter()
                    .map(|_| current_thread_index().is_some())
                    .collect()
            });
        assert!(seen.iter().all(|&inside| inside));
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn workers_never_carry_install_overrides() {
        // The invariant `fa_tensor::par`'s SWAP NOTE debug_assert encodes:
        // `install` overrides live on the calling thread only; pool
        // workers are fresh scoped threads with no override.
        assert!(!install_override_active());
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert!(install_override_active(), "override active on caller");
            let seen: Vec<(bool, bool)> = (0..2usize)
                .into_par_iter()
                .map(|_| (install_override_active(), current_thread_index().is_some()))
                .collect();
            for (override_active, on_worker) in seen {
                assert!(on_worker, "items run on flagged workers");
                assert!(!override_active, "workers never carry install overrides");
            }
        });
        assert!(!install_override_active());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn empty_and_single_item() {
        let v: Vec<u32> = (0..0u32).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let v: Vec<u32> = (0..1u32).into_par_iter().map(|x| x + 5).collect();
        assert_eq!(v, vec![5]);
    }
}

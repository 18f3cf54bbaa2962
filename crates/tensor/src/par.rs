//! The workspace's single parallelization policy.
//!
//! Every kernel that can fork onto the rayon pool — matmul row blocks,
//! attention query rows, GQA heads, fused-checksum queries — decides with
//! the predicates here, so the fork threshold is tuned in one place. The
//! guiding constraint: fault campaigns feed the simulator thousands of
//! tiny kernels per second, and those must stay on the calling thread;
//! long-sequence inference shapes must fork.

/// Minimum output rows before a matmul kernel forks row blocks.
pub const MATMUL_MIN_ROWS: usize = 64;

/// Row-block granularity matmul kernels hand to the pool.
pub const MATMUL_ROW_BLOCK: usize = 32;

/// Whether forking can win *at all* in the current context: the pool must
/// have more than one worker, and the caller must not already be on a
/// worker thread. Nested parallel calls run inline in this pool, so taking
/// the parallel entry from inside a worker pays the item-list
/// materialization for a guaranteed zero-way fork — on a 1-thread host
/// (`host_threads: 1` in `BENCH_kernels.json`) that pure overhead is how
/// the "parallel" flash2 path managed to measure *slower* than serial.
/// With this guard the parallel entry points collapse to exactly the
/// serial code path whenever no fork can happen.
///
/// SWAP NOTE (upstream rayon): the `current_thread_index` guard is tuned
/// to the offline shim, where `ThreadPool::install` runs its closure on
/// the *calling* thread and nested terminals run inline. Upstream rayon
/// runs `install` closures ON a pool worker (`current_thread_index()` is
/// `Some` there) and makes nested `par_iter` cheap via work stealing — so
/// when `[workspace.dependencies]` is switched to upstream, delete the
/// `current_thread_index` clause (keep the `current_num_threads` one) or
/// every `pool.install(|| kernel(..))` call site silently serializes.
/// Load balance needs no change on a swap: upstream rayon balances items
/// of unequal cost (sequences of unequal length in one engine fork) by
/// work stealing, and the shim's `collect` / `for_each` approximate it —
/// workers claim items one at a time from a shared counter instead of
/// taking pre-cut contiguous spans.
#[inline]
fn forking_possible() -> bool {
    // SWAP NOTE enforcement: under the shim, `install` overrides live on
    // the calling thread and pool workers are fresh scoped threads, so a
    // worker carrying an install override is impossible — that combination
    // is the upstream-rayon execution model (where `install` runs ON a
    // worker), i.e. exactly the configuration in which the
    // `current_thread_index` clause below silently serializes every
    // `pool.install(|| kernel)` call site. `install_override_active` is
    // shim-only API, so an upstream swap that skips the SWAP NOTE fails
    // loudly at compile time right here; if the shim's execution model
    // itself ever drifts, the assert fires in debug runs.
    debug_assert!(
        !(rayon::current_thread_index().is_some() && rayon::install_override_active()),
        "fork policy: pool worker carries an install override — `install` no longer \
         runs on the calling thread; drop the `current_thread_index` clause (SWAP NOTE)"
    );
    rayon::current_num_threads() > 1 && rayon::current_thread_index().is_none()
}

/// Whether an attention-style kernel over `rows` independent units, each
/// touching `keys × d` elements, is worth forking onto the rayon pool.
#[inline]
pub fn worth_parallelizing(rows: usize, keys: usize, d: usize) -> bool {
    rows >= 16 && rows * keys * d >= 1 << 15 && forking_possible()
}

/// Whether a matmul over `rows` output rows is worth forking.
#[inline]
pub fn worth_parallelizing_matmul(rows: usize) -> bool {
    rows >= MATMUL_MIN_ROWS && forking_possible()
}

/// Whether a fork over `units` independent work items, each touching
/// roughly `elems_per_unit` elements, is worth it — the serving engine's
/// one fork predicate (`fa_attention::batch`, where a unit is one
/// (panel, kv head) pass weighed by the largest panel's (query, visible
/// row, lane) count). Unlike [`worth_parallelizing`] there is no minimum
/// unit count beyond "more than one": a prefill chunk has few, very
/// large units, where even a 2-way fork pays for itself. The 2¹⁶ floor
/// keeps small decode steps on the calling thread (the offline rayon
/// shim starts scoped OS threads on every fork): one sequence at 4 heads,
/// d = 64 and 160 cached rows (≈41k) stays serial, while eight such
/// sequences (≈264k) and every Llama-shape prefill chunk fork.
#[inline]
pub fn worth_parallelizing_units(units: usize, elems_per_unit: usize) -> bool {
    units >= 2 && units.saturating_mul(elems_per_unit) >= 1 << 16 && forking_possible()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_shapes_stay_serial() {
        // Simulator-sized shapes must never fork, whatever the host.
        assert!(!worth_parallelizing(16, 16, 8));
        assert!(!worth_parallelizing(4, 1024, 64));
        assert!(!worth_parallelizing_matmul(16));
    }

    #[test]
    fn inference_shapes_fork_on_multicore_hosts() {
        let forked = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                (
                    worth_parallelizing(1024, 1024, 64),
                    worth_parallelizing_matmul(256),
                )
            });
        assert_eq!(forked, (true, true));
    }

    #[test]
    fn single_thread_pools_never_fork() {
        let forked = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| worth_parallelizing(1024, 1024, 64));
        assert!(!forked);
    }

    #[test]
    fn unit_threshold_forks_few_huge_units_but_not_tiny_ones() {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                // Two 4096-token prompt×head prefill passes: must fork.
                assert!(worth_parallelizing_units(2, 4096 * 4096 / 2 * 64));
                // A single unit, or simulator-sized units, must not.
                assert!(!worth_parallelizing_units(1, 1 << 30));
                assert!(!worth_parallelizing_units(8, 16));
                // Engine decode at 4 heads, d = 64: one sequence at 160
                // rows stays serial; a batch of 8 at 129 rows forks.
                assert!(!worth_parallelizing_units(4, 160 * 64));
                assert!(worth_parallelizing_units(32, 129 * 64));
                // A 32-token Llama prefill chunk (8 kv heads, 4 query
                // heads each, d = 128) forks.
                assert!(worth_parallelizing_units(8, 32 * 32 / 2 * 4 * 128));
            });
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| worth_parallelizing_units(2, 1 << 30));
        assert!(!one, "1-thread pools never fork");
    }

    #[test]
    fn worker_threads_never_fork_again() {
        // Inside a pool worker, nested parallel calls run inline — the
        // threshold must send them down the serial entry.
        use rayon::prelude::*;
        let nested: Vec<(bool, bool)> = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap()
            .install(|| {
                (0..4usize)
                    .into_par_iter()
                    .map(|_| {
                        (
                            worth_parallelizing(1024, 1024, 64),
                            worth_parallelizing_matmul(256),
                        )
                    })
                    .collect()
            });
        for (attn, mm) in nested {
            assert!(!attn && !mm);
        }
    }
}

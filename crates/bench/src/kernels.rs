//! Kernel-layer benchmark: the perf trajectory record for the blocked
//! matmul, parallel FlashAttention-2, the fused online checksum, the SIMD
//! dot/axpy inner kernels and the batched KV-cache decode engine.
//!
//! [`measure`] times each kernel against its frozen seed baseline and
//! [`KernelBenchReport::to_json`] renders the result as the
//! `BENCH_kernels.json` artifact `run_all` emits, so speedups are tracked
//! across PRs on whatever host CI runs on (`host_threads` is recorded —
//! parallel speedups are only meaningful on multi-core hosts). Quick mode
//! (CI smoke) shrinks problem sizes and drops the largest matmul/flash2
//! points; the canonical committed JSON comes from a full run.

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::decode::DecodeSession;
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::{flash2, AttentionConfig, HeadTopology};
use fa_json::{obj, Json};
use fa_numerics::BF16;
use fa_tensor::{ops, random::ElementDist, Matrix};
use flash_abft::decode::CheckedDecodeSession;
use std::time::Instant;

/// One kernel-vs-baseline measurement.
#[derive(Clone, Copy, Debug)]
pub struct KernelTiming {
    /// Baseline (seed implementation) time, milliseconds.
    pub baseline_ms: f64,
    /// Optimized kernel time, milliseconds.
    pub optimized_ms: f64,
}

impl KernelTiming {
    /// Baseline time over optimized time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.optimized_ms
    }
}

/// Matmul timings at one problem size.
#[derive(Clone, Debug)]
pub struct MatmulPoint {
    /// Square problem size.
    pub n: usize,
    /// BF16 datapath matmul (per-MAC rounding) vs the seed triple loop.
    pub bf16: KernelTiming,
    /// f64 matmul vs the seed triple loop.
    pub f64_mm: KernelTiming,
    /// BF16 matmul with widening f64 accumulation vs its seed loop.
    pub f64_acc_bf16: KernelTiming,
    /// Blocked BF16 matmul throughput, GFLOP/s (2·n³ ops).
    pub bf16_gflops: f64,
}

/// Flash2 + fused-checksum timings at one sequence length.
#[derive(Clone, Debug)]
pub struct Flash2Point {
    /// Sequence length.
    pub seq_len: usize,
    /// Parallel flash2 vs the serial kernel (≈1.0 on single-core hosts).
    pub parallel: KernelTiming,
    /// Parallel flash2 throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Fused checksum kernel time vs unchecked flash2 (same pass count).
    pub fused_checksum: KernelTiming,
}

impl Flash2Point {
    /// Fused-checksum overhead over unchecked flash2, percent.
    pub fn checksum_overhead_pct(&self) -> f64 {
        (self.fused_checksum.optimized_ms / self.fused_checksum.baseline_ms - 1.0) * 100.0
    }
}

/// SIMD dot-product timings vs the seed's sequential add chain.
#[derive(Clone, Debug)]
pub struct DotBench {
    /// Slice length.
    pub len: usize,
    /// f64 slices.
    pub f64_dot: KernelTiming,
    /// BF16 slices (widening conversions inside the kernel).
    pub bf16_dot: KernelTiming,
}

/// Single-sequence decode throughput (the per-sequence serving path).
#[derive(Clone, Debug)]
pub struct DecodeSingle {
    /// Unchecked per-head `DecodeSession` decode, aggregate tokens/s.
    pub unchecked_tokens_per_s: f64,
    /// Checked per-head `CheckedDecodeSession` decode, aggregate tokens/s.
    pub checked_tokens_per_s: f64,
}

/// Batched checked decode vs the per-sequence-loop baseline at one batch
/// size.
#[derive(Clone, Debug)]
pub struct DecodeBatchPoint {
    /// Number of concurrent sequences.
    pub batch: usize,
    /// Per-sequence loop of `CheckedDecodeSession`s (today's checked
    /// serving path), milliseconds for the whole decode.
    pub baseline_ms: f64,
    /// `DecodeBatch::step_decode` (checked), milliseconds.
    pub batched_ms: f64,
    /// Baseline aggregate throughput, tokens/s.
    pub baseline_tokens_per_s: f64,
    /// Batched aggregate throughput, tokens/s.
    pub batched_tokens_per_s: f64,
    /// Checked `step_decode` vs `step_all_unchecked`, percent.
    pub checked_overhead_pct: f64,
}

impl DecodeBatchPoint {
    /// Baseline time over batched time.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms / self.batched_ms
    }
}

/// One cache-format leg of the continuous-batching sweep.
#[derive(Clone, Copy, Debug)]
pub struct ContinuousCachePoint {
    /// End-to-end time: initial batched admission, every decode step,
    /// and all mid-flight retire+admit churn, milliseconds.
    pub total_ms: f64,
    /// Aggregate serving throughput: decode tokens **plus** admitted
    /// prompt tokens (all checksum-covered), per second.
    pub tokens_per_s: f64,
    /// Decode tokens alone per second (comparable to `decode_batched`,
    /// though here the time also pays for churn admissions).
    pub decode_tokens_per_s: f64,
    /// Mean analytic KV bytes streamed per decode step
    /// (`Σ_live seq_len · width · 2 sides · elem_bytes`) — the
    /// bandwidth-bound quantity the cache element format halves.
    pub bytes_per_step: f64,
}

/// Continuous batching at serving scale: a steady-state batch decoded
/// under the fused checksum with periodic mid-flight retire+admit churn,
/// prompts checked through the batched prefill, and retired sequences'
/// cache blocks recycled through the free list.
#[derive(Clone, Debug)]
pub struct DecodeContinuous {
    /// Steady-state live sequences.
    pub batch: usize,
    /// Decode steps timed.
    pub steps: usize,
    /// Every `churn_every` steps the oldest sequence is retired and a
    /// fresh prompt admitted in its place.
    pub churn_every: usize,
    /// f64 KV cache leg.
    pub f64_cache: ContinuousCachePoint,
    /// BF16 KV cache leg (half the streamed bytes per step).
    pub bf16_cache: ContinuousCachePoint,
    /// Block claims served from the free list during one run — evidence
    /// the churn reuses retired sequences' blocks.
    pub recycled_blocks: usize,
    /// Arena size (blocks) at the end of a run: bounded by live tokens,
    /// not total traffic.
    pub arena_blocks: usize,
}

/// The mixed-format policy sweep: prompt-heavy continuous serving
/// (chunked admission interleaved with decode, retire+enqueue churn)
/// measured under the three `KvFormat` policies on the same traffic —
/// pure f64 (fast admission, heavy decode bytes), pure BF16 (light
/// decode bytes), and `Mixed` (f64 prefill burst → BF16 steady state,
/// the both-ends lever).
#[derive(Clone, Debug)]
pub struct DecodeMixedFormat {
    /// Steady-state live sequences.
    pub batch: usize,
    /// Decode steps timed.
    pub steps: usize,
    /// Every `churn_every` steps the oldest sequence retires and a fresh
    /// prompt is **enqueued** (admitted chunk by chunk by later steps).
    pub churn_every: usize,
    /// Prompt tokens each pending prompt advances per step.
    pub prefill_chunk: usize,
    /// Cache block rows (the demotion/eviction granularity).
    pub block_rows: usize,
    /// Full native blocks retained per sequence under `Mixed`.
    pub burst_blocks: usize,
    /// `KvFormat::F64` leg.
    pub f64_cache: ContinuousCachePoint,
    /// `KvFormat::Bf16` leg.
    pub bf16_cache: ContinuousCachePoint,
    /// `KvFormat::Mixed { burst_blocks }` leg.
    pub mixed_cache: ContinuousCachePoint,
    /// Block rows of the steady-decode legs below (the `decode_batched`
    /// / `decode_kv_bf16` committed-point geometry, for apples-to-apples
    /// comparison across PRs).
    pub steady_block_rows: usize,
    /// Burst of the mixed steady leg: 0 = every *full* block demotes as
    /// it ages; the partial block being filled is the f64 burst fresh
    /// tokens ride.
    pub steady_burst_blocks: usize,
    /// Steady-state decode under the `decode_kv_bf16` harness (same
    /// traffic, prefill untimed, decode steps timed — directly comparable
    /// to the committed decode points), per format.
    pub f64_steady: SteadyDecodePoint,
    /// Pure-BF16 steady decode.
    pub bf16_steady: SteadyDecodePoint,
    /// Mixed-format steady decode.
    pub mixed_steady: SteadyDecodePoint,
    /// Rows demoted across the mixed run (summed over live sequences at
    /// the end — evidence the burst actually ages out).
    pub mixed_demoted_rows: usize,
    /// Native + BF16 arena blocks at the end of the mixed run.
    pub mixed_arena_blocks: usize,
    /// BF16-arena blocks at the end of the mixed run.
    pub mixed_arena_blocks16: usize,
}

/// One steady-state decode measurement: aggregate tokens/s over pure
/// batched decode steps, plus the mean analytic KV bytes those steps
/// stream.
#[derive(Clone, Copy, Debug)]
pub struct SteadyDecodePoint {
    /// Aggregate decode throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Mean analytic KV bytes streamed per decode step.
    pub bytes_per_step: f64,
}

/// The sliding-window eviction sweep: long-running decode with and
/// without `EvictionPolicy::SlidingWindow`. Eviction masks and frees
/// out-of-window blocks, so the windowed leg streams a **bounded**
/// number of bytes per step and holds a bounded arena while the
/// retain-all leg keeps growing with the history.
#[derive(Clone, Debug)]
pub struct DecodeSlidingWindow {
    /// Live sequences.
    pub batch: usize,
    /// Decode steps timed.
    pub steps: usize,
    /// Cache block rows.
    pub block_rows: usize,
    /// Whole blocks retained behind the newest position.
    pub window_blocks: usize,
    /// Full-history leg (`RetainAll`, no mask).
    pub retain_all: ContinuousCachePoint,
    /// Windowed leg (`SlidingWindow { window_blocks }`).
    pub sliding: ContinuousCachePoint,
    /// Rows evicted per sequence by the end of the windowed run.
    pub evicted_rows: usize,
    /// Arena blocks held by the retain-all leg at the end.
    pub retain_arena_blocks: usize,
    /// Arena blocks held by the windowed leg at the end (bounded).
    pub sliding_arena_blocks: usize,
}

/// One group-size leg of the GQA decode sweep: the same query-head count
/// and traffic, with `kv_heads = query_heads / group_size` shared K/V
/// streams in the paged cache.
#[derive(Clone, Copy, Debug)]
pub struct DecodeGqaPoint {
    /// Query heads sharing each kv head (1 = the MHA reference leg).
    pub group_size: usize,
    /// KV heads the cache stores (`query_heads / group_size`).
    pub kv_heads: usize,
    /// Checked `step_decode` time for the whole decode, milliseconds.
    pub checked_ms: f64,
    /// Aggregate decode throughput, tokens/s.
    pub tokens_per_s: f64,
    /// Checked decode time with the same topology over a BF16 KV cache
    /// (the grouped + narrowed serving configuration), milliseconds.
    pub bf16_checked_ms: f64,
    /// BF16-cache aggregate decode throughput, tokens/s.
    pub bf16_tokens_per_s: f64,
    /// Mean analytic KV bytes streamed per decode step — divided by
    /// `group_size` relative to the MHA leg, since the cache holds one
    /// stream per kv head.
    pub bytes_per_step: f64,
    /// Arena blocks at the end of the run (block *rows* are shared; each
    /// row is `kv_heads · head_dim` wide, so arena bytes shrink with the
    /// group too).
    pub arena_blocks: usize,
}

/// The GQA-native serving sweep: batch-32 checked decode at fixed query
/// heads across group sizes. On a KV-bandwidth-bound host the grouped
/// legs win by streaming `1/group_size` of the bytes per step while
/// computing the same number of query-head passes.
#[derive(Clone, Debug)]
pub struct DecodeGqa {
    /// Concurrent sequences.
    pub batch: usize,
    /// Decode steps timed.
    pub steps: usize,
    /// Prompt tokens prefilled before timing.
    pub prefill: usize,
    /// Query heads in every leg.
    pub query_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// One leg per group size (1, 4, 8), interleaved round-robin.
    pub points: Vec<DecodeGqaPoint>,
}

/// Checked batched decode with a BF16 KV cache vs the f64 cache (the
/// halved-bandwidth serving configuration).
#[derive(Clone, Debug)]
pub struct DecodeKvBf16 {
    /// Number of concurrent sequences.
    pub batch: usize,
    /// Checked `step_decode` with the f64 cache, milliseconds.
    pub f64_cache_ms: f64,
    /// Checked `step_decode` with the BF16 cache, milliseconds.
    pub bf16_cache_ms: f64,
    /// BF16-cache aggregate throughput, tokens/s.
    pub bf16_tokens_per_s: f64,
}

impl DecodeKvBf16 {
    /// f64-cache time over BF16-cache time.
    pub fn speedup(&self) -> f64 {
        self.f64_cache_ms / self.bf16_cache_ms
    }
}

/// Decode benchmark geometry (shared by single and batched sections).
#[derive(Clone, Copy, Debug)]
pub struct DecodeShape {
    /// Per-head dimension.
    pub head_dim: usize,
    /// Heads per sequence.
    pub heads: usize,
    /// Prompt tokens pre-filled before timing.
    pub prefill: usize,
    /// Decode steps timed.
    pub steps: usize,
}

/// Shared-block scoring at one packed-query count: one K-panel sweep
/// feeding all queries ([`ops::dot_then_scale_rows_multi`], rows outer /
/// queries inner) vs one [`ops::dot_then_scale_rows`] GEMV sweep per
/// query — the kernel under the shared-prefix decode win.
#[derive(Clone, Copy, Debug)]
pub struct MultiScorePoint {
    /// Queries packed into the multi sweep (readers of the block).
    pub queries: usize,
    /// Per-query GEMV sweeps, milliseconds.
    pub gemv_ms: f64,
    /// Single rows-outer multi sweep, milliseconds.
    pub multi_ms: f64,
    /// Both kernels produced bit-identical score panels (the sharing
    /// contract: same `dot_f64` per (query, row)).
    pub bitwise_match: bool,
}

impl MultiScorePoint {
    /// GEMV time over multi-sweep time.
    pub fn speedup(&self) -> f64 {
        self.gemv_ms / self.multi_ms
    }
}

/// The prefix-sharing kernel sweep: score a fixed K panel against 1, 4,
/// 16, and 32 packed queries both ways.
#[derive(Clone, Debug)]
pub struct PrefixSharingKernel {
    /// Query / key row width.
    pub d: usize,
    /// Rows in the scored K panel.
    pub n_rows: usize,
    /// Sweeps per timed call (amortizes timer overhead).
    pub iters: usize,
    /// One measurement per packed-query count.
    pub points: Vec<MultiScorePoint>,
}

/// The full kernel-layer benchmark result.
#[derive(Clone, Debug)]
pub struct KernelBenchReport {
    /// Worker threads available to the rayon pool on this host.
    pub host_threads: usize,
    /// Matmul kernels at each measured size (128 and, in full runs, 256).
    pub matmul: Vec<MatmulPoint>,
    /// Flash2 + fused checksum at each measured sequence length.
    pub flash2: Vec<Flash2Point>,
    /// SIMD dot product vs the sequential seed loop.
    pub dot_simd: DotBench,
    /// Decode geometry.
    pub decode_shape: DecodeShape,
    /// Single-sequence decode throughput.
    pub decode_single: DecodeSingle,
    /// Batched decode at each batch size.
    pub decode_batched: Vec<DecodeBatchPoint>,
    /// BF16-KV-cache decode at the largest batch size.
    pub decode_kv_bf16: DecodeKvBf16,
    /// Continuous batching with admit/retire churn at the largest batch
    /// size.
    pub decode_continuous: DecodeContinuous,
    /// KV-format policy sweep under prompt-heavy chunked-admission
    /// serving.
    pub decode_mixed_format: DecodeMixedFormat,
    /// Sliding-window eviction vs retain-all decode.
    pub decode_sliding_window: DecodeSlidingWindow,
    /// GQA decode sweep across group sizes at fixed query heads.
    pub decode_gqa: DecodeGqa,
    /// Shared-block multi-query scoring vs per-query GEMV.
    pub prefix_sharing: PrefixSharingKernel,
}

impl KernelBenchReport {
    /// Renders the report as the `BENCH_kernels.json` document.
    pub fn to_json(&self) -> String {
        let (shape, prefill) = (self.decode_shape, self.decode_shape.prefill);
        let (single, kv) = (&self.decode_single, &self.decode_kv_bf16);
        let (cont, mixed) = (&self.decode_continuous, &self.decode_mixed_format);
        let (sw, gq) = (&self.decode_sliding_window, &self.decode_gqa);
        let ps = &self.prefix_sharing;
        let matmul = self.matmul.iter().map(|p| {
            obj! {
                "n" => p.n,
                "bf16" => timing_json(&p.bf16),
                "f64" => timing_json(&p.f64_mm),
                "f64_acc_bf16" => timing_json(&p.f64_acc_bf16),
                "bf16_gflops" => Json::fixed(p.bf16_gflops, 3),
            }
        });
        let flash2 = self.flash2.iter().map(|p| {
            obj! {
                "seq_len" => p.seq_len,
                "parallel_vs_serial" => timing_json(&p.parallel),
                "tokens_per_s" => Json::fixed(p.tokens_per_s, 1),
                "fused_checksum" => obj! {
                    "vs_unchecked_flash2" => timing_json(&p.fused_checksum),
                    "overhead_pct" => Json::fixed(p.checksum_overhead_pct(), 2),
                },
            }
        });
        let batched = self.decode_batched.iter().map(|p| {
            obj! {
                "batch" => p.batch,
                "baseline_ms" => Json::fixed(p.baseline_ms, 3),
                "batched_ms" => Json::fixed(p.batched_ms, 3),
                "baseline_tokens_per_s" => Json::fixed(p.baseline_tokens_per_s, 1),
                "batched_tokens_per_s" => Json::fixed(p.batched_tokens_per_s, 1),
                "speedup" => Json::fixed(p.speedup(), 2),
                "checked_overhead_pct" => Json::fixed(p.checked_overhead_pct, 2),
            }
        });
        let gqa = gq.points.iter().map(|p| {
            obj! {
                "group_size" => p.group_size, "kv_heads" => p.kv_heads,
                "checked_ms" => Json::fixed(p.checked_ms, 3),
                "tokens_per_s" => Json::fixed(p.tokens_per_s, 1),
                "bf16_checked_ms" => Json::fixed(p.bf16_checked_ms, 3),
                "bf16_tokens_per_s" => Json::fixed(p.bf16_tokens_per_s, 1),
                "bytes_per_step" => Json::fixed(p.bytes_per_step, 0),
                "arena_blocks" => p.arena_blocks,
            }
        });
        let multi = ps.points.iter().map(|p| {
            obj! {
                "queries" => p.queries,
                "gemv_ms" => Json::fixed(p.gemv_ms, 3),
                "multi_ms" => Json::fixed(p.multi_ms, 3),
                "speedup" => Json::fixed(p.speedup(), 2),
                "bitwise_match" => p.bitwise_match,
            }
        });
        obj! {
            "host_threads" => self.host_threads,
            "matmul" => Json::Arr(matmul.collect()),
            "flash2" => Json::Arr(flash2.collect()),
            "dot_simd" => obj! {
                "len" => self.dot_simd.len,
                "f64" => timing_json(&self.dot_simd.f64_dot),
                "bf16" => timing_json(&self.dot_simd.bf16_dot),
            },
            "decode_single" => obj! {
                "head_dim" => shape.head_dim, "heads" => shape.heads,
                "prefill" => prefill, "steps" => shape.steps,
                "unchecked_tokens_per_s" => Json::fixed(single.unchecked_tokens_per_s, 1),
                "checked_tokens_per_s" => Json::fixed(single.checked_tokens_per_s, 1),
            },
            "decode_batched" => obj! {
                "head_dim" => shape.head_dim, "heads" => shape.heads,
                "prefill" => prefill, "steps" => shape.steps,
                "points" => Json::Arr(batched.collect()),
            },
            "decode_kv_bf16" => obj! {
                "batch" => kv.batch,
                "f64_cache_ms" => Json::fixed(kv.f64_cache_ms, 3),
                "bf16_cache_ms" => Json::fixed(kv.bf16_cache_ms, 3),
                "speedup" => Json::fixed(kv.speedup(), 2),
                "bf16_tokens_per_s" => Json::fixed(kv.bf16_tokens_per_s, 1),
            },
            "decode_continuous" => obj! {
                "batch" => cont.batch, "steps" => cont.steps,
                "churn_every" => cont.churn_every, "prefill" => prefill,
                "f64" => continuous_json(&cont.f64_cache),
                "bf16" => continuous_json(&cont.bf16_cache),
                "recycled_blocks" => cont.recycled_blocks, "arena_blocks" => cont.arena_blocks,
            },
            "decode_mixed_format" => obj! {
                "batch" => mixed.batch, "steps" => mixed.steps,
                "churn_every" => mixed.churn_every, "prefill" => prefill,
                "prefill_chunk" => mixed.prefill_chunk, "block_rows" => mixed.block_rows,
                "burst_blocks" => mixed.burst_blocks,
                "f64" => continuous_json(&mixed.f64_cache),
                "bf16" => continuous_json(&mixed.bf16_cache),
                "mixed" => continuous_json(&mixed.mixed_cache),
                "steady_block_rows" => mixed.steady_block_rows,
                "steady_burst_blocks" => mixed.steady_burst_blocks,
                "f64_steady" => steady_json(&mixed.f64_steady),
                "bf16_steady" => steady_json(&mixed.bf16_steady),
                "mixed_steady" => steady_json(&mixed.mixed_steady),
                "mixed_demoted_rows" => mixed.mixed_demoted_rows,
                "mixed_arena_blocks" => mixed.mixed_arena_blocks,
                "mixed_arena_blocks16" => mixed.mixed_arena_blocks16,
            },
            "decode_sliding_window" => obj! {
                "batch" => sw.batch, "steps" => sw.steps, "prefill" => prefill,
                "block_rows" => sw.block_rows, "window_blocks" => sw.window_blocks,
                "retain_all" => continuous_json(&sw.retain_all),
                "sliding_window" => continuous_json(&sw.sliding),
                "evicted_rows" => sw.evicted_rows,
                "retain_arena_blocks" => sw.retain_arena_blocks,
                "sliding_arena_blocks" => sw.sliding_arena_blocks,
            },
            "decode_gqa" => obj! {
                "batch" => gq.batch, "steps" => gq.steps, "prefill" => gq.prefill,
                "query_heads" => gq.query_heads, "head_dim" => gq.head_dim,
                "points" => Json::Arr(gqa.collect()),
            },
            "prefix_sharing" => obj! {
                "d" => ps.d, "n_rows" => ps.n_rows, "iters" => ps.iters,
                "points" => Json::Arr(multi.collect()),
            },
        }
        .write()
    }
}

fn continuous_json(p: &ContinuousCachePoint) -> Json {
    obj! {
        "total_ms" => Json::fixed(p.total_ms, 3),
        "tokens_per_s" => Json::fixed(p.tokens_per_s, 1),
        "decode_tokens_per_s" => Json::fixed(p.decode_tokens_per_s, 1),
        "bytes_per_step" => Json::fixed(p.bytes_per_step, 0),
    }
}

fn steady_json(p: &SteadyDecodePoint) -> Json {
    obj! {
        "tokens_per_s" => Json::fixed(p.tokens_per_s, 1),
        "bytes_per_step" => Json::fixed(p.bytes_per_step, 0),
    }
}

fn timing_json(t: &KernelTiming) -> Json {
    obj! {
        "baseline_ms" => Json::fixed(t.baseline_ms, 3),
        "optimized_ms" => Json::fixed(t.optimized_ms, 3),
        "speedup" => Json::fixed(t.speedup(), 2),
    }
}

/// Best-of-`reps` wall-clock milliseconds for `f` (after one warmup call).
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn measure_matmul(n: usize, reps: usize) -> MatmulPoint {
    let af = Matrix::<f64>::random_seeded(n, n, ElementDist::default(), 1);
    let bf = Matrix::<f64>::random_seeded(n, n, ElementDist::default(), 2);
    let ab: Matrix<BF16> = af.cast();
    let bb: Matrix<BF16> = bf.cast();

    let bf16 = KernelTiming {
        baseline_ms: time_ms(reps, || ops::matmul_reference(&ab, &bb)),
        optimized_ms: time_ms(reps, || ab.matmul(&bb)),
    };
    let f64_mm = KernelTiming {
        baseline_ms: time_ms(reps, || ops::matmul_reference(&af, &bf)),
        optimized_ms: time_ms(reps, || af.matmul(&bf)),
    };
    let f64_acc_bf16 = KernelTiming {
        baseline_ms: time_ms(reps, || ops::matmul_f64_acc_reference(&ab, &bb)),
        optimized_ms: time_ms(reps, || ops::matmul_f64_acc(&ab, &bb)),
    };
    let flops = 2.0 * (n as f64).powi(3);
    let bf16_gflops = flops / (bf16.optimized_ms * 1e-3) / 1e9;
    MatmulPoint {
        n,
        bf16,
        f64_mm,
        f64_acc_bf16,
        bf16_gflops,
    }
}

fn measure_flash2(seq_len: usize, reps: usize) -> Flash2Point {
    let d = 64;
    let q = Matrix::<f64>::random_seeded(seq_len, d, ElementDist::default(), 10);
    let k = Matrix::<f64>::random_seeded(seq_len, d, ElementDist::default(), 11);
    let v = Matrix::<f64>::random_seeded(seq_len, d, ElementDist::default(), 12);
    let cfg = AttentionConfig::new(d);

    // Interleave the three variants round-robin (see `timed_once`): the
    // checksum overhead is a small ratio of two large numbers, and
    // measuring the variants in separate blocks lets host-speed drift
    // masquerade as multiple points of overhead. Extra rounds here (the
    // section is cheap) because both ratios are drift-dominated on a
    // shared core — on a 1-thread pool the "parallel" entry point IS the
    // serial code path, so parallel_vs_serial measures pure container
    // drift and should read ≈1.0.
    let reps = reps + 2;
    let (mut serial_ms, mut parallel_ms, mut checked_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for rep in 0..=reps {
        let a = timed_once(|| (), |_| flash2::attention_serial(&q, &k, &v, &cfg));
        let b = timed_once(|| (), |_| flash2::attention(&q, &k, &v, &cfg));
        let c = timed_once(
            || (),
            |_| flash_abft::flash2_with_checksum(&q, &k, &v, &cfg),
        );
        if rep > 0 {
            serial_ms = serial_ms.min(a);
            parallel_ms = parallel_ms.min(b);
            checked_ms = checked_ms.min(c);
        }
    }
    let parallel = KernelTiming {
        baseline_ms: serial_ms,
        optimized_ms: parallel_ms,
    };
    Flash2Point {
        seq_len,
        parallel,
        tokens_per_s: seq_len as f64 / (parallel_ms * 1e-3),
        fused_checksum: KernelTiming {
            baseline_ms: parallel_ms,
            optimized_ms: checked_ms,
        },
    }
}

fn measure_dot(len: usize, iters: usize, reps: usize) -> DotBench {
    let a = Matrix::<f64>::random_seeded(1, len, ElementDist::default(), 21);
    let b = Matrix::<f64>::random_seeded(1, len, ElementDist::default(), 22);
    let (af, bf) = (a.as_slice(), b.as_slice());
    let ab: Matrix<BF16> = a.cast();
    let bb: Matrix<BF16> = b.cast();
    let (a16, b16) = (ab.as_slice(), bb.as_slice());

    let f64_dot = KernelTiming {
        baseline_ms: time_ms(reps, || {
            (0..iters)
                .map(|_| ops::dot_f64_reference(std::hint::black_box(af), bf))
                .sum::<f64>()
        }),
        optimized_ms: time_ms(reps, || {
            (0..iters)
                .map(|_| ops::dot_f64(std::hint::black_box(af), bf))
                .sum::<f64>()
        }),
    };
    let bf16_dot = KernelTiming {
        baseline_ms: time_ms(reps, || {
            (0..iters)
                .map(|_| ops::dot_f64_reference(std::hint::black_box(a16), b16))
                .sum::<f64>()
        }),
        optimized_ms: time_ms(reps, || {
            (0..iters)
                .map(|_| ops::dot_f64(std::hint::black_box(a16), b16))
                .sum::<f64>()
        }),
    };
    DotBench {
        len,
        f64_dot,
        bf16_dot,
    }
}

/// Pre-generated decode traffic for `batch` sequences — packed batch-row
/// matrices for the engine, per-(step, sequence, head) slices for the
/// per-sequence baselines, per-(sequence, head) prompt matrices — so no
/// data generation, widening or slicing lands inside a timed region.
struct DecodeInputs {
    batch: usize,
    heads: usize,
    /// Packed `batch × model_dim` inputs, one per step.
    qs: Vec<Matrix<f64>>,
    ks: Vec<Matrix<f64>>,
    vs: Vec<Matrix<f64>>,
    /// Packed prompts, one per sequence.
    k_prompt: Vec<Matrix<f64>>,
    v_prompt: Vec<Matrix<f64>>,
    /// Per-head slices, indexed `(t·batch + s)·heads + h`.
    q_sliced: Vec<Vec<f64>>,
    k_sliced: Vec<Vec<f64>>,
    v_sliced: Vec<Vec<f64>>,
    /// Per-head prompts, indexed `s·heads + h`.
    k_prompt_h: Vec<Matrix<f64>>,
    v_prompt_h: Vec<Matrix<f64>>,
}

/// Extracts head `h` of an `N × model_dim` matrix as an `N × d` matrix.
fn head_matrix(m: &Matrix<f64>, h: usize, d: usize) -> Matrix<f64> {
    Matrix::from_fn(m.rows(), d, |r, c| m[(r, h * d + c)])
}

fn decode_inputs(shape: DecodeShape, batch: usize) -> DecodeInputs {
    let d = shape.head_dim;
    let dim = shape.heads * d;
    let mk = |seed: u64, rows: usize| {
        Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), seed)
    };
    let qs: Vec<_> = (0..shape.steps)
        .map(|t| mk(3000 + t as u64, batch))
        .collect();
    let ks: Vec<_> = (0..shape.steps)
        .map(|t| mk(4000 + t as u64, batch))
        .collect();
    let vs: Vec<_> = (0..shape.steps)
        .map(|t| mk(5000 + t as u64, batch))
        .collect();
    let k_prompt: Vec<_> = (0..batch)
        .map(|s| mk(6000 + s as u64, shape.prefill))
        .collect();
    let v_prompt: Vec<_> = (0..batch)
        .map(|s| mk(7000 + s as u64, shape.prefill))
        .collect();
    let slice_all = |ms: &[Matrix<f64>]| {
        let mut out = Vec::with_capacity(shape.steps * batch * shape.heads);
        for m in ms {
            for s in 0..batch {
                for h in 0..shape.heads {
                    out.push(m.row(s)[h * d..(h + 1) * d].to_vec());
                }
            }
        }
        out
    };
    let prompt_heads = |ms: &[Matrix<f64>]| {
        let mut out = Vec::with_capacity(batch * shape.heads);
        for m in ms {
            for h in 0..shape.heads {
                out.push(head_matrix(m, h, d));
            }
        }
        out
    };
    DecodeInputs {
        batch,
        heads: shape.heads,
        q_sliced: slice_all(&qs),
        k_sliced: slice_all(&ks),
        v_sliced: slice_all(&vs),
        k_prompt_h: prompt_heads(&k_prompt),
        v_prompt_h: prompt_heads(&v_prompt),
        qs,
        ks,
        vs,
        k_prompt,
        v_prompt,
    }
}

impl DecodeInputs {
    fn sliced(&self, t: usize, s: usize, h: usize) -> (&[f64], &[f64], &[f64]) {
        let idx = (t * self.batch + s) * self.heads + h;
        (
            &self.q_sliced[idx],
            &self.k_sliced[idx],
            &self.v_sliced[idx],
        )
    }
}

/// One timed decode run: `setup()` rebuilds fresh state (decode mutates
/// its cache, so state cannot be reused across runs; setup stays
/// untimed), `run` is measured. Decode variants are compared by
/// *interleaving* these single-shot measurements round-robin — on
/// shared/throttled hosts a slow phase then biases every variant equally
/// instead of poisoning whichever one it landed on — and taking the best
/// round per variant.
fn timed_once<S, R>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> R) -> f64 {
    let mut state = setup();
    let start = Instant::now();
    std::hint::black_box(run(&mut state));
    start.elapsed().as_secs_f64() * 1e3
}

/// The per-sequence-loop baseline: one `CheckedDecodeSession` per
/// (sequence, head), prefilled, then — like any real serving loop — all
/// sequences advanced one token per step (step-major order; tokens
/// depend on previous outputs, so steps cannot be batched per sequence).
/// This is the per-sequence checked serving path: the same SIMD inner
/// kernels as the batched engine (bit-identical, by the property tests)
/// but with per-row cache allocations and one kernel invocation per
/// sequence×head.
fn baseline_sessions(shape: DecodeShape, inputs: &DecodeInputs) -> Vec<CheckedDecodeSession> {
    let head_cfg = AttentionConfig::new(shape.head_dim);
    let mut sessions = Vec::with_capacity(inputs.batch * shape.heads);
    for s in 0..inputs.batch {
        for h in 0..shape.heads {
            let mut session = CheckedDecodeSession::new(head_cfg);
            session.prefill(
                &inputs.k_prompt_h[s * shape.heads + h],
                &inputs.v_prompt_h[s * shape.heads + h],
            );
            sessions.push(session);
        }
    }
    sessions
}

fn run_baseline(
    shape: DecodeShape,
    inputs: &DecodeInputs,
    sessions: &mut [CheckedDecodeSession],
) -> f64 {
    let mut acc = 0.0;
    for t in 0..shape.steps {
        for s in 0..inputs.batch {
            for h in 0..shape.heads {
                let (q, k, v) = inputs.sliced(t, s, h);
                let step = sessions[s * shape.heads + h].step(q, k, v);
                acc += step.output[0];
            }
        }
    }
    acc
}

/// The batched engine: one prefilled `DecodeBatch` over all sequences,
/// advanced with one `step_decode` per step. Generic over the cache element
/// format — the BF16 instantiation measures the halved-KV-traffic
/// serving configuration.
fn batched_engine<T: fa_tensor::Scalar>(
    shape: DecodeShape,
    k_prompt: &[Matrix<T>],
    v_prompt: &[Matrix<T>],
) -> (DecodeBatch<T>, Vec<usize>) {
    let cfg = MultiHeadConfig::new(shape.heads, AttentionConfig::new(shape.head_dim));
    let mut engine = DecodeBatch::<T>::new(cfg, 64);
    let ids: Vec<usize> = (0..k_prompt.len()).map(|_| engine.add_sequence()).collect();
    for (s, &id) in ids.iter().enumerate() {
        engine.prefill(id, &k_prompt[s], &v_prompt[s]);
    }
    // Capacity hint: keep decode-path block claims reallocation-free.
    engine.reserve_rows(k_prompt.len() * shape.steps);
    (engine, ids)
}

fn run_batched<T: fa_tensor::Scalar>(
    shape: DecodeShape,
    qs: &[Matrix<T>],
    ks: &[Matrix<T>],
    vs: &[Matrix<T>],
    state: &mut (DecodeBatch<T>, Vec<usize>),
    checked: bool,
) -> f64 {
    let (engine, ids) = state;
    let mut acc = 0.0;
    for t in 0..shape.steps {
        if checked {
            let outs = engine.step_decode(ids, &qs[t], &ks[t], &vs[t]);
            acc += outs[0].output[0];
        } else {
            let outs = engine.step_all_unchecked(ids, &qs[t], &ks[t], &vs[t]);
            acc += outs[0][0];
        }
    }
    acc
}

fn measure_decode_single(shape: DecodeShape, reps: usize) -> DecodeSingle {
    let inputs = decode_inputs(shape, 1);
    let head_cfg = AttentionConfig::new(shape.head_dim);
    let (mut unchecked_ms, mut checked_ms) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..=reps {
        let a = timed_once(
            || {
                (0..shape.heads)
                    .map(|h| {
                        let mut session = DecodeSession::<f64>::new(head_cfg);
                        session.prefill(&inputs.k_prompt_h[h], &inputs.v_prompt_h[h]);
                        session
                    })
                    .collect::<Vec<_>>()
            },
            |sessions| {
                let mut acc = 0.0;
                for t in 0..shape.steps {
                    for (h, session) in sessions.iter_mut().enumerate() {
                        let (q, k, v) = inputs.sliced(t, 0, h);
                        acc += session.step(q, k, v)[0];
                    }
                }
                acc
            },
        );
        let b = timed_once(
            || baseline_sessions(shape, &inputs),
            |sessions| run_baseline(shape, &inputs, sessions),
        );
        if rep > 0 {
            // Round 0 is warmup.
            unchecked_ms = unchecked_ms.min(a);
            checked_ms = checked_ms.min(b);
        }
    }
    DecodeSingle {
        unchecked_tokens_per_s: shape.steps as f64 / (unchecked_ms * 1e-3),
        checked_tokens_per_s: shape.steps as f64 / (checked_ms * 1e-3),
    }
}

fn measure_decode_batched(shape: DecodeShape, batch: usize, reps: usize) -> DecodeBatchPoint {
    let inputs = decode_inputs(shape, batch);
    let (mut baseline_ms, mut batched_ms, mut unchecked_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for rep in 0..=reps {
        let a = timed_once(
            || baseline_sessions(shape, &inputs),
            |sessions| run_baseline(shape, &inputs, sessions),
        );
        let b = timed_once(
            || batched_engine(shape, &inputs.k_prompt, &inputs.v_prompt),
            |state| run_batched(shape, &inputs.qs, &inputs.ks, &inputs.vs, state, true),
        );
        let c = timed_once(
            || batched_engine(shape, &inputs.k_prompt, &inputs.v_prompt),
            |state| run_batched(shape, &inputs.qs, &inputs.ks, &inputs.vs, state, false),
        );
        if rep > 0 {
            baseline_ms = baseline_ms.min(a);
            batched_ms = batched_ms.min(b);
            unchecked_ms = unchecked_ms.min(c);
        }
    }
    let tokens = (batch * shape.steps) as f64;
    DecodeBatchPoint {
        batch,
        baseline_ms,
        batched_ms,
        baseline_tokens_per_s: tokens / (baseline_ms * 1e-3),
        batched_tokens_per_s: tokens / (batched_ms * 1e-3),
        checked_overhead_pct: (batched_ms / unchecked_ms - 1.0) * 100.0,
    }
}

/// At serving batch sizes the single-core decode sweep is KV-bandwidth
/// bound, so the remaining single-thread lever is the cache element
/// format: a BF16 KV cache halves the streamed bytes. This measures
/// checked batched decode with a BF16 cache against the same engine with
/// the f64 cache.
fn measure_decode_bf16(shape: DecodeShape, batch: usize, reps: usize) -> DecodeKvBf16 {
    let inputs = decode_inputs(shape, batch);
    let cast_all =
        |ms: &[Matrix<f64>]| -> Vec<Matrix<BF16>> { ms.iter().map(|m| m.cast()).collect() };
    let (qs16, ks16, vs16) = (
        cast_all(&inputs.qs),
        cast_all(&inputs.ks),
        cast_all(&inputs.vs),
    );
    let (kp16, vp16) = (cast_all(&inputs.k_prompt), cast_all(&inputs.v_prompt));
    let (mut f64_cache_ms, mut bf16_cache_ms) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..=reps {
        let a = timed_once(
            || batched_engine(shape, &inputs.k_prompt, &inputs.v_prompt),
            |state| run_batched(shape, &inputs.qs, &inputs.ks, &inputs.vs, state, true),
        );
        let b = timed_once(
            || batched_engine(shape, &kp16, &vp16),
            |state| run_batched(shape, &qs16, &ks16, &vs16, state, true),
        );
        if rep > 0 {
            f64_cache_ms = f64_cache_ms.min(a);
            bf16_cache_ms = bf16_cache_ms.min(b);
        }
    }
    let tokens = (batch * shape.steps) as f64;
    DecodeKvBf16 {
        batch,
        f64_cache_ms,
        bf16_cache_ms,
        bf16_tokens_per_s: tokens / (bf16_cache_ms * 1e-3),
    }
}

/// Decode traffic for the continuous-batching sweep: initial prompts,
/// churn prompts (with queries — admission checks the prompt), and
/// per-step decode rows.
struct ContinuousInputs<T> {
    initial: Vec<(Matrix<T>, Matrix<T>, Matrix<T>)>,
    churn: Vec<(Matrix<T>, Matrix<T>, Matrix<T>)>,
    qs: Vec<Matrix<T>>,
    ks: Vec<Matrix<T>>,
    vs: Vec<Matrix<T>>,
}

fn continuous_inputs(
    shape: DecodeShape,
    batch: usize,
    churn_every: usize,
) -> ContinuousInputs<f64> {
    let dim = shape.heads * shape.head_dim;
    let mk = |seed: u64, rows: usize| {
        Matrix::<f64>::random_seeded(rows, dim, ElementDist::default(), seed)
    };
    let prompt = |seed: u64| {
        (
            mk(seed, shape.prefill),
            mk(seed + 1, shape.prefill),
            mk(seed + 2, shape.prefill),
        )
    };
    let churn_count = shape.steps / churn_every;
    ContinuousInputs {
        initial: (0..batch).map(|s| prompt(20_000 + 10 * s as u64)).collect(),
        churn: (0..churn_count)
            .map(|c| prompt(30_000 + 10 * c as u64))
            .collect(),
        qs: (0..shape.steps)
            .map(|t| mk(40_000 + t as u64, batch))
            .collect(),
        ks: (0..shape.steps)
            .map(|t| mk(41_000 + t as u64, batch))
            .collect(),
        vs: (0..shape.steps)
            .map(|t| mk(42_000 + t as u64, batch))
            .collect(),
    }
}

fn cast_prompts(
    ps: &[(Matrix<f64>, Matrix<f64>, Matrix<f64>)],
) -> Vec<(Matrix<BF16>, Matrix<BF16>, Matrix<BF16>)> {
    ps.iter()
        .map(|(q, k, v)| (q.cast(), k.cast(), v.cast()))
        .collect()
}

/// One end-to-end continuous-batching run: batched admission of the
/// initial prompts, `steps` checked decode steps over the live batch,
/// and every `churn_every` steps a retire of the oldest sequence plus a
/// checked admission of a fresh prompt onto the recycled blocks. Returns
/// the engine for post-run cache statistics (read outside the timer).
fn run_continuous<T: fa_tensor::Scalar>(
    shape: DecodeShape,
    churn_every: usize,
    inputs: &ContinuousInputs<T>,
) -> fa_attention::batch::DecodeBatch<T> {
    let cfg = MultiHeadConfig::new(shape.heads, AttentionConfig::new(shape.head_dim));
    let mut engine = fa_attention::batch::DecodeBatch::<T>::new(cfg, 64);
    engine.set_prefill_chunk(shape.prefill.max(1));
    let mut live = admit_prompts(&mut engine, &inputs.initial);
    let mut churned = 0usize;
    let mut acc = 0.0;
    for t in 0..shape.steps {
        let outs = engine.step_decode(&live, &inputs.qs[t], &inputs.ks[t], &inputs.vs[t]);
        acc += outs[0].output[0];
        if (t + 1) % churn_every == 0 && churned < inputs.churn.len() {
            let victim = live.remove(0);
            engine.retire(victim);
            live.extend(admit_prompts(
                &mut engine,
                std::slice::from_ref(&inputs.churn[churned]),
            ));
            churned += 1;
        }
    }
    std::hint::black_box(acc);
    engine
}

/// Checked admission of `prompts` in one fork, each in a single chunk
/// (the engine's prefill chunk must cover the longest prompt). Returns
/// the sequence ids in prompt order.
fn admit_prompts<T: fa_tensor::Scalar>(
    engine: &mut DecodeBatch<T>,
    prompts: &[(Matrix<T>, Matrix<T>, Matrix<T>)],
) -> Vec<usize> {
    let ids: Vec<usize> = prompts
        .iter()
        .map(|(q, k, v)| engine.enqueue(q, k, v))
        .collect();
    engine.prefill_step_for(&ids);
    for &seq in &ids {
        engine
            .take_admitted(seq)
            .expect("prompt fits one prefill chunk");
    }
    ids
}

/// Analytic KV bytes streamed per decode step under the continuous
/// schedule: each step every live sequence's pass reads its whole cached
/// history (K and V) once, post-append. Replays the schedule's lengths
/// without running kernels.
fn continuous_bytes_per_step(
    shape: DecodeShape,
    batch: usize,
    churn_every: usize,
    elem_bytes: usize,
) -> f64 {
    let width = shape.heads * shape.head_dim;
    let mut lens = vec![shape.prefill; batch];
    let mut total = 0usize;
    let churn_count = shape.steps / churn_every;
    let mut churned = 0;
    for t in 0..shape.steps {
        for len in lens.iter_mut() {
            *len += 1; // append, then stream the whole history
            total += *len * width * 2 * elem_bytes;
        }
        if (t + 1) % churn_every == 0 && churned < churn_count {
            lens.remove(0);
            lens.push(shape.prefill);
            churned += 1;
        }
    }
    total as f64 / shape.steps as f64
}

fn measure_decode_continuous(
    shape: DecodeShape,
    batch: usize,
    churn_every: usize,
    reps: usize,
) -> DecodeContinuous {
    let inputs = continuous_inputs(shape, batch, churn_every);
    let inputs16 = ContinuousInputs::<BF16> {
        initial: cast_prompts(&inputs.initial),
        churn: cast_prompts(&inputs.churn),
        qs: inputs.qs.iter().map(|m| m.cast()).collect(),
        ks: inputs.ks.iter().map(|m| m.cast()).collect(),
        vs: inputs.vs.iter().map(|m| m.cast()).collect(),
    };
    // Warmup round doubles as the cache-statistics probe (the schedule is
    // deterministic, so any run reports the same block counts).
    let warm = run_continuous(shape, churn_every, &inputs);
    let stats = (
        warm.cache().recycled_blocks(),
        warm.cache().allocated_blocks(),
    );
    drop(warm);
    std::hint::black_box(run_continuous(shape, churn_every, &inputs16));
    let (mut f64_ms, mut bf16_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let a = timed_once(|| (), |_| run_continuous(shape, churn_every, &inputs));
        let b = timed_once(|| (), |_| run_continuous(shape, churn_every, &inputs16));
        f64_ms = f64_ms.min(a);
        bf16_ms = bf16_ms.min(b);
    }
    let churn_count = shape.steps / churn_every;
    let decode_tokens = (batch * shape.steps) as f64;
    let prompt_tokens = ((batch + churn_count) * shape.prefill) as f64;
    let point = |ms: f64, elem_bytes: usize| ContinuousCachePoint {
        total_ms: ms,
        tokens_per_s: (decode_tokens + prompt_tokens) / (ms * 1e-3),
        decode_tokens_per_s: decode_tokens / (ms * 1e-3),
        bytes_per_step: continuous_bytes_per_step(shape, batch, churn_every, elem_bytes),
    };
    DecodeContinuous {
        batch,
        steps: shape.steps,
        churn_every,
        f64_cache: point(f64_ms, 8),
        bf16_cache: point(bf16_ms, 2),
        recycled_blocks: stats.0,
        arena_blocks: stats.1,
    }
}

/// One end-to-end policy-serving run: synchronous admission of the
/// opening batch, then `steps` checked decode steps over the live batch.
/// Every `churn_every` steps the oldest sequence retires and a fresh
/// prompt is **enqueued**: the following steps' interleaved prefill
/// chunks admit it while the rest of the batch keeps decoding, and it
/// joins the decode batch when complete — the prompt-heavy continuous
/// schedule the mixed-format lever targets. `on_step` observes the
/// engine after each decode step (pass a no-op when timing).
/// Token counts one policy-serving run actually processed: decode tokens
/// stepped (the live batch shrinks while churned prompts admit) and
/// prompt tokens cached+scored (a prompt enqueued by the final churn may
/// have chunks that never ran — those are **not** credited).
#[derive(Clone, Copy, Debug)]
struct PolicyRunTokens {
    decode: usize,
    prompt: usize,
}

#[allow(clippy::too_many_arguments)]
fn run_policy_serving(
    shape: DecodeShape,
    churn_every: usize,
    prefill_chunk: usize,
    block_rows: usize,
    format: KvFormat,
    eviction: EvictionPolicy,
    inputs: &ContinuousInputs<f64>,
    mut on_step: impl FnMut(&DecodeBatch<f64>, &[usize]),
) -> (DecodeBatch<f64>, PolicyRunTokens) {
    let cfg = MultiHeadConfig::new(shape.heads, AttentionConfig::new(shape.head_dim));
    let mut engine =
        DecodeBatch::<f64>::with_policy(cfg, block_rows, KvLayout::HeadMajor, format, eviction);
    // The initial prompts admit in one chunk each; churned prompts then
    // admit `prefill_chunk` tokens per decode step.
    engine.set_prefill_chunk(shape.prefill.max(1));
    let mut live = admit_prompts(&mut engine, &inputs.initial);
    engine.set_prefill_chunk(prefill_chunk);
    let mut tokens = PolicyRunTokens {
        decode: 0,
        prompt: 0,
    };
    let mut pending: Vec<usize> = Vec::new();
    let mut churned = 0usize;
    let mut acc = 0.0;
    for t in 0..shape.steps {
        // The live batch shrinks while a churned prompt admits: slice the
        // pre-generated step rows down to the current live set.
        let take = |m: &Matrix<f64>| Matrix::from_fn(live.len(), m.cols(), |r, c| m[(r, c)]);
        engine.prefill_step_for(&pending);
        let outs = engine.step_decode(
            &live,
            &take(&inputs.qs[t]),
            &take(&inputs.ks[t]),
            &take(&inputs.vs[t]),
        );
        acc += outs[0].output[0];
        tokens.decode += live.len();
        on_step(&engine, &live);
        // Admissions completed by this step's prefill chunk join
        // the decode batch.
        pending.retain(|&s| {
            if engine.is_pending(s) {
                true
            } else {
                let _ = engine.take_admitted(s);
                live.push(s);
                false
            }
        });
        if (t + 1) % churn_every == 0 && churned < inputs.churn.len() {
            let victim = live.remove(0);
            engine.retire(victim);
            let (q, k, v) = &inputs.churn[churned];
            pending.push(engine.enqueue(q, k, v));
            churned += 1;
        }
    }
    // Credit only prompt tokens whose prefill actually ran: every retired
    // victim was fully admitted before retiring (`churned` of them), live
    // and still-pending sequences report exactly their processed chunks —
    // a prompt enqueued by the final churn contributes only what the
    // remaining steps advanced.
    tokens.prompt = churned * shape.prefill;
    for s in live.iter().chain(&pending) {
        tokens.prompt += engine.prompt_len(*s);
    }
    std::hint::black_box(acc);
    (engine, tokens)
}

/// Analytic KV bytes one decode step streams under a policy engine's
/// current state: per live sequence, the **visible** rows of each
/// retained block at that block's element width (8 bytes native, 2
/// demoted), K and V sides. Masked (out-of-window) and evicted rows
/// stream nothing — exactly what the block kernels touch.
fn policy_step_bytes(engine: &DecodeBatch<f64>, live: &[usize]) -> f64 {
    let cache = engine.cache();
    let width = cache.width();
    let block_rows = cache.block_rows();
    let mut bytes = 0usize;
    for &s in live {
        let len = cache.seq_len(s);
        let lo = match cache.eviction_window_tokens() {
            Some(w) => len.saturating_sub(w),
            None => 0,
        };
        let first_retained = cache.first_retained(s);
        for (bi, blk) in cache.seq_blocks(s).iter().enumerate() {
            let b_first = first_retained + bi * block_rows;
            let rows_valid = (len - b_first).min(block_rows);
            let r1 = b_first + rows_valid;
            let r0 = b_first.max(lo);
            if r0 >= r1 {
                continue;
            }
            let elem = if blk.bf16 { 2 } else { 8 };
            bytes += (r1 - r0) * width * 2 * elem;
        }
    }
    bytes as f64
}

/// Serving-schedule token counts (decode tokens actually stepped, prompt
/// tokens actually prefilled) and analytic bytes, from one untimed probe
/// run of the deterministic schedule.
struct PolicyProbe {
    tokens: PolicyRunTokens,
    bytes_per_step: f64,
    engine: DecodeBatch<f64>,
}

fn policy_probe(
    shape: DecodeShape,
    churn_every: usize,
    prefill_chunk: usize,
    block_rows: usize,
    format: KvFormat,
    eviction: EvictionPolicy,
    inputs: &ContinuousInputs<f64>,
) -> PolicyProbe {
    let mut bytes = 0.0f64;
    let (engine, tokens) = run_policy_serving(
        shape,
        churn_every,
        prefill_chunk,
        block_rows,
        format,
        eviction,
        inputs,
        |engine, live| {
            bytes += policy_step_bytes(engine, live);
        },
    );
    PolicyProbe {
        tokens,
        bytes_per_step: bytes / shape.steps as f64,
        engine,
    }
}

fn measure_decode_mixed_format(
    shape: DecodeShape,
    batch: usize,
    churn_every: usize,
    block_rows: usize,
    steady_block_rows: usize,
    reps: usize,
) -> DecodeMixedFormat {
    let burst_blocks = 1usize;
    let prefill_chunk = shape.prefill.div_ceil(4).max(1);
    let inputs = continuous_inputs(shape, batch, churn_every);
    let legs = [
        KvFormat::F64,
        KvFormat::Bf16,
        KvFormat::Mixed { burst_blocks },
    ];
    // Untimed probes: schedule token counts, analytic bytes/step, and
    // the mixed leg's demotion evidence (the schedule is deterministic,
    // so any run reports the same counts). Doubles as warmup.
    let probes: Vec<PolicyProbe> = legs
        .iter()
        .map(|&format| {
            policy_probe(
                shape,
                churn_every,
                prefill_chunk,
                block_rows,
                format,
                EvictionPolicy::RetainAll,
                &inputs,
            )
        })
        .collect();
    let mixed_engine = &probes[2].engine;
    let live: Vec<usize> = (0..mixed_engine.num_sequences())
        .filter(|&s| !mixed_engine.is_retired(s))
        .collect();
    let mixed_demoted_rows = live.iter().map(|&s| mixed_engine.demoted_len(s)).sum();
    let mixed_arena_blocks = mixed_engine.cache().allocated_blocks();
    let mixed_arena_blocks16 = mixed_engine.cache().allocated_blocks16();

    // Steady-state decode legs under the exact `decode_kv_bf16` harness:
    // same pre-generated traffic (`decode_inputs`), same block geometry
    // as the committed decode points, prefill untimed, decode steps
    // timed — so these numbers compare directly against the committed
    // `decode_batched` / `decode_kv_bf16` points across PRs. The mixed
    // leg runs burst 0: every full block demotes as it ages, the partial
    // block being filled is the f64 burst fresh tokens ride.
    let steady_burst_blocks = 0;
    let steady_formats = [
        KvFormat::F64,
        KvFormat::Bf16,
        KvFormat::Mixed {
            burst_blocks: steady_burst_blocks,
        },
    ];
    let dec_inputs = decode_inputs(shape, batch);
    let settle = |format: KvFormat| -> (DecodeBatch<f64>, Vec<usize>) {
        let cfg = MultiHeadConfig::new(shape.heads, AttentionConfig::new(shape.head_dim));
        let mut engine = DecodeBatch::<f64>::with_policy(
            cfg,
            steady_block_rows,
            KvLayout::HeadMajor,
            format,
            EvictionPolicy::RetainAll,
        );
        let ids: Vec<usize> = (0..batch).map(|_| engine.add_sequence()).collect();
        for (s, &id) in ids.iter().enumerate() {
            engine.prefill(id, &dec_inputs.k_prompt[s], &dec_inputs.v_prompt[s]);
        }
        engine.reserve_rows(batch * shape.steps);
        (engine, ids)
    };
    // Untimed steady bytes probe per leg (deterministic schedule).
    let steady_bytes: Vec<f64> = steady_formats
        .iter()
        .map(|&format| {
            let (mut engine, ids) = settle(format);
            let mut bytes = 0.0;
            for t in 0..shape.steps {
                let _ = engine.step_decode(
                    &ids,
                    &dec_inputs.qs[t],
                    &dec_inputs.ks[t],
                    &dec_inputs.vs[t],
                );
                bytes += policy_step_bytes(&engine, &ids);
            }
            bytes / shape.steps as f64
        })
        .collect();

    // Timed legs, interleaved round-robin (drift policy) and best-of:
    // each rep measures all three serving legs and all three steady legs
    // before the next rep, so host drift biases every variant equally.
    let mut best = [f64::INFINITY; 3];
    let mut best_steady = [f64::INFINITY; 3];
    for _ in 0..reps {
        for (i, &format) in legs.iter().enumerate() {
            let ms = timed_once(
                || (),
                |_| {
                    run_policy_serving(
                        shape,
                        churn_every,
                        prefill_chunk,
                        block_rows,
                        format,
                        EvictionPolicy::RetainAll,
                        &inputs,
                        |_, _| {},
                    )
                },
            );
            best[i] = best[i].min(ms);
            let ms = timed_once(
                || settle(steady_formats[i]),
                |state| {
                    run_batched(
                        shape,
                        &dec_inputs.qs,
                        &dec_inputs.ks,
                        &dec_inputs.vs,
                        state,
                        true,
                    )
                },
            );
            best_steady[i] = best_steady[i].min(ms);
        }
    }
    let point = |i: usize| ContinuousCachePoint {
        total_ms: best[i],
        tokens_per_s: (probes[i].tokens.decode + probes[i].tokens.prompt) as f64 / (best[i] * 1e-3),
        decode_tokens_per_s: probes[i].tokens.decode as f64 / (best[i] * 1e-3),
        bytes_per_step: probes[i].bytes_per_step,
    };
    let steady_point = |i: usize| SteadyDecodePoint {
        tokens_per_s: (batch * shape.steps) as f64 / (best_steady[i] * 1e-3),
        bytes_per_step: steady_bytes[i],
    };
    DecodeMixedFormat {
        batch,
        steps: shape.steps,
        churn_every,
        prefill_chunk,
        block_rows,
        burst_blocks,
        steady_block_rows,
        steady_burst_blocks,
        f64_cache: point(0),
        bf16_cache: point(1),
        mixed_cache: point(2),
        f64_steady: steady_point(0),
        bf16_steady: steady_point(1),
        mixed_steady: steady_point(2),
        mixed_demoted_rows,
        mixed_arena_blocks,
        mixed_arena_blocks16,
    }
}

fn measure_decode_sliding_window(
    shape: DecodeShape,
    batch: usize,
    block_rows: usize,
    window_blocks: usize,
    reps: usize,
) -> DecodeSlidingWindow {
    // Pure decode (no churn): the window's effect is cleanest on a
    // steadily growing history.
    let no_churn = shape.steps + 1;
    let inputs = continuous_inputs(shape, batch, no_churn);
    let legs = [
        EvictionPolicy::RetainAll,
        EvictionPolicy::SlidingWindow { window_blocks },
    ];
    let probes: Vec<PolicyProbe> = legs
        .iter()
        .map(|&eviction| {
            policy_probe(
                shape,
                no_churn,
                shape.prefill.max(1),
                block_rows,
                KvFormat::F64,
                eviction,
                &inputs,
            )
        })
        .collect();
    let sliding_engine = &probes[1].engine;
    let evicted_rows = (0..sliding_engine.num_sequences())
        .filter(|&s| !sliding_engine.is_retired(s))
        .map(|s| sliding_engine.evicted_len(s))
        .max()
        .unwrap_or(0);

    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (i, &eviction) in legs.iter().enumerate() {
            let ms = timed_once(
                || (),
                |_| {
                    run_policy_serving(
                        shape,
                        no_churn,
                        shape.prefill.max(1),
                        block_rows,
                        KvFormat::F64,
                        eviction,
                        &inputs,
                        |_, _| {},
                    )
                },
            );
            best[i] = best[i].min(ms);
        }
    }
    let point = |i: usize| ContinuousCachePoint {
        total_ms: best[i],
        tokens_per_s: (probes[i].tokens.decode + probes[i].tokens.prompt) as f64 / (best[i] * 1e-3),
        decode_tokens_per_s: probes[i].tokens.decode as f64 / (best[i] * 1e-3),
        bytes_per_step: probes[i].bytes_per_step,
    };
    DecodeSlidingWindow {
        batch,
        steps: shape.steps,
        block_rows,
        window_blocks,
        retain_all: point(0),
        sliding: point(1),
        evicted_rows,
        retain_arena_blocks: probes[0].engine.cache().allocated_blocks(),
        sliding_arena_blocks: probes[1].engine.cache().allocated_blocks(),
    }
}

/// The GQA sweep: fixed query heads, group sizes 1/4/8, identical decode
/// schedule per leg — only the kv-head count (and therefore the cached
/// K/V width the DRAM-bound sweep streams) changes. Legs are interleaved
/// round-robin per rep (the established drift protocol) and best-of is
/// taken per leg.
fn measure_decode_gqa(shape: DecodeShape, batch: usize, reps: usize) -> DecodeGqa {
    let query_heads = 8usize;
    let d = shape.head_dim;
    let group_sizes = [1usize, 4, 8];
    let legs: Vec<HeadTopology> = group_sizes
        .iter()
        .map(|&gs| HeadTopology::gqa(query_heads, query_heads / gs, AttentionConfig::new(d)))
        .collect();
    let mk = |rows: usize, cols: usize, seed: u64| {
        Matrix::<f64>::random_seeded(rows, cols, ElementDist::default(), seed)
    };
    struct GqaLegInputs {
        qs: Vec<Matrix<f64>>,
        ks: Vec<Matrix<f64>>,
        vs: Vec<Matrix<f64>>,
        k_prompt: Vec<Matrix<f64>>,
        v_prompt: Vec<Matrix<f64>>,
    }
    let inputs: Vec<GqaLegInputs> = legs
        .iter()
        .map(|t| GqaLegInputs {
            qs: (0..shape.steps)
                .map(|i| mk(batch, t.q_dim(), 50_000 + i as u64))
                .collect(),
            ks: (0..shape.steps)
                .map(|i| mk(batch, t.kv_dim(), 51_000 + i as u64))
                .collect(),
            vs: (0..shape.steps)
                .map(|i| mk(batch, t.kv_dim(), 52_000 + i as u64))
                .collect(),
            k_prompt: (0..batch)
                .map(|s| mk(shape.prefill, t.kv_dim(), 53_000 + s as u64))
                .collect(),
            v_prompt: (0..batch)
                .map(|s| mk(shape.prefill, t.kv_dim(), 54_000 + s as u64))
                .collect(),
        })
        .collect();
    let settle = |li: usize, format: KvFormat| -> (DecodeBatch<f64>, Vec<usize>) {
        let mut engine = DecodeBatch::<f64>::with_policy(
            legs[li],
            64,
            KvLayout::HeadMajor,
            format,
            EvictionPolicy::RetainAll,
        );
        let ids: Vec<usize> = (0..batch).map(|_| engine.add_sequence()).collect();
        for (s, &id) in ids.iter().enumerate() {
            engine.prefill(id, &inputs[li].k_prompt[s], &inputs[li].v_prompt[s]);
        }
        engine.reserve_rows(batch * shape.steps);
        (engine, ids)
    };
    let run = |state: &mut (DecodeBatch<f64>, Vec<usize>), li: usize| {
        let (engine, ids) = state;
        let mut acc = 0.0;
        for t in 0..shape.steps {
            let outs =
                engine.step_decode(ids, &inputs[li].qs[t], &inputs[li].ks[t], &inputs[li].vs[t]);
            acc += outs[0].output[0];
        }
        acc
    };
    // Untimed probes (deterministic schedule): analytic bytes/step and
    // final arena size per leg. Doubles as warmup.
    let probes: Vec<(f64, usize)> = (0..legs.len())
        .map(|li| {
            let (mut engine, ids) = settle(li, KvFormat::F64);
            let mut bytes = 0.0;
            for t in 0..shape.steps {
                let _ = engine.step_decode(
                    &ids,
                    &inputs[li].qs[t],
                    &inputs[li].ks[t],
                    &inputs[li].vs[t],
                );
                bytes += policy_step_bytes(&engine, &ids);
            }
            (
                bytes / shape.steps as f64,
                engine.cache().allocated_blocks(),
            )
        })
        .collect();
    // Two format legs per group size — native f64 and the BF16 cache
    // (grouping and narrowing compose) — interleaved round-robin.
    let mut best = vec![f64::INFINITY; legs.len()];
    let mut best16 = vec![f64::INFINITY; legs.len()];
    for _ in 0..reps {
        for li in 0..legs.len() {
            let ms = timed_once(|| settle(li, KvFormat::F64), |state| run(state, li));
            best[li] = best[li].min(ms);
            let ms16 = timed_once(|| settle(li, KvFormat::Bf16), |state| run(state, li));
            best16[li] = best16[li].min(ms16);
        }
    }
    let tokens = (batch * shape.steps) as f64;
    DecodeGqa {
        batch,
        steps: shape.steps,
        prefill: shape.prefill,
        query_heads,
        head_dim: d,
        points: group_sizes
            .iter()
            .enumerate()
            .map(|(li, &gs)| DecodeGqaPoint {
                group_size: gs,
                kv_heads: query_heads / gs,
                checked_ms: best[li],
                tokens_per_s: tokens / (best[li] * 1e-3),
                bf16_checked_ms: best16[li],
                bf16_tokens_per_s: tokens / (best16[li] * 1e-3),
                bytes_per_step: probes[li].0,
                arena_blocks: probes[li].1,
            })
            .collect(),
    }
}

/// Runs the kernel-layer benchmark. `quick` shrinks problem sizes and
/// drops the largest matmul/flash2 points for CI smoke runs.
fn measure_prefix_sharing_kernel(n_rows: usize, iters: usize, reps: usize) -> PrefixSharingKernel {
    // kv-row width of the headline serving shapes: the panel a decode
    // step actually sweeps per shared block batch.
    let d = 64usize;
    let scale = 1.0 / (d as f64).sqrt();
    let panel = Matrix::<f64>::random_seeded(n_rows, d, ElementDist::default(), 71);
    let rows = panel.as_slice();
    let points = [1usize, 4, 16, 32]
        .iter()
        .map(|&nq| {
            let qmat = Matrix::<f64>::random_seeded(nq, d, ElementDist::default(), 72);
            let qs = qmat.as_slice();
            let mut out = Vec::new();
            let gemv_ms = time_ms(reps, || {
                for _ in 0..iters {
                    for qi in 0..nq {
                        ops::dot_then_scale_rows(
                            &qs[qi * d..(qi + 1) * d],
                            rows,
                            d,
                            n_rows,
                            scale,
                            &mut out,
                        );
                        std::hint::black_box(&out);
                    }
                }
            });
            let multi_ms = time_ms(reps, || {
                for _ in 0..iters {
                    ops::dot_then_scale_rows_multi(qs, d, rows, d, n_rows, scale, &mut out);
                    std::hint::black_box(&out);
                }
            });
            // The contract behind the timing: identical bits, only the
            // sweep order (and therefore the bandwidth bill) differs.
            let mut multi = Vec::new();
            ops::dot_then_scale_rows_multi(qs, d, rows, d, n_rows, scale, &mut multi);
            let mut gemv = Vec::with_capacity(nq * n_rows);
            for qi in 0..nq {
                ops::dot_then_scale_rows(
                    &qs[qi * d..(qi + 1) * d],
                    rows,
                    d,
                    n_rows,
                    scale,
                    &mut out,
                );
                gemv.extend_from_slice(&out);
            }
            let bitwise_match = multi
                .iter()
                .zip(&gemv)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            MultiScorePoint {
                queries: nq,
                gemv_ms,
                multi_ms,
                bitwise_match,
            }
        })
        .collect();
    PrefixSharingKernel {
        d,
        n_rows,
        iters,
        points,
    }
}

pub fn measure(quick: bool) -> KernelBenchReport {
    let (matmul_sizes, flash2_sizes, reps): (&[usize], &[usize], usize) = if quick {
        (&[128], &[256], 2)
    } else {
        (&[128, 256], &[256, 1024], 3)
    };
    // Decode timings are memory-sensitive; best-of-5 tames the variance
    // the big KV working sets introduce.
    let (dot_iters, decode_reps, decode_shape) = if quick {
        (
            64,
            2,
            DecodeShape {
                head_dim: 64,
                heads: 4,
                prefill: 16,
                steps: 8,
            },
        )
    } else {
        (
            256,
            5,
            DecodeShape {
                head_dim: 64,
                heads: 4,
                prefill: 128,
                steps: 32,
            },
        )
    };

    let (largest_batch, churn_every) = if quick { (8, 2) } else { (32, 4) };

    let matmul = matmul_sizes
        .iter()
        .map(|&n| measure_matmul(n, reps))
        .collect();
    let flash2 = flash2_sizes
        .iter()
        .map(|&s| measure_flash2(s, reps))
        .collect();
    let dot_simd = measure_dot(4096, dot_iters, reps);
    let decode_single = measure_decode_single(decode_shape, decode_reps);
    let decode_batched: Vec<DecodeBatchPoint> = [1usize, 8, 32]
        .iter()
        .map(|&b| measure_decode_batched(decode_shape, b, decode_reps))
        .collect();
    let decode_kv_bf16 = measure_decode_bf16(decode_shape, largest_batch, decode_reps);
    let decode_continuous =
        measure_decode_continuous(decode_shape, largest_batch, churn_every, decode_reps);
    // Policy-layer geometry: blocks small enough that the mixed burst and
    // the eviction window actually exercise at these history lengths.
    // The steady legs use the committed decode points' 64-row blocks in
    // full runs (apples-to-apples); quick histories are too short to fill
    // one, so CI smoke shrinks them.
    let (mixed_block_rows, steady_block_rows, sw_block_rows, sw_window_blocks) =
        if quick { (4, 4, 4, 2) } else { (16, 64, 32, 2) };
    let decode_mixed_format = measure_decode_mixed_format(
        decode_shape,
        largest_batch,
        churn_every,
        mixed_block_rows,
        steady_block_rows,
        decode_reps,
    );
    let decode_sliding_window = measure_decode_sliding_window(
        decode_shape,
        largest_batch,
        sw_block_rows,
        sw_window_blocks,
        decode_reps,
    );
    let decode_gqa = measure_decode_gqa(decode_shape, largest_batch, decode_reps);
    let (ps_rows, ps_iters) = if quick { (128, 4) } else { (512, 16) };
    let prefix_sharing = measure_prefix_sharing_kernel(ps_rows, ps_iters, reps);

    KernelBenchReport {
        host_threads: rayon::current_num_threads(),
        matmul,
        flash2,
        dot_simd,
        decode_shape,
        decode_single,
        decode_batched,
        decode_kv_bf16,
        decode_continuous,
        decode_mixed_format,
        decode_sliding_window,
        decode_gqa,
        prefix_sharing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_sane_report() {
        let report = measure(true);
        assert_eq!(report.matmul.len(), 1);
        assert!(report.matmul[0].bf16.baseline_ms > 0.0);
        assert!(report.matmul[0].bf16.optimized_ms > 0.0);
        assert_eq!(report.flash2.len(), 1);
        assert!(report.flash2[0].tokens_per_s > 0.0);
        assert!(report.flash2[0].checksum_overhead_pct().is_finite());
        assert!(report.dot_simd.f64_dot.speedup() > 0.0);
        assert!(report.decode_single.checked_tokens_per_s > 0.0);
        assert_eq!(report.decode_batched.len(), 3);
        for p in &report.decode_batched {
            assert!(p.batched_tokens_per_s > 0.0, "batch {}", p.batch);
            assert!(p.checked_overhead_pct.is_finite());
        }
        assert!(report.decode_kv_bf16.speedup() > 0.0);
        let cont = &report.decode_continuous;
        assert!(cont.f64_cache.tokens_per_s > 0.0);
        assert!(cont.bf16_cache.tokens_per_s > 0.0);
        assert!(
            cont.bf16_cache.bytes_per_step * 3.9 < cont.f64_cache.bytes_per_step,
            "bf16 KV cache quarters the streamed bytes per step"
        );
        assert!(cont.recycled_blocks > 0, "churn must recycle blocks");
        assert!(cont.arena_blocks > 0);
        let mixed = &report.decode_mixed_format;
        assert!(mixed.f64_cache.tokens_per_s > 0.0);
        assert!(mixed.bf16_cache.tokens_per_s > 0.0);
        assert!(mixed.mixed_cache.tokens_per_s > 0.0);
        assert!(mixed.mixed_demoted_rows > 0, "the burst must age out");
        assert!(mixed.mixed_arena_blocks16 > 0, "demoted blocks exist");
        assert!(mixed.f64_steady.tokens_per_s > 0.0);
        assert!(mixed.bf16_steady.tokens_per_s > 0.0);
        assert!(mixed.mixed_steady.tokens_per_s > 0.0);
        assert!(
            mixed.bf16_steady.bytes_per_step <= mixed.mixed_steady.bytes_per_step
                && mixed.mixed_steady.bytes_per_step < mixed.f64_steady.bytes_per_step,
            "steady decode bytes order: bf16 <= mixed < f64"
        );
        assert!(
            mixed.bf16_cache.bytes_per_step <= mixed.mixed_cache.bytes_per_step
                && mixed.mixed_cache.bytes_per_step < mixed.f64_cache.bytes_per_step,
            "mixed streams between pure bf16 and pure f64: {} <= {} < {}",
            mixed.bf16_cache.bytes_per_step,
            mixed.mixed_cache.bytes_per_step,
            mixed.f64_cache.bytes_per_step,
        );
        let gq = &report.decode_gqa;
        assert_eq!(gq.points.len(), 3);
        assert_eq!(gq.points[0].group_size, 1);
        for p in &gq.points {
            assert!(p.tokens_per_s > 0.0, "group {}", p.group_size);
            assert!(p.bf16_tokens_per_s > 0.0, "bf16 group {}", p.group_size);
            assert!(p.bf16_checked_ms > 0.0);
            assert_eq!(p.kv_heads * p.group_size, gq.query_heads);
        }
        // Sharing K/V across a group divides the streamed bytes/step by
        // exactly group_size (same retained positions, kv-proportional
        // row width): the group-4 leg streams 1/4 of the MHA leg.
        let mha_bytes = gq.points[0].bytes_per_step;
        assert!(
            gq.points[1].bytes_per_step * 3.9 < mha_bytes
                && mha_bytes < gq.points[1].bytes_per_step * 4.1,
            "group 4 streams 1/4 the bytes: {} vs {}",
            gq.points[1].bytes_per_step,
            mha_bytes,
        );
        assert!(
            gq.points[2].bytes_per_step * 7.8 < mha_bytes,
            "group 8 streams 1/8 the bytes"
        );
        let sw = &report.decode_sliding_window;
        assert!(sw.retain_all.tokens_per_s > 0.0);
        assert!(sw.sliding.tokens_per_s > 0.0);
        assert!(sw.evicted_rows > 0, "the window must evict");
        assert!(
            sw.sliding.bytes_per_step < sw.retain_all.bytes_per_step,
            "the window bounds streamed bytes"
        );
        assert!(
            sw.sliding_arena_blocks <= sw.retain_arena_blocks,
            "the window bounds the arena"
        );
        let ps = &report.prefix_sharing;
        assert_eq!(
            ps.points.iter().map(|p| p.queries).collect::<Vec<_>>(),
            vec![1, 4, 16, 32]
        );
        for p in &ps.points {
            assert!(p.gemv_ms > 0.0 && p.multi_ms > 0.0, "queries {}", p.queries);
            assert!(
                p.bitwise_match,
                "queries {}: multi sweep must be bit-identical to per-query GEMV",
                p.queries
            );
        }
    }

    #[test]
    fn continuous_bytes_replay_matches_engine_lengths() {
        // The analytic bytes/step replay must agree with what the engine
        // actually holds: run the same schedule and compare final lengths.
        let shape = DecodeShape {
            head_dim: 4,
            heads: 2,
            prefill: 6,
            steps: 8,
        };
        let (batch, churn_every) = (3, 2);
        let inputs = continuous_inputs(shape, batch, churn_every);
        let engine = run_continuous(shape, churn_every, &inputs);
        // Replay lengths.
        let mut lens = vec![shape.prefill; batch];
        let mut churned = 0;
        for t in 0..shape.steps {
            for len in lens.iter_mut() {
                *len += 1;
            }
            if (t + 1) % churn_every == 0 && churned < inputs.churn.len() {
                lens.remove(0);
                lens.push(shape.prefill);
                churned += 1;
            }
        }
        let mut live: Vec<usize> = (0..engine.num_sequences())
            .filter(|&s| !engine.is_retired(s))
            .collect();
        live.sort_by_key(|&s| engine.seq_len(s));
        lens.sort_unstable();
        assert_eq!(live.len(), lens.len());
        for (&s, &len) in live.iter().zip(&lens) {
            assert_eq!(engine.seq_len(s), len);
        }
        assert!(continuous_bytes_per_step(shape, batch, churn_every, 8) > 0.0);
    }

    #[test]
    fn json_parses_and_holds_every_section() {
        let report = measure(true);
        crate::assert_paths(
            &report.to_json(),
            &[
                "host_threads",
                "matmul.0.bf16_gflops",
                "flash2.0.tokens_per_s",
                "flash2.0.fused_checksum.overhead_pct",
                "dot_simd.f64.speedup",
                "decode_single",
                "decode_batched.points.0.speedup",
                "decode_kv_bf16",
                "decode_continuous.recycled_blocks",
                "decode_continuous.f64.bytes_per_step",
                "decode_mixed_format.mixed_demoted_rows",
                "decode_sliding_window.window_blocks",
                "decode_sliding_window.evicted_rows",
                "decode_gqa.points.0.group_size",
                "decode_gqa.points.0.bf16_checked_ms",
                "prefix_sharing.points.0.queries",
                "prefix_sharing.points.0.multi_ms",
                "prefix_sharing.points.0.bitwise_match",
            ],
        );
    }
}

//! SLO-aware serving benchmarks: the step-driven scheduler under the
//! seeded bursty/heavy-tail load generator, measured three ways — the
//! numbers behind `BENCH_serving.json`.
//!
//! Three legs:
//!
//! * **clean** — undisturbed serving at the headline load: TTFT
//!   p50/p99, per-token p99, and goodput-under-SLO (decode tokens of
//!   requests that met both the TTFT and inter-token bounds);
//! * **fault_drill** — [`fa_fault::run_drill`] campaigns injecting
//!   value-side flips (online-alarmed, recovered bit-exact) and
//!   key-side flips (residual-coherent, caught by the autotuned
//!   scrubber) into live serving runs, certified against undisturbed
//!   golden twins;
//! * **preemption** — the same load under an arena-bytes bound that
//!   forces the pressure ladder (soft-tier bf16 demotion, then
//!   evict-and-requeue with recompute-on-resume), showing what the
//!   ladder costs in SLO terms.
//!
//! The scheduler is step-driven, so all latencies are native to step
//! units; each leg also measures its wall-clock per step and reports
//! both (`*_steps` and `*_ms`).

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{LoadGen, LoadSpec, Scheduler, ServeConfig, ServeSummary, SloSpec};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_fault::{run_drill, DrillSpec, DrillStats};
use fa_json::{obj, Json};
use fa_tensor::{random::ElementDist, Matrix};
use std::time::Instant;

/// One serving leg: aggregate metrics in scheduler steps plus the
/// measured wall-clock cost per step that converts them to wall time.
#[derive(Clone, Copy, Debug)]
pub struct ServingLeg {
    /// Aggregate serving metrics (step units).
    pub summary: ServeSummary,
    /// Scheduler steps executed (load window + drain).
    pub steps_run: u64,
    /// Measured wall-clock milliseconds per scheduler step.
    pub ms_per_step: f64,
}

impl ServingLeg {
    /// TTFT p50 converted to milliseconds.
    pub fn ttft_p50_ms(&self) -> f64 {
        self.summary.ttft_p50_steps as f64 * self.ms_per_step
    }

    /// TTFT p99 converted to milliseconds.
    pub fn ttft_p99_ms(&self) -> f64 {
        self.summary.ttft_p99_steps as f64 * self.ms_per_step
    }

    /// p99 inter-token gap converted to milliseconds.
    pub fn per_token_p99_ms(&self) -> f64 {
        self.summary.per_token_p99_steps as f64 * self.ms_per_step
    }

    /// Fraction of finished decode tokens delivered by SLO-meeting
    /// requests (the paper-style goodput ratio, 0..=1).
    pub fn goodput_under_slo(&self) -> f64 {
        self.summary.goodput_tokens as f64 / self.summary.total_tokens.max(1) as f64
    }
}

/// The full serving benchmark: clean + preemption legs, the two
/// fault-drill campaigns, and the prefix-sharing sweep, under one SLO.
#[derive(Clone, Debug)]
pub struct ServingBenchReport {
    /// The SLO every leg is judged against.
    pub slo: SloSpec,
    /// Arrival steps in the load window.
    pub load_steps: usize,
    /// Drill trials per campaign.
    pub drill_trials: u64,
    /// Undisturbed serving at the headline load.
    pub clean: ServingLeg,
    /// Same load under an arena bound that forces the pressure ladder.
    pub preemption: ServingLeg,
    /// Value-side flip campaign (online alarm -> evict-and-requeue).
    pub value_drill: DrillStats,
    /// Key-side flip campaign (scrub finding -> repair in place).
    pub key_drill: DrillStats,
    /// Copy-on-write prefix sharing vs independent admission, and
    /// shared-block batched scoring vs per-reader GEMV decode.
    pub prefix_sharing: PrefixSharingBench,
    /// Speculative decode vs sequential checked decode across the
    /// α × γ grid.
    pub speculative: SpeculativeBench,
}

/// One α × γ point of the speculative-decode sweep. A window is γ
/// positions wide: position 0 carries the token the previous verify
/// pass already committed (a verifier always has exactly one such
/// token in flight — its sampled continuation — whose K/V append rides
/// the next window), and the γ−1 positions behind it are draft tokens
/// that accept independently with probability α. The engine scores all
/// γ positions in one batched pass, commits the head plus the accepted
/// draft prefix, and rolls the rejected tail back exactly; the
/// sequential twin delivers the *same* committed token stream one
/// checked `step_decode` at a time.
#[derive(Clone, Copy, Debug)]
pub struct SpeculativePoint {
    /// Speculative window width (positions scored per sequence per
    /// window: one committed head + γ−1 drafts).
    pub gamma: usize,
    /// Target per-draft acceptance rate α driving the seeded accept
    /// schedule over the γ−1 draft positions.
    pub acceptance_rate: f64,
    /// Realized draft acceptance: accepted drafts / drafted tokens
    /// (the committed head positions are excluded from both sides).
    pub measured_acceptance: f64,
    /// Tokens actually delivered (identical in both variants).
    pub delivered_tokens: usize,
    /// Delivered tokens/s through speculate + resolve windows.
    pub tokens_per_s: f64,
    /// Delivered tokens/s through per-token checked `step_decode`.
    pub sequential_tokens_per_s: f64,
    /// Analytic KV bytes streamed per speculative window step: the K/V
    /// panel is swept once for all γ window positions.
    pub bytes_per_step: f64,
    /// Analytic KV bytes streamed per sequential decode step — one
    /// panel sweep per token, so per *step* the cost matches the
    /// window's single sweep while adjudicating 1 token instead of γ.
    pub sequential_bytes_per_step: f64,
    /// Every accepted window position matched the sequential twin's
    /// output bitwise (the rollback-exactness contract).
    pub decode_bitwise_match: bool,
}

/// The speculative-decode sweep: geometry plus one point per α × γ.
#[derive(Clone, Debug)]
pub struct SpeculativeBench {
    /// Concurrent sequences per variant.
    pub batch: usize,
    /// Prompt tokens admitted per sequence before the timed windows.
    pub prefill_tokens: usize,
    /// Speculative windows timed per point.
    pub windows: usize,
    /// One measurement per (α, γ) pair.
    pub points: Vec<SpeculativePoint>,
}

/// Shared-prefix serving economics at one reader count `k`: one prompt
/// of `prefix + suffix` tokens per reader, admitted either through the
/// prefix registry (register once, `k` suffix admissions adopting the
/// prefix blocks) or as `k` independent full prompts, then decoded with
/// shared-block batched scoring on vs off (per-reader GEMV) over the
/// *same* shared cache.
#[derive(Clone, Copy, Debug)]
pub struct PrefixSharingPoint {
    /// Concurrent readers of the shared prefix.
    pub readers: usize,
    /// Wall ms to deliver `k` ready contexts via the registry.
    pub shared_prefill_ms: f64,
    /// Wall ms to deliver the same contexts as independent prompts.
    pub unshared_prefill_ms: f64,
    /// Delivered context tokens/s — both paths hand the decoder
    /// `k·(prefix+suffix)` tokens of ready context, so both are
    /// normalized by that count (the shared path *computes* only
    /// `prefix + k·suffix` of it).
    pub shared_prefill_tokens_per_s: f64,
    /// Same normalization for the independent path.
    pub unshared_prefill_tokens_per_s: f64,
    /// Live arena blocks after shared admission: `prefix_blocks +
    /// k·suffix_blocks` (the O(L + k·suffix) memory claim).
    pub shared_arena_blocks: usize,
    /// Live arena blocks after independent admission:
    /// `k·(prefix_blocks + suffix_blocks)`.
    pub unshared_arena_blocks: usize,
    /// Decode tokens/s with shared-block batched scoring (one K-panel
    /// sweep per physical block feeding all readers).
    pub shared_decode_tokens_per_s: f64,
    /// Decode tokens/s on an identical shared cache with batching
    /// disabled: one GEMV sweep per reader per block.
    pub gemv_decode_tokens_per_s: f64,
    /// Analytic KV bytes streamed per decode step under batching
    /// (shared blocks counted once).
    pub shared_bytes_per_step: f64,
    /// Analytic KV bytes streamed per decode step under per-reader
    /// GEMV (shared blocks counted once per reader).
    pub gemv_bytes_per_step: f64,
    /// Shared-block score tiles formed during the timed decode.
    pub shared_score_tiles: u64,
    /// Batched and GEMV decode produced bit-identical outputs (the
    /// sharing contract: batching is a scheduling choice, not a
    /// numerics choice).
    pub decode_bitwise_match: bool,
}

/// The prefix-sharing sweep: geometry plus one point per reader count.
#[derive(Clone, Debug)]
pub struct PrefixSharingBench {
    /// Shared-prefix length, tokens (block- and chunk-aligned).
    pub prefix_tokens: usize,
    /// Per-reader private suffix length, tokens.
    pub suffix_tokens: usize,
    /// KV block height used by the sweep's engines.
    pub block_rows: usize,
    /// Timed decode steps per point.
    pub decode_steps: usize,
    /// One measurement per reader count.
    pub points: Vec<PrefixSharingPoint>,
}

/// Headline serving topology: 4:2 GQA, head_dim 8, 4-row blocks —
/// the shape the scheduler unit tests and drills run at.
fn engine() -> DecodeBatch<f64> {
    let mut e = DecodeBatch::<f64>::with_policy(
        HeadTopology::gqa(4, 2, AttentionConfig::new(8)),
        4,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    e.set_prefill_chunk(4);
    e
}

/// Runs one serving leg: `load_steps` of generated arrivals, then a
/// bounded drain, timing the whole run to get ms/step.
fn run_leg(cfg: ServeConfig, slo: &SloSpec, load_steps: usize, seed: u64) -> ServingLeg {
    let mut sched = Scheduler::new(engine(), cfg);
    let mut gen = LoadGen::new(LoadSpec::default(), seed);
    let start = Instant::now();
    let mut steps_run = 0u64;
    for _ in 0..load_steps {
        let arrivals = gen.step();
        sched.step(&arrivals);
        steps_run += 1;
    }
    for _ in 0..4000 {
        let r = sched.step(&[]);
        steps_run += 1;
        if sched.queue_len() == 0
            && sched.active_decoding().is_empty()
            && r.prefill_tokens == 0
            && r.decode_tokens == 0
            && r.finished == 0
        {
            break;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ServingLeg {
        summary: sched.summary(slo),
        steps_run,
        ms_per_step: wall_ms / steps_run.max(1) as f64,
    }
}

/// Prefix-sharing sweep topology: 4:2 GQA at head_dim 128 (q rows 512
/// wide, kv rows 256 wide), 16-row blocks, 16-token prefill chunks — a
/// 512-token prefix is 32 full blocks, and at head_dim 128 each kv
/// head's prefix K panel is 512 KiB, so one decode step's per-reader
/// GEMV re-streams ~2 MiB × k from beyond L2 while the batched sweep
/// reads each physical panel once. Smaller head dims keep everything
/// L1/L2-resident and the bandwidth win drowns in bookkeeping — this
/// shape is the regime the shared-prefix optimization exists for.
const PS_BLOCK_ROWS: usize = 16;
const PS_HEAD_DIM: usize = 128;
const PS_QUERY_HEADS: usize = 4;
const PS_KV_HEADS: usize = 2;

fn ps_engine() -> DecodeBatch<f64> {
    let mut e = DecodeBatch::<f64>::with_policy(
        HeadTopology::gqa(
            PS_QUERY_HEADS,
            PS_KV_HEADS,
            AttentionConfig::new(PS_HEAD_DIM),
        ),
        PS_BLOCK_ROWS,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    e.set_prefill_chunk(PS_BLOCK_ROWS);
    e
}

/// `a` stacked on top of `b` (same width).
fn vcat(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
    assert_eq!(a.cols(), b.cols());
    Matrix::from_fn(a.rows() + b.rows(), a.cols(), |r, c| {
        if r < a.rows() {
            a[(r, c)]
        } else {
            b[(r - a.rows(), c)]
        }
    })
}

type Prompt = (Matrix<f64>, Matrix<f64>, Matrix<f64>);

fn ps_prompt(rows: usize, seed: u64) -> Prompt {
    let dist = ElementDist::default();
    let (qd, kd) = (PS_QUERY_HEADS * PS_HEAD_DIM, PS_KV_HEADS * PS_HEAD_DIM);
    (
        Matrix::random_seeded(rows, qd, dist, seed),
        Matrix::random_seeded(rows, kd, dist, seed + 1),
        Matrix::random_seeded(rows, kd, dist, seed + 2),
    )
}

/// Registers the prefix once and admits `k` suffix readers through it,
/// draining chunked admission; returns the ready sequence ids.
fn ps_admit_shared(e: &mut DecodeBatch<f64>, prefix: &Prompt, suffixes: &[Prompt]) -> Vec<usize> {
    let id = e.register_prefix(&prefix.0, &prefix.1, &prefix.2);
    let seqs: Vec<usize> = suffixes
        .iter()
        .map(|(q, k, v)| e.enqueue_shared(id, q, k, v))
        .collect();
    while e.prefill_step_for(&seqs) > 0 {}
    for &s in &seqs {
        e.take_admitted(s).expect("shared reader admitted");
    }
    seqs
}

/// Admits `k` independent full prompts (prefix‖suffix), draining
/// chunked admission; returns the ready sequence ids.
fn ps_admit_unshared(e: &mut DecodeBatch<f64>, prompts: &[Prompt]) -> Vec<usize> {
    let seqs: Vec<usize> = prompts.iter().map(|(q, k, v)| e.enqueue(q, k, v)).collect();
    while e.prefill_step_for(&seqs) > 0 {}
    for &s in &seqs {
        e.take_admitted(s).expect("independent prompt admitted");
    }
    seqs
}

/// Decodes `steps` tokens for every sequence, returning the flattened
/// output rows for bitwise comparison across scoring modes.
fn ps_decode(e: &mut DecodeBatch<f64>, seqs: &[usize], steps: &[Prompt]) -> Vec<Vec<f64>> {
    let mut outs = Vec::with_capacity(seqs.len() * steps.len());
    for (q, k, v) in steps {
        for o in e.step_decode(seqs, q, k, v) {
            outs.push(o.output);
        }
    }
    outs
}

fn measure_prefix_sharing_point(
    prefix: &Prompt,
    readers: usize,
    suffix_tokens: usize,
    decode_steps: usize,
    reps: usize,
) -> PrefixSharingPoint {
    let prefix_tokens = prefix.0.rows();
    let suffixes: Vec<Prompt> = (0..readers)
        .map(|i| ps_prompt(suffix_tokens, 0x9100 + 16 * i as u64))
        .collect();
    let fulls: Vec<Prompt> = suffixes
        .iter()
        .map(|(q, k, v)| (vcat(&prefix.0, q), vcat(&prefix.1, k), vcat(&prefix.2, v)))
        .collect();
    let steps: Vec<Prompt> = (0..decode_steps)
        .map(|t| ps_prompt(readers, 0xD000 + 16 * t as u64))
        .collect();

    let mut shared_prefill_ms = f64::INFINITY;
    let mut unshared_prefill_ms = f64::INFINITY;
    let mut shared_decode_ms = f64::INFINITY;
    let mut gemv_decode_ms = f64::INFINITY;
    let mut shared_arena_blocks = 0;
    let mut unshared_arena_blocks = 0;
    let mut shared_score_tiles = 0;
    let mut decode_bitwise_match = true;
    let mut first_outs: Option<Vec<Vec<f64>>> = None;
    for _ in 0..reps {
        // Registry path: register once, k suffix admissions, then the
        // batched-scoring decode on the shared cache.
        let mut e = ps_engine();
        let t0 = Instant::now();
        let seqs = ps_admit_shared(&mut e, prefix, &suffixes);
        shared_prefill_ms = shared_prefill_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        shared_arena_blocks = e.cache().live_unique_blocks();
        let tiles0 = e.shared_score_tiles();
        let t1 = Instant::now();
        let outs = ps_decode(&mut e, &seqs, &steps);
        shared_decode_ms = shared_decode_ms.min(t1.elapsed().as_secs_f64() * 1e3);
        shared_score_tiles = e.shared_score_tiles() - tiles0;

        // GEMV twin: the identical shared cache, batching disabled —
        // isolates the scoring kernel from the memory layout.
        let mut g = ps_engine();
        g.set_shared_scoring(false);
        let gseqs = ps_admit_shared(&mut g, prefix, &suffixes);
        let t2 = Instant::now();
        let gouts = ps_decode(&mut g, &gseqs, &steps);
        gemv_decode_ms = gemv_decode_ms.min(t2.elapsed().as_secs_f64() * 1e3);

        // Independent path: k full prompts, no registry.
        let mut u = ps_engine();
        let t3 = Instant::now();
        ps_admit_unshared(&mut u, &fulls);
        unshared_prefill_ms = unshared_prefill_ms.min(t3.elapsed().as_secs_f64() * 1e3);
        unshared_arena_blocks = u.cache().live_unique_blocks();

        decode_bitwise_match &= outs == gouts;
        if let Some(first) = &first_outs {
            decode_bitwise_match &= *first == outs;
        } else {
            first_outs = Some(outs);
        }
    }

    // Analytic streamed-KV accounting, exact per step: after the step's
    // append every reader sees prefix + suffix + t + 1 rows. Batching
    // streams each shared physical row once; GEMV streams it per
    // reader. Private suffix rows cost k-fold either way.
    let row_bytes = (2 * PS_KV_HEADS * PS_HEAD_DIM * std::mem::size_of::<f64>()) as f64;
    let (mut shared_bytes, mut gemv_bytes) = (0.0, 0.0);
    for t in 0..decode_steps {
        let private = (suffix_tokens + t + 1) as f64;
        shared_bytes += row_bytes * (prefix_tokens as f64 + readers as f64 * private);
        gemv_bytes += row_bytes * readers as f64 * (prefix_tokens as f64 + private);
    }
    let delivered = (readers * (prefix_tokens + suffix_tokens)) as f64;
    let decoded = (readers * decode_steps) as f64;
    PrefixSharingPoint {
        readers,
        shared_prefill_ms,
        unshared_prefill_ms,
        shared_prefill_tokens_per_s: delivered / shared_prefill_ms * 1e3,
        unshared_prefill_tokens_per_s: delivered / unshared_prefill_ms * 1e3,
        shared_arena_blocks,
        unshared_arena_blocks,
        shared_decode_tokens_per_s: decoded / shared_decode_ms * 1e3,
        gemv_decode_tokens_per_s: decoded / gemv_decode_ms * 1e3,
        shared_bytes_per_step: shared_bytes / decode_steps as f64,
        gemv_bytes_per_step: gemv_bytes / decode_steps as f64,
        shared_score_tiles,
        decode_bitwise_match,
    }
}

/// Runs the prefix-sharing sweep at k ∈ {4, 16, 32} readers.
fn measure_prefix_sharing(quick: bool) -> PrefixSharingBench {
    // Full runs use the headline 512-token prefix (32 full blocks);
    // quick mode shrinks it so the k=32 independent baseline stays CI
    // cheap. Both keep prefix block- and chunk-aligned (no CoW tail:
    // this sweep measures sharing, the CoW paths are property-tested).
    let (prefix_tokens, decode_steps, reps) = if quick { (128, 4, 2) } else { (512, 8, 3) };
    let suffix_tokens = PS_BLOCK_ROWS;
    let prefix = ps_prompt(prefix_tokens, 0x8000);
    let points = [4usize, 16, 32]
        .iter()
        .map(|&k| measure_prefix_sharing_point(&prefix, k, suffix_tokens, decode_steps, reps))
        .collect();
    PrefixSharingBench {
        prefix_tokens,
        suffix_tokens,
        block_rows: PS_BLOCK_ROWS,
        decode_steps,
        points,
    }
}

/// Speculative sweep batch size — the acceptance-criterion shape.
const SP_BATCH: usize = 32;

/// Speculative sweep topology. A window amortizes the *per-step* costs
/// of checked decode — the K/V panel sweep, per-block claim/check
/// bookkeeping, and the fused verdict — across its γ draft positions:
/// one panel stream and one verdict adjudicate γ candidates where the
/// sequential twin pays them once per accepted token. What a window
/// cannot amortize is per-(query, row) score work — bit-identity pins
/// every score to the order-exact scalar `dot` chain, and the window
/// evaluates γ/α more of those chains than the twin. The sweep
/// therefore runs the shape where the amortized per-step costs
/// dominate: head_dim 128 (widest rows, so panel traffic is the
/// per-row cost), one query head per kv head (no extra member dots
/// per streamed row), and a few-hundred-token context. GQA
/// bit-exactness is pinned by the proptests, not measured here.
const SP_HEADS: usize = 1;
const SP_HEAD_DIM: usize = 128;
const SP_BLOCK_ROWS: usize = 16;

/// Per-sequence geometry of one speculative sweep.
#[derive(Clone, Copy)]
struct SpShape {
    query_heads: usize,
    kv_heads: usize,
    head_dim: usize,
    block_rows: usize,
    prefill_tokens: usize,
}

impl SpShape {
    fn q_dim(&self) -> usize {
        self.query_heads * self.head_dim
    }

    fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }
}

/// splitmix64: the deterministic coin behind the accept schedule.
fn sp_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded accepted-prefix length for one (sequence, window): `⌊α·γ⌋`
/// plus a coin on the fractional part, so the realized acceptance
/// converges to α without ever exceeding γ.
fn sp_accept(alpha: f64, gamma: usize, seq: usize, window: usize) -> usize {
    let target = alpha * gamma as f64;
    let base = target.floor() as usize;
    let z = sp_mix(0x5bec_0000_0000_0000 ^ (seq as u64) << 20 ^ window as u64);
    let coin = (z >> 11) as f64 / (1u64 << 53) as f64;
    (base + usize::from(coin < target - base as f64)).min(gamma)
}

/// Seeded row block for the speculative sweep's token streams.
fn sp_rows(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
}

/// Admits `SP_BATCH` seeded prompts on a fresh sweep-shape engine,
/// draining chunked prefill; returns the engine plus ready ids. The
/// result is cloned for every timed run, so prefill cost is paid once
/// per sweep.
fn sp_admit(shape: &SpShape) -> (DecodeBatch<f64>, Vec<usize>) {
    let mut e = DecodeBatch::<f64>::with_policy(
        HeadTopology::gqa(
            shape.query_heads,
            shape.kv_heads,
            AttentionConfig::new(shape.head_dim),
        ),
        shape.block_rows,
        KvLayout::HeadMajor,
        KvFormat::F64,
        EvictionPolicy::RetainAll,
    );
    e.set_prefill_chunk(shape.block_rows);
    let ids: Vec<usize> = (0..SP_BATCH)
        .map(|i| {
            let s = 0xA000 + 64 * i as u64;
            e.enqueue(
                &sp_rows(shape.prefill_tokens, shape.q_dim(), s),
                &sp_rows(shape.prefill_tokens, shape.kv_dim(), s + 1),
                &sp_rows(shape.prefill_tokens, shape.kv_dim(), s + 2),
            )
        })
        .collect();
    while e.prefill_step_for(&ids) > 0 {}
    for &s in &ids {
        e.take_admitted(s)
            .expect("speculative bench prompt admitted");
    }
    (e, ids)
}

/// Measures one α × γ point: precomputes the accept schedule and every
/// draft/step row, then times the speculative window loop and the
/// sequential checked twin over fresh engines, interleaving the
/// variants round-robin across reps, and bit-compares the delivered
/// streams.
fn measure_speculative_point(
    alpha: f64,
    gamma: usize,
    shape: &SpShape,
    base: &DecodeBatch<f64>,
    ids: &[usize],
    windows: usize,
    reps: usize,
) -> SpeculativePoint {
    let (qd, kd) = (shape.q_dim(), shape.kv_dim());
    // Accept schedule + per-window draft matrices, fixed across reps
    // and variants. Position 0 of every window is the committed head
    // (the token the previous verify pass sampled — it cannot reject,
    // so every window delivers at least one token), and α drives the
    // γ−1 draft positions behind it. Accepted position t of sequence i
    // carries the true stream row for its global token index; rejected
    // positions carry rows from a disjoint seed space (they must not
    // collide with any future accepted token).
    let mut accepts: Vec<Vec<usize>> = Vec::with_capacity(windows);
    let mut spec_wins: Vec<Prompt> = Vec::with_capacity(windows);
    let mut seq_steps: Vec<Vec<(Vec<usize>, Prompt)>> = Vec::with_capacity(windows);
    let mut delivered_before = vec![0usize; SP_BATCH];
    let token_seed =
        |i: usize, n: usize, lane: u64| 0xB000_0000 + 4096 * i as u64 + 8 * n as u64 + lane;
    let reject_seed = |i: usize, w: usize, t: usize, lane: u64| {
        0xBAD_0000_0000 + 65536 * i as u64 + 256 * w as u64 + 8 * t as u64 + lane
    };
    for w in 0..windows {
        let acc: Vec<usize> = (0..SP_BATCH)
            .map(|i| 1 + sp_accept(alpha, gamma - 1, i, w))
            .collect();
        let n = SP_BATCH * gamma;
        let (mut q, mut k, mut v) = (
            Matrix::zeros(n, qd),
            Matrix::zeros(n, kd),
            Matrix::zeros(n, kd),
        );
        let mut steps: Vec<(Vec<usize>, Prompt)> = Vec::new();
        for t in 0..gamma {
            let live: Vec<usize> = (0..SP_BATCH).filter(|&i| acc[i] > t).collect();
            let (mut sq, mut sk, mut sv) = (
                Matrix::zeros(live.len(), qd),
                Matrix::zeros(live.len(), kd),
                Matrix::zeros(live.len(), kd),
            );
            for (row, &i) in live.iter().enumerate() {
                let tok = delivered_before[i] + t;
                for (m, sm, cols, lane) in [
                    (&mut q, &mut sq, qd, 0u64),
                    (&mut k, &mut sk, kd, 1),
                    (&mut v, &mut sv, kd, 2),
                ] {
                    let r = sp_rows(1, cols, token_seed(i, tok, lane));
                    for c in 0..cols {
                        m[(i * gamma + t, c)] = r[(0, c)];
                        sm[(row, c)] = r[(0, c)];
                    }
                }
            }
            for i in (0..SP_BATCH).filter(|&i| acc[i] <= t) {
                for (m, cols, lane) in [(&mut q, qd, 0u64), (&mut k, kd, 1), (&mut v, kd, 2)] {
                    let r = sp_rows(1, cols, reject_seed(i, w, t, lane));
                    for c in 0..cols {
                        m[(i * gamma + t, c)] = r[(0, c)];
                    }
                }
            }
            if !live.is_empty() {
                steps.push((live, (sq, sk, sv)));
            }
        }
        for i in 0..SP_BATCH {
            delivered_before[i] += acc[i];
        }
        accepts.push(acc);
        spec_wins.push((q, k, v));
        seq_steps.push(steps);
    }
    let delivered_tokens: usize = accepts.iter().flatten().sum();
    // Draft acceptance over the γ−1 draftable positions: the committed
    // heads (one per sequence per window) come off both sides.
    let heads = windows * SP_BATCH;
    let drafted = heads * (gamma - 1);

    // Noise handling for a shared 1-core host: a scheduling spike that
    // lands mid-timing should only poison the window it hit, not the
    // whole variant. Each window (and its sequential twin's token
    // steps) is timed on its own, the per-window minimum is taken
    // across reps, and the variant's time is the sum of those minima.
    // Both variants get identical treatment — interleaved within every
    // rep, alternating which runs first so neither inherits the
    // other's cache/allocator residue asymmetrically.
    let mut spec_win_ms = vec![f64::INFINITY; windows];
    let mut seq_win_ms = vec![f64::INFINITY; windows];
    let mut decode_bitwise_match = true;

    // State-neutral warmup, identical for both variants: one
    // speculate + full rollback touches the allocator pools and
    // cache lines the timed windows will, commits nothing, and
    // keeps the post-clone cold window out of both measurements.
    let warm = |eng: &mut DecodeBatch<f64>| {
        let (q0, k0, v0) = &spec_wins[0];
        eng.speculate(ids, q0, k0, v0, gamma);
        eng.resolve_speculation(&vec![0; SP_BATCH]);
    };

    // Speculative variant: one batched window pass + prefix resolve
    // per window.
    let run_spec = |win_ms: &mut [f64]| -> Vec<Vec<f64>> {
        let mut e = base.clone();
        warm(&mut e);
        let mut spec_outs: Vec<Vec<f64>> = Vec::new();
        for w in 0..windows {
            let (q, k, v) = &spec_wins[w];
            let t0 = Instant::now();
            let outs = e.speculate(ids, q, k, v, gamma);
            std::hint::black_box(e.resolve_speculation(&accepts[w]));
            win_ms[w] = win_ms[w].min(t0.elapsed().as_secs_f64() * 1e3);
            for t in 0..gamma {
                for (i, o) in outs.iter().enumerate() {
                    if accepts[w][i] > t {
                        spec_outs.push(o[t].output.clone());
                    }
                }
            }
        }
        spec_outs
    };

    // Sequential checked twin: the same accepted stream, one
    // verdict-carrying step_decode per token.
    let run_seq = |win_ms: &mut [f64]| -> Vec<Vec<f64>> {
        let mut g = base.clone();
        warm(&mut g);
        let mut seq_outs: Vec<Vec<f64>> = Vec::new();
        for (w, steps) in seq_steps.iter().enumerate() {
            let live_ids: Vec<Vec<usize>> = steps
                .iter()
                .map(|(live, _)| live.iter().map(|&i| ids[i]).collect())
                .collect();
            let t1 = Instant::now();
            let outs: Vec<_> = steps
                .iter()
                .zip(&live_ids)
                .map(|((_, (q, k, v)), lids)| g.step_decode(lids, q, k, v))
                .collect();
            win_ms[w] = win_ms[w].min(t1.elapsed().as_secs_f64() * 1e3);
            for step in outs {
                for o in step {
                    seq_outs.push(o.output);
                }
            }
        }
        seq_outs
    };

    for rep in 0..reps {
        let (spec_outs, seq_outs) = if rep % 2 == 0 {
            let s = run_spec(&mut spec_win_ms);
            (s, run_seq(&mut seq_win_ms))
        } else {
            let q = run_seq(&mut seq_win_ms);
            (run_spec(&mut spec_win_ms), q)
        };
        if rep == 0 {
            decode_bitwise_match = spec_outs == seq_outs;
        }
    }
    let spec_ms: f64 = spec_win_ms.iter().sum();
    let seq_ms: f64 = seq_win_ms.iter().sum();

    // Analytic streamed-KV accounting: one speculative window sweeps
    // each sequence's K/V panel once (through its in-window tail) for
    // all γ positions. The baseline it replaces is γ full-batch
    // sequential steps, each sweeping the same panel for one token —
    // so per *step* the traffic is unchanged while the window
    // adjudicates γ candidates on its single sweep.
    let row_bytes = (2 * kd * std::mem::size_of::<f64>()) as f64;
    let (mut spec_bytes, mut seq_bytes) = (0.0, 0.0);
    let mut len = vec![shape.prefill_tokens; SP_BATCH];
    for acc in &accepts {
        for &l in &len {
            spec_bytes += row_bytes * (l + gamma) as f64;
            for t in 0..gamma {
                seq_bytes += row_bytes * (l + t + 1) as f64;
            }
        }
        for (l, &a) in len.iter_mut().zip(acc) {
            *l += a;
        }
    }
    SpeculativePoint {
        gamma,
        acceptance_rate: alpha,
        measured_acceptance: (delivered_tokens - heads) as f64 / drafted as f64,
        delivered_tokens,
        tokens_per_s: delivered_tokens as f64 / spec_ms * 1e3,
        sequential_tokens_per_s: delivered_tokens as f64 / seq_ms * 1e3,
        bytes_per_step: spec_bytes / windows as f64,
        sequential_bytes_per_step: seq_bytes / (windows * gamma) as f64,
        decode_bitwise_match,
    }
}

/// Runs the speculative sweep over α ∈ {0.3, 0.6, 0.9} × γ ∈ {2, 4, 8}
/// at batch 32. Full runs use a 256-token context (the batch's K/V
/// panels make the panel sweep the dominant per-step cost without
/// drowning the run in scalar score chains) and take the min over
/// enough reps to ride out scheduler noise on a shared core; quick
/// mode shrinks the context, window count, and reps to stay CI-cheap
/// (the structural claims still hold there, the win just shrinks).
fn measure_speculative(quick: bool) -> SpeculativeBench {
    let (prefill_tokens, windows, reps) = if quick { (128, 4, 2) } else { (256, 12, 13) };
    let shape = SpShape {
        query_heads: SP_HEADS,
        kv_heads: SP_HEADS,
        head_dim: SP_HEAD_DIM,
        block_rows: SP_BLOCK_ROWS,
        prefill_tokens,
    };
    let (base, ids) = sp_admit(&shape);
    let mut points = Vec::new();
    for &gamma in &[2usize, 4, 8] {
        for &alpha in &[0.3f64, 0.6, 0.9] {
            points.push(measure_speculative_point(
                alpha, gamma, &shape, &base, &ids, windows, reps,
            ));
        }
    }
    SpeculativeBench {
        batch: SP_BATCH,
        prefill_tokens,
        windows,
        points,
    }
}

/// Runs the serving benchmark. `quick` shrinks the load window and
/// drill trial counts for CI smoke runs.
pub fn measure(quick: bool) -> ServingBenchReport {
    let (load_steps, drill_trials) = if quick { (40, 6u64) } else { (160, 24u64) };
    let slo = SloSpec {
        ttft_steps: 16,
        per_token_steps: 6,
    };
    let base_cfg = ServeConfig {
        scrub_slo_steps: Some(4),
        ..ServeConfig::default()
    };
    let clean = run_leg(base_cfg, &slo, load_steps, 0xC1EA);

    // Pressure leg: bound the arena at 8 KiB of live KV (8 native
    // blocks at this shape) so the ladder fires — demote first, then
    // evict-and-requeue — while the same load replays (same seed).
    let pressured = ServeConfig {
        max_kv_bytes: Some(8 * 1024),
        ..base_cfg
    };
    let preemption = run_leg(pressured, &slo, load_steps, 0xC1EA);

    let drill = |key_side: bool, seed: u64| {
        run_drill(&DrillSpec::new(drill_trials, seed).with_injections(1, key_side))
    };
    let value_drill = drill(false, 0xD211);
    let key_drill = drill(true, 0xD213);
    let prefix_sharing = measure_prefix_sharing(quick);
    let speculative = measure_speculative(quick);

    ServingBenchReport {
        slo,
        load_steps,
        drill_trials,
        clean,
        preemption,
        value_drill,
        key_drill,
        prefix_sharing,
        speculative,
    }
}

fn leg_json(leg: &ServingLeg) -> Json {
    let s = &leg.summary;
    obj! {
        "steps_run" => leg.steps_run,
        "ms_per_step" => Json::fixed(leg.ms_per_step, 6),
        "submitted" => s.submitted, "finished" => s.finished, "shed" => s.shed,
        "ttft_p50_steps" => s.ttft_p50_steps,
        "ttft_p99_steps" => s.ttft_p99_steps,
        "per_token_p99_steps" => s.per_token_p99_steps,
        "ttft_p50_ms" => Json::fixed(leg.ttft_p50_ms(), 4),
        "ttft_p99_ms" => Json::fixed(leg.ttft_p99_ms(), 4),
        "per_token_p99_ms" => Json::fixed(leg.per_token_p99_ms(), 4),
        "slo_met" => s.slo_met,
        "goodput_tokens" => s.goodput_tokens,
        "total_tokens" => s.total_tokens,
        "goodput_under_slo" => Json::fixed(leg.goodput_under_slo(), 4),
        "demotions" => s.demotions, "preemptions" => s.preemptions,
        "quarantines" => s.quarantines,
    }
}

/// Serializes a golden-twin drill's counters and rates after `setup`,
/// the object members that say how the drill ran.
pub(crate) fn drill_json(setup: Json, st: &DrillStats) -> Json {
    let counters = obj! {
        "trials" => st.trials, "drained" => st.drained_trials,
        "injections_landed" => st.injections_landed,
        "online_alarms" => st.online_alarms, "scrub_findings" => st.scrub_findings,
        "repaired_blocks" => st.repaired_blocks,
        "unrecoverable_blocks" => st.unrecoverable_blocks,
        "demotions" => st.demotions, "preemptions" => st.preemptions,
        "quarantines" => st.quarantines,
        "finished_both" => st.finished_both, "shed_subject" => st.shed_subject,
        "tokens_compared" => st.tokens_compared, "tokens_divergent" => st.tokens_divergent,
        "divergent_requests" => st.divergent_requests,
        "quarantined_requests" => st.quarantined_requests,
        "recovered_requests" => st.recovered_requests,
        "detection_pct" => Json::fixed(st.detection_pct(), 2),
        "recovery_pct" => Json::fixed(st.recovery_pct(), 2),
        "token_fidelity_pct" => Json::fixed(st.token_fidelity_pct(), 2),
    };
    let (Json::Obj(mut members), Json::Obj(counters)) = (setup, counters) else {
        unreachable!("drill setup and counters are objects");
    };
    members.extend(counters);
    Json::Obj(members)
}

fn prefix_sharing_json(ps: &PrefixSharingBench) -> Json {
    let points = ps.points.iter().map(|p| {
        obj! {
            "readers" => p.readers,
            "shared_prefill_ms" => Json::fixed(p.shared_prefill_ms, 3),
            "unshared_prefill_ms" => Json::fixed(p.unshared_prefill_ms, 3),
            "shared_prefill_tokens_per_s" => Json::fixed(p.shared_prefill_tokens_per_s, 1),
            "unshared_prefill_tokens_per_s" => Json::fixed(p.unshared_prefill_tokens_per_s, 1),
            "shared_arena_blocks" => p.shared_arena_blocks,
            "unshared_arena_blocks" => p.unshared_arena_blocks,
            "shared_decode_tokens_per_s" => Json::fixed(p.shared_decode_tokens_per_s, 1),
            "gemv_decode_tokens_per_s" => Json::fixed(p.gemv_decode_tokens_per_s, 1),
            "shared_bytes_per_step" => Json::fixed(p.shared_bytes_per_step, 0),
            "gemv_bytes_per_step" => Json::fixed(p.gemv_bytes_per_step, 0),
            "shared_score_tiles" => p.shared_score_tiles,
            "decode_bitwise_match" => p.decode_bitwise_match,
        }
    });
    obj! {
        "prefix_tokens" => ps.prefix_tokens,
        "suffix_tokens" => ps.suffix_tokens,
        "block_rows" => ps.block_rows,
        "decode_steps" => ps.decode_steps,
        "points" => Json::Arr(points.collect()),
    }
}

fn speculative_json(sp: &SpeculativeBench) -> Json {
    let points = sp.points.iter().map(|p| {
        obj! {
            "gamma" => p.gamma,
            "acceptance_rate" => Json::fixed(p.acceptance_rate, 2),
            "measured_acceptance" => Json::fixed(p.measured_acceptance, 4),
            "delivered_tokens" => p.delivered_tokens,
            "tokens_per_s" => Json::fixed(p.tokens_per_s, 1),
            "sequential_tokens_per_s" => Json::fixed(p.sequential_tokens_per_s, 1),
            "bytes_per_step" => Json::fixed(p.bytes_per_step, 0),
            "sequential_bytes_per_step" => Json::fixed(p.sequential_bytes_per_step, 0),
            "decode_bitwise_match" => p.decode_bitwise_match,
        }
    });
    obj! {
        "batch" => sp.batch,
        "prefill_tokens" => sp.prefill_tokens,
        "windows" => sp.windows,
        "points" => Json::Arr(points.collect()),
    }
}

impl ServingBenchReport {
    /// Serializes the report for `BENCH_serving.json`.
    pub fn to_json(&self) -> String {
        obj! {
            "schema" => "serving-bench/v1",
            "slo" => obj! {
                "ttft_steps" => self.slo.ttft_steps,
                "per_token_steps" => self.slo.per_token_steps,
            },
            "load_steps" => self.load_steps,
            "clean" => leg_json(&self.clean),
            "preemption" => leg_json(&self.preemption),
            "fault_drill" => obj! {
                "trials" => self.drill_trials,
                "value" => drill_json(obj! {}, &self.value_drill),
                "key" => drill_json(obj! {}, &self.key_drill),
            },
            "prefix_sharing" => prefix_sharing_json(&self.prefix_sharing),
            "speculative" => speculative_json(&self.speculative),
        }
        .write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_covers_all_three_legs_and_required_keys() {
        let report = measure(true);

        // Clean leg serves and finishes load under the SLO.
        let c = &report.clean.summary;
        assert!(c.finished > 0, "clean leg must finish requests");
        assert_eq!(c.quarantines, 0, "no corruption in the clean leg");
        assert_eq!(c.preemptions, 0, "no pressure in the clean leg");
        assert!(report.clean.ms_per_step > 0.0);
        let g = report.clean.goodput_under_slo();
        assert!((0.0..=1.0).contains(&g));

        // Pressure leg actually exercises the ladder.
        let p = &report.preemption.summary;
        assert!(
            p.demotions + p.preemptions > 0,
            "the 8 KiB bound must force the pressure ladder"
        );
        assert!(p.finished > 0, "pressured serving still finishes requests");

        // Drills: value flips recover bit-exact; key flips keep fidelity.
        assert!(report.value_drill.injections_landed > 0);
        assert_eq!(report.value_drill.tokens_divergent, 0);
        assert!(report.key_drill.injections_landed > 0);
        assert!(report.key_drill.token_fidelity_pct() > 90.0);

        // The JSON parses and carries every key CI greps for.
        crate::assert_paths(
            &report.to_json(),
            &[
                "clean.ttft_p50_ms",
                "clean.ttft_p99_ms",
                "clean.per_token_p99_ms",
                "clean.goodput_under_slo",
                "fault_drill.value.token_fidelity_pct",
                "fault_drill.key.divergent_requests",
                "preemption.ttft_p99_ms",
                "prefix_sharing.points.0.decode_bitwise_match",
                "speculative.points.0.gamma",
                "speculative.points.0.acceptance_rate",
                "speculative.points.0.tokens_per_s",
                "speculative.points.0.bytes_per_step",
                "speculative.points.0.decode_bitwise_match",
            ],
        );
    }

    #[test]
    fn speculative_sweep_holds_structural_invariants() {
        let sp = measure_speculative(true);
        assert_eq!(sp.batch, 32, "the acceptance criterion is a batch-32 shape");
        assert_eq!(sp.points.len(), 9, "3 gammas x 3 alphas");
        for p in &sp.points {
            let (g, a) = (p.gamma, p.acceptance_rate);
            // Rollback exactness: every delivered window position must
            // equal the sequential twin's checked output bitwise.
            assert!(p.decode_bitwise_match, "γ={g} α={a}: bitwise mismatch");
            // Every window commits at least its head token (the
            // previous verify's sampled continuation cannot reject).
            assert!(
                p.delivered_tokens >= sp.windows * sp.batch,
                "γ={g} α={a}: some window delivered nothing"
            );
            // The seeded accept schedule realizes α over the draft
            // positions within the coin's binomial wiggle.
            assert!(
                (p.measured_acceptance - a).abs() < 0.1,
                "γ={g} α={a}: measured {}",
                p.measured_acceptance
            );
            assert!(p.tokens_per_s > 0.0 && p.sequential_tokens_per_s > 0.0);
            // The headline bytes claim: one speculative window streams
            // the same panel one sequential step does (within the γ
            // in-window draft rows), while adjudicating γ candidates.
            assert!(
                (p.bytes_per_step - p.sequential_bytes_per_step).abs()
                    < p.sequential_bytes_per_step * 0.25,
                "γ={g} α={a}: window bytes {} vs step bytes {}",
                p.bytes_per_step,
                p.sequential_bytes_per_step
            );
        }
    }

    #[test]
    fn prefix_sharing_sweep_holds_structural_invariants() {
        let ps = measure_prefix_sharing(true);
        let prefix_blocks = ps.prefix_tokens / ps.block_rows;
        let suffix_blocks = ps.suffix_tokens.div_ceil(ps.block_rows);
        assert_eq!(ps.prefix_tokens % ps.block_rows, 0, "prefix block-aligned");
        assert_eq!(
            ps.points.iter().map(|p| p.readers).collect::<Vec<_>>(),
            vec![4, 16, 32]
        );
        for p in &ps.points {
            let k = p.readers;
            // The O(L + k·suffix) memory claim, exactly: the registry
            // pins the prefix blocks once and every reader adopts them.
            assert_eq!(
                p.shared_arena_blocks,
                prefix_blocks + k * suffix_blocks,
                "k={k}: shared arena is prefix + k private suffixes"
            );
            assert_eq!(
                p.unshared_arena_blocks,
                k * (prefix_blocks + suffix_blocks),
                "k={k}: independent arena replicates the prefix k times"
            );
            // Batching is a scheduling choice, not a numerics choice.
            assert!(p.decode_bitwise_match, "k={k}: batched == GEMV bitwise");
            assert!(
                p.shared_score_tiles > 0,
                "k={k}: equal-length readers must form score tiles"
            );
            // Analytic bytes: batching streams each shared row once.
            assert!(
                p.shared_bytes_per_step < p.gemv_bytes_per_step,
                "k={k}: batched scoring streams fewer bytes"
            );
            assert!(p.shared_prefill_tokens_per_s > 0.0);
            assert!(p.unshared_prefill_tokens_per_s > 0.0);
            assert!(p.shared_decode_tokens_per_s > 0.0);
            assert!(p.gemv_decode_tokens_per_s > 0.0);
        }
    }
}

//! The traced run: per-layer metrics measured from outside the engine.
//!
//! 1. `host.stream_gbps`: a streaming read over a buffer larger than the
//!    last-level cache, with the engine's thread count.
//! 2. The workload is served untraced, then again with a span around every
//!    `Scheduler::step` and the engine's public counters read between
//!    steps; the mean step times of equal-length prefixes of the two
//!    windows give `trace.overhead_pct`.
//! 3. The traced session's per-step shapes (admissions, prefill tokens,
//!    the decode set, windows with accepted counts, retirements), recovered
//!    from `Scheduler::records` and the step reports, are replayed through
//!    a bare `DecodeBatch` of the same geometry with a span on every public
//!    call. At γ = 0 a second engine holding the same cache shapes decodes
//!    through `step_all_unchecked`, interleaved with `step_decode`, for the
//!    checksum's engine-level cost.
//! 4. The `fa_tensor::ops` kernels are timed at the workload's panel shapes
//!    over a buffer the size of the workload's peak live KV cache.
//!
//! The replay's spans are an estimate of the engine time inside each
//! scheduler step: it runs the same calls on the same shapes, not the same
//! bits, and after the step it mirrors.

use crate::json::Metrics;
use crate::run::{self, EndToEnd, Session, StepLog, PREFILL_BUDGET, SCRUB_SLO_STEPS, TOKEN_BUDGET};
use crate::stats;
use crate::workload::Workload;
use crate::CHECK_SAMPLES;
use fa_attention::batch::ScrubPolicy;
use fa_attention::{flash2, AttentionConfig};
use fa_tensor::ops;
use fa_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Streaming buffer for the host ceiling: well past the 300 MiB L3 of the
/// reference host.
const STREAM_BYTES: usize = 1 << 30;
/// Rows of random Q/K/V the replay copies its inputs from.
const POOL_ROWS: usize = 1024;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn mean_step_ms(steps: &[StepLog]) -> f64 {
    stats::mean(&steps.iter().map(StepLog::ms).collect::<Vec<_>>())
}

/// Runs `f(part, chunk)` over `threads` contiguous parts of `buf` on
/// scoped threads and returns the wall time in seconds.
fn parallel_sweep(buf: &[f64], threads: usize, f: impl Fn(&[f64]) + Sync) -> f64 {
    let part = buf.len().div_ceil(threads);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for chunk in buf.chunks(part) {
            let f = &f;
            scope.spawn(move || f(chunk));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Best-of-three streaming read rate over [`STREAM_BYTES`], in GB/s.
fn host_stream_gbps(threads: usize) -> f64 {
    let buf = vec![1.0f64; STREAM_BYTES / 8];
    (0..3)
        .map(|_| {
            let secs = parallel_sweep(&buf, threads, |part| {
                // Eight independent sums keep the loop load-bound.
                let mut acc = [0.0f64; 8];
                for c in part.chunks_exact(8) {
                    for (a, &x) in acc.iter_mut().zip(c) {
                        *a += x;
                    }
                }
                black_box(acc);
            });
            STREAM_BYTES as f64 / secs / 1e9
        })
        .fold(0.0, f64::max)
}

/// Kernel rates at the engine's panel shapes.
struct Kernels {
    dot_rows_gbps: f64,
    axpy_gbps: f64,
    multi_q4_gbps: f64,
    multi_q16_gbps: f64,
    fused_checksum_overhead_pct: f64,
}

fn kernels(
    buffer_bytes: usize,
    threads: usize,
    head_dim: usize,
    block_rows: usize,
    group: usize,
    gamma: usize,
) -> Kernels {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let buf: Vec<f64> = (0..buffer_bytes / 8)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let panel = head_dim * block_rows;
    let bytes = (buf.len() / panel * panel * 8) as f64;
    let queries =
        |n: usize| -> Vec<f64> { (0..n * head_dim).map(|i| (i % 7) as f64 * 0.1).collect() };
    let scale = 1.0 / (head_dim as f64).sqrt();
    // Median of five sweeps, each over the whole buffer.
    let rate = |f: &(dyn Fn(&[f64]) + Sync)| -> f64 {
        let runs: Vec<f64> = (0..5)
            .map(|_| bytes / parallel_sweep(&buf, threads, f) / 1e9)
            .collect();
        stats::median(&runs)
    };
    let q1 = queries(1);
    let dot_rows_gbps = rate(&|part: &[f64]| {
        let mut out = Vec::with_capacity(block_rows);
        for p in part.chunks_exact(panel) {
            ops::dot_then_scale_rows(&q1, p, head_dim, block_rows, scale, &mut out);
            black_box(&out);
        }
    });
    let axpy_gbps = rate(&|part: &[f64]| {
        let mut acc = vec![0.0f64; head_dim];
        for row in part.chunks_exact(head_dim) {
            ops::axpy_f64(&mut acc, row, 0.999, 0.001);
        }
        black_box(&acc);
    });
    let multi = |nq: usize| {
        let qs = queries(nq);
        rate(&|part: &[f64]| {
            let mut out = Vec::with_capacity(nq * block_rows);
            for p in part.chunks_exact(panel) {
                ops::dot_then_scale_rows_multi(
                    &qs, head_dim, p, head_dim, block_rows, scale, &mut out,
                );
                black_box(&out);
            }
        })
    };
    let multi_q4_gbps = multi(group);
    let multi_q16_gbps = multi(group * gamma.max(4));

    // The paper's cost at kernel level: the fused checksum pass against the
    // plain FlashAttention-2 pass, N = 1024, interleaved in alternating order.
    let n = 1024;
    let cfg = AttentionConfig::new(head_dim);
    let m = |seed| Matrix::<f64>::random_seeded(n, head_dim, Default::default(), seed);
    let (q, k, v) = (m(1), m(2), m(3));
    let mut ratios = Vec::new();
    for i in 0..7 {
        let plain = || timed(|| black_box(flash2::attention(&q, &k, &v, &cfg))).1;
        let checked = || timed(|| black_box(flash_abft::flash2_with_checksum(&q, &k, &v, &cfg))).1;
        let (p, c) = if i % 2 == 0 {
            let p = plain();
            (p, checked())
        } else {
            let c = checked();
            (plain(), c)
        };
        ratios.push(c / p);
    }
    Kernels {
        dot_rows_gbps,
        axpy_gbps,
        multi_q4_gbps,
        multi_q16_gbps,
        fused_checksum_overhead_pct: (stats::median(&ratios) - 1.0) * 100.0,
    }
}

/// Spans of one replayed public call.
#[derive(Default)]
struct Calls(HashMap<&'static str, Vec<(usize, f64)>>);

impl Calls {
    fn add(&mut self, name: &'static str, step: usize, ms: f64) {
        self.0.entry(name).or_default().push((step, ms));
    }

    /// Durations of `name` calls made during steps in `range`.
    fn ms(&self, name: &str, range: &std::ops::Range<usize>) -> Vec<f64> {
        self.0.get(name).map_or(Vec::new(), |v| {
            v.iter()
                .filter(|(s, _)| range.contains(s))
                .map(|&(_, ms)| ms)
                .collect()
        })
    }
}

/// One request as the replay tracks it.
struct Live {
    rec: usize,
    a: usize,
    b: Option<usize>,
    /// Step whose prefill finished the admission.
    ready: Option<usize>,
}

/// What the replay measured.
struct Replay {
    calls: Calls,
    /// Engine milliseconds (checked engine only) inside each step.
    engine_ms: Vec<f64>,
    /// Per decode step: tokens, bytes of the unique cache blocks read.
    decode: Vec<(usize, usize, f64)>,
    /// Paired `step_decode` / `step_all_unchecked` times per step.
    pairs: Vec<(usize, f64, f64)>,
    /// Prompt tokens of window requests admitted behind a resident prefix,
    /// and all their prompt tokens.
    prefix_hit_tokens: usize,
    prompt_tokens: usize,
    /// Steps whose replayed shape disagreed with the scheduler's report.
    mismatched_steps: usize,
}

/// Random Q/K/V rows the replay slices its inputs from.
struct Pool {
    q: Vec<f64>,
    kv: Vec<f64>,
    qd: usize,
    kd: usize,
}

impl Pool {
    fn new(qd: usize, kd: usize) -> Pool {
        let mut rng = StdRng::seed_from_u64(0x7265_706c);
        let mut gen = |n: usize| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Pool {
            q: gen(POOL_ROWS * qd),
            kv: gen(POOL_ROWS * kd * 2),
            qd,
            kd,
        }
    }

    fn take(src: &[f64], width: usize, rows: usize, offset: usize) -> Matrix<f64> {
        let mut data = Vec::with_capacity(rows * width);
        for r in 0..rows {
            let at = ((offset + r) % POOL_ROWS) * width;
            data.extend_from_slice(&src[at..at + width]);
        }
        Matrix::from_vec(rows, width, data)
    }

    /// `rows` rows of Q, K and V.
    fn rows(&self, rows: usize) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Pool::take(&self.q, self.qd, rows, 0),
            Pool::take(&self.kv, self.kd, rows, 0),
            Pool::take(&self.kv, self.kd, rows, POOL_ROWS / 2),
        )
    }
}

fn replay(s: &Session, window: &std::ops::Range<usize>) -> Replay {
    let records = s.sched.records();
    let gamma = s.spec.gamma;
    let mut a = run::engine();
    a.enable_recovery_log();
    a.set_scrub_policy(Some(ScrubPolicy::for_target_latency(SCRUB_SLO_STEPS, 1)));
    // The unchecked twin only mirrors the cache shapes decode reads.
    let mut b = (gamma < 2).then(run::engine);
    let topo = *a.config();
    let (qd, kd) = (topo.q_dim(), topo.kv_dim());
    let block_bytes = run::BLOCK_ROWS * kd * 8 * 2;
    let pool = Pool::new(qd, kd);
    let empty = |w| Matrix::<f64>::zeros(0, w);

    let nsteps = s.steps.len();
    let mut admitted: Vec<Vec<usize>> = vec![Vec::new(); nsteps];
    let mut finished: Vec<Vec<usize>> = vec![Vec::new(); nsteps];
    let mut tokens_at: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nsteps];
    for (rec, r) in records.iter().enumerate() {
        if let Some(st) = r.admitted_step {
            admitted[st as usize].push(rec);
        }
        if let Some(st) = r.finish_step {
            finished[st as usize].push(rec);
        }
        for &st in &r.token_steps {
            let at = &mut tokens_at[st as usize];
            match at.last_mut() {
                Some((last, n)) if *last == rec => *n += 1,
                _ => at.push((rec, 1)),
            }
        }
    }

    let mut out = Replay {
        calls: Calls::default(),
        engine_ms: vec![0.0; nsteps],
        decode: Vec::new(),
        pairs: Vec::new(),
        prefix_hit_tokens: 0,
        prompt_tokens: 0,
        mismatched_steps: 0,
    };
    let mut prefixes: HashMap<(u64, usize), (usize, Option<usize>)> = HashMap::new();
    let mut active: Vec<Live> = Vec::new();
    for (step, log) in s.steps.iter().enumerate() {
        let mut engine_ms = 0.0;
        let mut call = |out: &mut Replay, name: &'static str, ms: f64| {
            out.calls.add(name, step, ms);
            engine_ms += ms;
        };

        // Admissions, in record order.
        let mut registered = 0;
        for &rec in &admitted[step] {
            let r = &records[rec];
            let (q, k, v) = pool.rows(r.prompt_tokens);
            let seq = match r.prefix_seed {
                None => {
                    let (seq, ms) = timed(|| a.enqueue(&q, &k, &v));
                    call(&mut out, "enqueue", ms);
                    seq
                }
                Some(pseed) => {
                    let key = (pseed, r.prefix_tokens);
                    let hit = prefixes.contains_key(&key);
                    if !hit {
                        let (pq, pk, pv) = pool.rows(r.prefix_tokens);
                        let (id, ms) = timed(|| a.register_prefix(&pq, &pk, &pv));
                        call(&mut out, "register_prefix", ms);
                        let bid = b.as_mut().map(|b| b.register_prefix(&pq, &pk, &pv));
                        prefixes.insert(key, (id, bid));
                        registered += r.prefix_tokens;
                    }
                    if window.contains(&step) && hit {
                        out.prefix_hit_tokens += r.prefix_tokens;
                    }
                    let (seq, ms) = timed(|| a.enqueue_shared(prefixes[&key].0, &q, &k, &v));
                    call(&mut out, "enqueue_shared", ms);
                    seq
                }
            };
            if window.contains(&step) {
                out.prompt_tokens += r.prefix_tokens + r.prompt_tokens;
            }
            active.push(Live {
                rec,
                a: seq,
                b: None,
                ready: None,
            });
        }

        // Prefill under the scheduler's rule: admission order, the first
        // pending prompt always advances, the rest fit the prefill budget.
        let chunk = a.prefill_chunk();
        let mut set = Vec::new();
        let mut claim = 0;
        for l in &active {
            let pend = a.pending_len(l.a).min(chunk);
            if pend == 0 || (claim > 0 && claim + pend > PREFILL_BUDGET) {
                continue;
            }
            claim += pend;
            set.push(l.a);
        }
        let (prefilled, ms) = timed(|| a.prefill_step_for(&set));
        if !set.is_empty() {
            call(&mut out, "prefill_step_for", ms);
        }
        if prefilled + registered != log.report.prefill_tokens {
            out.mismatched_steps += 1;
        }
        for l in &mut active {
            if l.ready.is_some() || a.is_pending(l.a) {
                continue;
            }
            l.ready = Some(step);
            a.take_admitted(l.a);
            if let Some(b) = b.as_mut() {
                let r = &records[l.rec];
                let (_, k, v) = pool.rows(r.prompt_tokens);
                let seq = match r.prefix_seed {
                    None => b.add_sequence(),
                    Some(pseed) => {
                        let bid = prefixes[&(pseed, r.prefix_tokens)]
                            .1
                            .expect("twin registered");
                        let seq = b.enqueue_shared(bid, &empty(qd), &empty(kd), &empty(kd));
                        b.take_admitted(seq);
                        seq
                    }
                };
                b.prefill(seq, &k, &v);
                l.b = Some(seq);
            }
        }

        // Decode: the requests that received tokens this step.
        let by_rec: HashMap<usize, usize> = tokens_at[step].iter().copied().collect();
        if gamma < 2 {
            let chosen: Vec<&Live> = active
                .iter()
                .filter(|l| by_rec.contains_key(&l.rec))
                .collect();
            if !chosen.is_empty() {
                let n = chosen.len();
                let ids: Vec<usize> = chosen.iter().map(|l| l.a).collect();
                let bids: Vec<usize> = chosen.iter().map(|l| l.b.expect("twin admitted")).collect();
                let (q, k, v) = pool.rows(n);
                let b = b.as_mut().expect("γ < 2 keeps a twin");
                let mut checked = || timed(|| black_box(a.step_decode(&ids, &q, &k, &v))).1;
                let mut unchecked =
                    || timed(|| black_box(b.step_all_unchecked(&bids, &q, &k, &v))).1;
                let (tc, tu) = if step % 2 == 0 {
                    let tc = checked();
                    (tc, unchecked())
                } else {
                    let tu = unchecked();
                    (checked(), tu)
                };
                call(&mut out, "step_decode", tc);
                out.calls.add("step_all_unchecked", step, tu);
                out.pairs.push((step, tc, tu));
                let blocks: HashSet<(usize, bool)> = ids
                    .iter()
                    .flat_map(|&sq| a.cache().seq_blocks(sq).iter().map(|b| (b.index, b.bf16)))
                    .collect();
                out.decode
                    .push((step, n, (blocks.len() * block_bytes) as f64));
            }
        } else {
            // Windows that delivered tokens, then as many zero-accept
            // windows as the report says ran, on other decoding requests.
            let windows = log.report.speculated_tokens / gamma;
            let mut ids = Vec::with_capacity(windows);
            let mut accepted = Vec::with_capacity(windows);
            for l in &active {
                if let Some(&n) = by_rec.get(&l.rec) {
                    ids.push(l.a);
                    accepted.push(n);
                }
            }
            for l in &active {
                if ids.len() >= windows {
                    break;
                }
                if !by_rec.contains_key(&l.rec) && l.ready.is_some_and(|r| r < step) {
                    ids.push(l.a);
                    accepted.push(0);
                }
            }
            if ids.len() != windows {
                out.mismatched_steps += 1;
            }
            if !ids.is_empty() {
                let (q, k, v) = pool.rows(ids.len() * gamma);
                let (_, ms) = timed(|| black_box(a.speculate(&ids, &q, &k, &v, gamma)));
                call(&mut out, "speculate", ms);
                let (_, ms) = timed(|| black_box(a.resolve_speculation(&accepted)));
                call(&mut out, "resolve_speculation", ms);
            }
        }

        // Retirements, mirroring the scheduler's swap-remove sweep so the
        // replay keeps its admission order.
        let done: HashSet<usize> = finished[step].iter().copied().collect();
        let mut i = 0;
        while i < active.len() {
            if done.contains(&active[i].rec) {
                let l = active.swap_remove(i);
                let (_, ms) = timed(|| a.retire(l.a));
                call(&mut out, "retire", ms);
                if let (Some(b), Some(sq)) = (b.as_mut(), l.b) {
                    b.retire(sq);
                }
            } else {
                i += 1;
            }
        }

        a.set_scrub_policy(Some(ScrubPolicy::for_target_latency(
            SCRUB_SLO_STEPS,
            a.live_blocks().max(1),
        )));
        let (_, ms) = timed(|| black_box(a.scrub_step()));
        call(&mut out, "scrub_step", ms);
        if log
            .counters
            .is_some_and(|c| c.live_blocks != a.live_blocks())
        {
            out.mismatched_steps += 1;
        }
        out.engine_ms[step] = engine_ms;
    }
    out
}

pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<(Metrics, EndToEnd), String> {
    let threads = rayon::current_num_threads();
    let stream_gbps = host_stream_gbps(threads);

    // Untraced reference over half the window, then the traced session.
    let reference_s = seconds / 2.0;
    let untraced_ms = {
        let mut s = run::setup(w, seed, false);
        let win = run::measure(&mut s, reference_s);
        mean_step_ms(&s.steps[win.first_step..win.last_step])
    };
    let mut s = run::setup(w, seed, true);
    let win = run::measure(&mut s, seconds);
    let e = run::end_to_end(&s, &win);
    let compared = run::output_check(&s, &win, seed, CHECK_SAMPLES)?;
    let range = win.first_step..win.last_step;
    let steps = &s.steps[range.clone()];
    let t0 = steps.first().map_or(0.0, |st| st.start);
    let traced_ms = mean_step_ms(
        &steps
            .iter()
            .take_while(|st| st.start - t0 < reference_s)
            .cloned()
            .collect::<Vec<_>>(),
    );

    let rp = replay(&s, &range);
    let spec = s.spec;
    let records = s.sched.records();
    let topo = s.sched.engine().config();
    let counters: Vec<run::Counters> = steps
        .iter()
        .map(|st| st.counters.expect("traced steps carry counters"))
        .collect();
    let before = range
        .start
        .checked_sub(1)
        .and_then(|i| s.steps[i].counters)
        .unwrap_or_default();
    let after = counters.last().copied().unwrap_or(before);
    let n_steps = steps.len().max(1) as f64;
    let peak_kv = counters.iter().map(|c| c.live_kv_bytes).max().unwrap_or(0);
    let ker = kernels(
        peak_kv.max(16 << 20),
        threads,
        topo.head.head_dim(),
        run::BLOCK_ROWS,
        topo.query_heads / topo.kv_heads,
        spec.gamma,
    );

    let step_ms = stats::sorted(steps.iter().map(StepLog::ms).collect());
    let self_ms: f64 = range
        .clone()
        .map(|i| s.steps[i].ms() - rp.engine_ms[i])
        .sum::<f64>()
        / n_steps;
    let queue_wait = stats::sorted(
        win.sent
            .iter()
            .filter_map(|&rec| {
                let st = records[rec].admitted_step? as usize;
                Some((s.steps[st].start - s.due[rec]) * 1e3)
            })
            .collect(),
    );
    let decode_sizes: Vec<f64> = steps
        .iter()
        .map(|st| {
            if spec.gamma >= 2 {
                (st.report.speculated_tokens / spec.gamma) as f64
            } else {
                st.report.decode_tokens as f64
            }
        })
        .filter(|&n| n > 0.0)
        .collect();
    let budget_used = stats::mean(
        &steps
            .iter()
            .map(|st| {
                let decode = st.report.decode_tokens.max(st.report.speculated_tokens);
                (st.report.prefill_tokens + decode) as f64 / TOKEN_BUDGET as f64
            })
            .collect::<Vec<_>>(),
    );
    let prefill_ms: f64 = rp.calls.ms("prefill_step_for", &range).iter().sum();
    let prefill_tokens: usize = steps.iter().map(|st| st.report.prefill_tokens).sum();
    let mut enqueue = rp.calls.ms("enqueue", &range);
    enqueue.extend(rp.calls.ms("enqueue_shared", &range));
    let all = 0..s.steps.len();
    let decode_ms = rp.calls.ms("step_decode", &range);
    let decode: Vec<&(usize, usize, f64)> =
        rp.decode.iter().filter(|d| range.contains(&d.0)).collect();
    let decode_tokens: usize = decode.iter().map(|d| d.1).sum();
    let decode_bytes: f64 = decode.iter().map(|d| d.2).sum();
    let decode_s = decode_ms.iter().sum::<f64>() / 1e3;
    let kv_gbps = if decode_s > 0.0 {
        decode_bytes / decode_s / 1e9
    } else {
        0.0
    };
    let check_overhead = stats::median(
        &rp.pairs
            .iter()
            .filter(|p| range.contains(&p.0))
            .map(|p| (p.1 / p.2 - 1.0) * 100.0)
            .collect::<Vec<_>>(),
    );
    let speculated: usize = steps.iter().map(|st| st.report.speculated_tokens).sum();
    let accepted: usize = steps.iter().map(|st| st.report.spec_accepted).sum();
    let scrub_ms = rp.calls.ms("scrub_step", &range);
    let step_total_ms: f64 = step_ms.iter().sum();
    let late = stats::report(&e.late_ms, 99.0);
    let per_decode_step = |x: f64| x / decode_sizes.len().max(1) as f64;

    let mut m = Metrics::default();
    let mut notes: HashMap<&'static str, String> = HashMap::new();
    let mut pct = |m: &mut Metrics, name: &'static str, sample: &[f64], p: f64| {
        let r = stats::report(sample, p);
        notes.insert(name, format!("n={}, reported p{:.1}", r.n, r.effective_p));
        m.push(name, r.value, "ms");
    };
    pct(&mut m, "serve.step_ms_p50", &step_ms, 50.0);
    pct(&mut m, "serve.step_ms_p99", &step_ms, 99.0);
    m.push("serve.self_ms_per_step", self_ms, "ms");
    pct(&mut m, "serve.queue_wait_ms_p50", &queue_wait, 50.0);
    m.push(
        "serve.decode_batch_mean",
        stats::mean(&decode_sizes),
        "count",
    );
    m.push("serve.budget_used_share", budget_used, "share");
    m.push(
        "admission.prefill_tok_s",
        if prefill_ms > 0.0 {
            prefill_tokens as f64 / prefill_ms * 1e3
        } else {
            0.0
        },
        "tok/s",
    );
    pct(
        &mut m,
        "admission.enqueue_ms_p50",
        &stats::sorted(enqueue),
        50.0,
    );
    m.push(
        "admission.register_prefix_ms",
        stats::mean(&rp.calls.ms("register_prefix", &all)),
        "ms",
    );
    m.push(
        "admission.prefix_hit_share",
        rp.prefix_hit_tokens as f64 / rp.prompt_tokens.max(1) as f64,
        "share",
    );
    m.push("decode.ms_per_step", stats::mean(&decode_ms), "ms");
    m.push(
        "decode.us_per_token",
        decode_ms.iter().sum::<f64>() * 1e3 / decode_tokens.max(1) as f64,
        "us",
    );
    m.push("decode.kv_gbps", kv_gbps, "GB/s");
    m.push("decode.roofline_share", kv_gbps / stream_gbps, "share");
    m.push(
        "decode.shared_tiles_per_step",
        per_decode_step((after.shared_tiles - before.shared_tiles) as f64),
        "count",
    );
    m.push("decode.check_overhead_pct", check_overhead, "%");
    m.push(
        "spec.speculate_ms_per_step",
        stats::mean(&rp.calls.ms("speculate", &range)),
        "ms",
    );
    m.push(
        "spec.resolve_ms_per_step",
        stats::mean(&rp.calls.ms("resolve_speculation", &range)),
        "ms",
    );
    m.push(
        "spec.accept_share",
        accepted as f64 / speculated.max(1) as f64,
        "share",
    );
    m.push("scrub.ms_per_step", stats::mean(&scrub_ms), "ms");
    m.push(
        "scrub.blocks_per_step",
        (after.scrubbed_blocks - before.scrubbed_blocks) as f64 / n_steps,
        "count",
    );
    m.push(
        "scrub.share_of_step",
        scrub_ms.iter().sum::<f64>() / step_total_ms.max(f64::MIN_POSITIVE),
        "share",
    );
    m.push("cache.live_kv_mb_peak", peak_kv as f64 / 1e6, "MB");
    m.push(
        "cache.recovery_log_mb_peak",
        counters.iter().map(|c| c.log_bytes).max().unwrap_or(0) as f64 / 1e6,
        "MB",
    );
    m.push(
        "cache.cow_copies",
        (after.cow_copies - before.cow_copies) as f64,
        "count",
    );
    m.push(
        "cache.recycled_blocks",
        (after.recycled_blocks - before.recycled_blocks) as f64,
        "count",
    );
    m.push("ops.dot_rows_gbps", ker.dot_rows_gbps, "GB/s");
    m.push("ops.axpy_gbps", ker.axpy_gbps, "GB/s");
    m.push("ops.dot_rows_multi_gbps_q4", ker.multi_q4_gbps, "GB/s");
    m.push("ops.dot_rows_multi_gbps_q16", ker.multi_q16_gbps, "GB/s");
    m.push(
        "ops.fused_checksum_overhead_pct",
        ker.fused_checksum_overhead_pct,
        "%",
    );
    m.push("host.stream_gbps", stream_gbps, "GB/s");
    m.push(
        "trace.overhead_pct",
        (traced_ms / untraced_ms - 1.0) * 100.0,
        "%",
    );
    m.push("loadgen.late_ms_p99", late.value, "ms");

    println!(
        "traced window: {} steps, {} requests; replay mismatched {} of {} steps; output check {compared} tokens",
        steps.len(),
        e.sent,
        rp.mismatched_steps,
        s.steps.len()
    );
    for (name, value, unit) in m.iter() {
        let note = match notes.get(name.as_str()) {
            Some(n) => format!("   ({n})"),
            None if *unit == "GB/s" && name != "host.stream_gbps" => {
                format!(
                    "   ({:.1}% of host.stream_gbps)",
                    value / stream_gbps * 100.0
                )
            }
            None => String::new(),
        };
        println!("{name:<36} {value:>12.4} {unit}{note}");
    }
    Ok((m, e))
}

//! Speculative decoding with exact rollback: a draft proposes γ tokens
//! per sequence, the engine scores all γ positions in **one** batched
//! pass over the paged cache, and the accepted prefix is committed
//! through the ordinary append path while every rejected append —
//! block claims, copy-on-write splits, format demotion, eviction
//! anchors, block fingerprints, checksums — rewinds **exactly**. The
//! headline contract: any accept/reject schedule replays bit-identical
//! to non-speculative decode of the accepted tokens.
//!
//! Three acts:
//!
//! 1. **draft, verify, deliver** — full-accept windows across the
//!    format sweep (F64 / BF16 / Mixed demotion, retain-all / sliding
//!    window): every scored position's output and fused checksum
//!    verdict is bitwise equal to the sequential twin's step;
//! 2. **rollback storm** — windows resolve with adversarial accept
//!    prefixes (including reject-everything) over the Mixed +
//!    sliding-window corner; after the storm the cache rows, lengths,
//!    arena size, and a probe decode step all match a twin that never
//!    speculated;
//! 3. **corruption inside the window** — a bit flips in a row the next
//!    window scores over: the fused verdict alarms **before** any
//!    token from the window is delivered, the request quarantines and
//!    requeues, and the final delivered stream is bit-identical to an
//!    unperturbed run.
//!
//! Run with: `cargo run --release --example speculative_serving`

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{Phase, Priority, Request, Scheduler, ServeConfig};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

const GAMMA: usize = 4;
const BATCH: usize = 4;
const PREFILL: usize = 10;

fn engine(format: KvFormat, eviction: EvictionPolicy) -> DecodeBatch<f64> {
    DecodeBatch::<f64>::with_policy(
        HeadTopology::gqa(4, 2, AttentionConfig::new(8)),
        4,
        KvLayout::HeadMajor,
        format,
        eviction,
    )
}

fn topo() -> HeadTopology {
    HeadTopology::gqa(4, 2, AttentionConfig::new(8))
}

fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
}

/// A (speculative, twin) engine pair with `BATCH` prefilled sequences.
fn pair(
    format: KvFormat,
    eviction: EvictionPolicy,
) -> (DecodeBatch<f64>, DecodeBatch<f64>, Vec<usize>) {
    let mut spec = engine(format, eviction);
    let mut twin = engine(format, eviction);
    let ids: Vec<usize> = (0..BATCH).map(|_| spec.add_sequence()).collect();
    for _ in 0..BATCH {
        twin.add_sequence();
    }
    for (i, &id) in ids.iter().enumerate() {
        let k = rand(PREFILL, topo().kv_dim(), 300 + i as u64);
        let v = rand(PREFILL, topo().kv_dim(), 400 + i as u64);
        spec.prefill(id, &k, &v);
        twin.prefill(id, &k, &v);
    }
    (spec, twin, ids)
}

/// Row `i·γ + t` of a window matrix, re-packed as a one-token-per-live-
/// sequence step input for the twin.
fn token_step(m: &Matrix<f64>, live: &[usize]) -> Matrix<f64> {
    let rows: Vec<&[f64]> = live.iter().map(|&r| m.row(r)).collect();
    Matrix::from_rows(&rows)
}

fn main() {
    // ---- Act 1: full-accept windows across the policy sweep ---------
    println!("== act 1: draft/verify windows vs the sequential twin, bitwise");
    let combos = [
        (KvFormat::F64, EvictionPolicy::RetainAll),
        (
            KvFormat::Bf16,
            EvictionPolicy::SlidingWindow { window_blocks: 3 },
        ),
        (
            KvFormat::Mixed { burst_blocks: 1 },
            EvictionPolicy::RetainAll,
        ),
    ];
    for (format, eviction) in combos {
        let (mut spec, mut twin, ids) = pair(format, eviction);
        let n = ids.len() * GAMMA;
        let qs = rand(n, topo().q_dim(), 77);
        let ks = rand(n, topo().kv_dim(), 78);
        let vs = rand(n, topo().kv_dim(), 79);
        let outs = spec.speculate(&ids, &qs, &ks, &vs, GAMMA);
        assert!(
            spec.speculative_window_open(),
            "the window stays open until resolved"
        );
        let mut lanes = 0usize;
        for t in 0..GAMMA {
            let rows: Vec<usize> = (0..ids.len()).map(|i| i * GAMMA + t).collect();
            let step = twin.step_decode(
                &ids,
                &token_step(&qs, &rows),
                &token_step(&ks, &rows),
                &token_step(&vs, &rows),
            );
            for (o, seq_outs) in step.into_iter().zip(&outs) {
                let s = &seq_outs[t];
                assert_eq!(s.predicted.to_bits(), o.predicted.to_bits());
                assert_eq!(s.actual.to_bits(), o.actual.to_bits());
                assert_eq!(s.output.len(), o.output.len());
                for (x, y) in s.output.iter().zip(&o.output) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{format:?}: window output lane");
                    lanes += 1;
                }
            }
        }
        // One fused verdict per sequence adjudicates the whole prefix.
        let verdicts = spec.resolve_speculation(&vec![GAMMA; ids.len()]);
        assert!(!spec.speculative_window_open());
        assert_eq!(verdicts.len(), ids.len());
        for (v, &id) in verdicts.iter().zip(&ids) {
            assert_eq!(v.seq, id);
            assert_eq!(v.accepted, GAMMA);
            assert!(
                (v.predicted - v.actual).abs() <= 1e-6,
                "a clean window's fused verdict is quiet"
            );
        }
        for &id in &ids {
            assert_eq!(spec.seq_len(id), twin.seq_len(id));
            assert!(spec.rewind_checks_clean(id));
        }
        println!(
            "  {format:?}/{eviction:?}: {BATCH} seqs x gamma={GAMMA}, {lanes} output \
             lanes bitwise, {} fused verdicts",
            verdicts.len()
        );
    }

    // ---- Act 2: rollback storm over the Mixed + sliding corner ------
    println!("== act 2: rollback storm (Mixed demotion + sliding-window eviction)");
    let format = KvFormat::Mixed { burst_blocks: 1 };
    let eviction = EvictionPolicy::SlidingWindow { window_blocks: 3 };
    let (mut spec, mut twin, ids) = pair(format, eviction);
    let windows = 12;
    let mut delivered = [0usize; BATCH];
    let mut spec_stream: Vec<Vec<f64>> = Vec::new();
    let mut twin_stream: Vec<Vec<f64>> = Vec::new();
    let mut rejected = 0usize;
    for w in 0..windows {
        // Adversarial accept prefixes: cycle through reject-everything,
        // accept-everything, and every partial prefix in between.
        let acc: Vec<usize> = (0..BATCH).map(|i| (w + i * 3) % (GAMMA + 1)).collect();
        let n = BATCH * GAMMA;
        let (mut q, mut k, mut v) = (
            Matrix::zeros(n, topo().q_dim()),
            Matrix::zeros(n, topo().kv_dim()),
            Matrix::zeros(n, topo().kv_dim()),
        );
        for i in 0..BATCH {
            for t in 0..GAMMA {
                // Accepted positions carry the true stream row for their
                // global token index; rejected positions draw from a
                // disjoint seed space the twin never sees.
                let seed = if acc[i] > t {
                    0x9000 + 64 * (delivered[i] + t) as u64 + 8 * i as u64
                } else {
                    0xDEAD_0000 + 4096 * w as u64 + 64 * t as u64 + 8 * i as u64
                };
                for (m, cols, lane) in [
                    (&mut q, topo().q_dim(), 0u64),
                    (&mut k, topo().kv_dim(), 1),
                    (&mut v, topo().kv_dim(), 2),
                ] {
                    let row = rand(1, cols, seed + lane);
                    for c in 0..cols {
                        m[(i * GAMMA + t, c)] = row[(0, c)];
                    }
                }
            }
        }
        let outs = spec.speculate(&ids, &q, &k, &v, GAMMA);
        for t in 0..GAMMA {
            for (i, o) in outs.iter().enumerate() {
                if acc[i] > t {
                    spec_stream.push(o[t].output.clone());
                }
            }
        }
        spec.resolve_speculation(&acc);
        // The twin decodes only the accepted tokens, sequentially.
        for t in 0..GAMMA {
            let live: Vec<usize> = (0..BATCH).filter(|&i| acc[i] > t).collect();
            if live.is_empty() {
                continue;
            }
            let rows: Vec<usize> = live.iter().map(|&i| i * GAMMA + t).collect();
            let live_ids: Vec<usize> = live.iter().map(|&i| ids[i]).collect();
            for o in twin.step_decode(
                &live_ids,
                &token_step(&q, &rows),
                &token_step(&k, &rows),
                &token_step(&v, &rows),
            ) {
                twin_stream.push(o.output);
            }
        }
        for i in 0..BATCH {
            delivered[i] += acc[i];
            rejected += GAMMA - acc[i];
        }
    }
    assert_eq!(
        spec_stream, twin_stream,
        "delivered streams are bitwise equal"
    );
    for &id in &ids {
        assert_eq!(
            spec.seq_len(id),
            twin.seq_len(id),
            "lengths agree after the storm"
        );
        assert_eq!(
            spec.demoted_len(id),
            twin.demoted_len(id),
            "demotion fired identically"
        );
        let first = spec.cache().first_retained(id);
        assert_eq!(
            first,
            twin.cache().first_retained(id),
            "eviction anchors agree"
        );
        for p in first..spec.seq_len(id) {
            assert_eq!(spec.cache().key_row(id, p), twin.cache().key_row(id, p));
            assert_eq!(spec.cache().value_row(id, p), twin.cache().value_row(id, p));
        }
        assert!(
            spec.rewind_checks_clean(id),
            "no checksum drift survives rollback"
        );
    }
    assert_eq!(
        spec.cache().live_unique_blocks(),
        twin.cache().live_unique_blocks(),
        "every rejected append returned its blocks"
    );
    // One more probe window, full accept: the storm left no hidden state.
    let pq = rand(BATCH, topo().q_dim(), 0xF0);
    let pk = rand(BATCH, topo().kv_dim(), 0xF1);
    let pv = rand(BATCH, topo().kv_dim(), 0xF2);
    let a: Vec<Vec<f64>> = spec
        .step_decode(&ids, &pq, &pk, &pv)
        .into_iter()
        .map(|o| o.output)
        .collect();
    let b: Vec<Vec<f64>> = twin
        .step_decode(&ids, &pq, &pk, &pv)
        .into_iter()
        .map(|o| o.output)
        .collect();
    assert_eq!(a, b, "post-storm decode is bitwise sequential");
    println!(
        "  {windows} windows, {} tokens delivered / {rejected} rejected and rolled back; \
         cache rows, anchors, demotion, arena ({} blocks), and probe step all bitwise",
        spec_stream.len(),
        spec.cache().live_unique_blocks(),
    );

    // ---- Act 3: corruption inside the speculative window ------------
    println!("== act 3: a flipped bit inside the window alarms before delivery");
    let cfg = ServeConfig {
        speculation_gamma: GAMMA,
        draft_acceptance: 0.9,
        ..ServeConfig::default()
    };
    let mk = |seed| Request {
        tenant: 0,
        priority: Priority::Interactive,
        prompt_tokens: 6,
        output_tokens: 12,
        seed,
        prefix_seed: None,
        prefix_tokens: 0,
    };
    let drive = |inject: bool| -> (Scheduler, usize) {
        let mut e = engine(KvFormat::F64, EvictionPolicy::RetainAll);
        e.set_prefill_chunk(4);
        let mut sched = Scheduler::new(e, cfg);
        sched.step(&[mk(301), mk(302)]);
        let mut alarms = 0;
        let mut injected = false;
        for _ in 0..300 {
            if inject && !injected {
                if let Some(&(_, seq)) = sched.active_decoding().first() {
                    let len = sched.engine().seq_len(seq);
                    if len > sched.engine().cache().first_retained(seq) {
                        // Value-side flip in the newest row — the next
                        // window's fused verdict must see it.
                        sched
                            .engine_mut()
                            .flip_storage_bit(seq, len - 1, 0, 0, false, 61);
                        injected = true;
                    }
                }
            }
            let rep = sched.step(&[]);
            alarms += rep.online_alarms;
            if sched.records().iter().all(|r| r.phase == Phase::Finished) {
                break;
            }
        }
        (sched, alarms)
    };
    let (clean, clean_alarms) = drive(false);
    let (subject, subject_alarms) = drive(true);
    assert_eq!(clean_alarms, 0, "the clean twin never alarms");
    assert!(subject_alarms > 0, "the corrupted window must alarm");
    let quarantined = subject
        .records()
        .iter()
        .filter(|r| r.quarantines > 0)
        .count();
    assert!(
        quarantined > 0,
        "the alarmed request quarantines and requeues"
    );
    for (x, y) in clean.records().iter().zip(subject.records().iter()) {
        assert_eq!(x.phase, Phase::Finished);
        assert_eq!(y.phase, Phase::Finished);
        assert_eq!(
            x.token_hashes, y.token_hashes,
            "no token from the poisoned window was delivered; the requeued \
             request resumes the clean stream bit-for-bit"
        );
    }
    println!(
        "  {subject_alarms} alarms, {quarantined} request(s) quarantined and requeued, \
         delivered streams bitwise equal to the unperturbed run"
    );

    println!();
    println!("speculative_serving: all invariants held");
}

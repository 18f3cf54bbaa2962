//! Proactive scrubbing and graceful degradation in the serving engine:
//! the background scrubber amortizes the structural audit across decode
//! steps and catches residual-coherent corruption within a configured
//! latency bound; clean scrub verdicts let a bounded recovery log drop
//! its verified prefix; and when damage lands where the log no longer
//! reaches, the engine degrades gracefully — quarantine frees the
//! poisoned blocks and the sequence recomputes through chunked-prefill
//! admission while its batch peers keep decoding, bit-identical
//! throughout.
//!
//! Three acts:
//!
//! 1. a **key-side** storage flip — invisible to the online residual by
//!    construction — is caught by the scrubber within
//!    `ceil(live_blocks / blocks_per_step)` steps, repaired from the
//!    log, and decode resumes bit-identical to a golden twin;
//! 2. the **recovery log is bounded**: a checkpoint behind a clean
//!    audit drops every verified row beyond the budget, and the
//!    retained suffix still repairs;
//! 3. a flip lands **behind the truncated log**: repair reports the
//!    block unrecoverable, quarantine retires the sequence, the
//!    frontend resubmits its token history, and re-admission proceeds
//!    chunk by chunk while peers decode — ending bit-identical.
//!
//! Run with: `cargo run --release --example scrubbed_serving`

use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout, ScrubPolicy};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

const TOL: f64 = 1e-6;

fn rand(rows: usize, cols: usize, seed: u64) -> Matrix<f64> {
    Matrix::random_seeded(rows, cols, ElementDist::default(), seed)
}

fn main() {
    // A 4:2 GQA serving configuration, 8-row blocks, recovery log on,
    // prompts admitted 6 tokens at a time. The scrubber audits 2 live
    // blocks per decode step.
    let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(16));
    let mk = || {
        let mut e = DecodeBatch::<f64>::with_policy(
            topo,
            8,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        );
        e.set_prefill_chunk(6);
        e
    };
    let mut engine = mk();
    engine.enable_recovery_log();
    engine.set_scrub_policy(Some(ScrubPolicy { blocks_per_step: 2 }));
    let mut golden = mk();

    let ids: Vec<usize> = (0..3).map(|_| engine.add_sequence()).collect();
    for _ in &ids {
        golden.add_sequence();
    }
    // The frontend's copy of every admitted K/V row — what a real stack
    // would rebuild from the token history on resubmission.
    let mut hist_k: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    let mut hist_v: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
    for (i, &id) in ids.iter().enumerate() {
        let k = rand(20, topo.kv_dim(), 10 + i as u64);
        let v = rand(20, topo.kv_dim(), 50 + i as u64);
        engine.prefill(id, &k, &v);
        golden.prefill(id, &k, &v);
        hist_k[i].extend_from_slice(k.as_slice());
        hist_v[i].extend_from_slice(v.as_slice());
    }
    println!(
        "serving {} sequences (4:2 GQA, d=16), 20 prompt tokens each; \
         scrub budget 2 blocks/step, recovery log on",
        ids.len()
    );

    // One lockstep serving step over `active` (indices into `ids`):
    // decode on both engines, record the admitted K/V rows, run the
    // engine's scrub quantum, and report (max bitwise divergence flag,
    // max |residual|, scrub findings).
    let mut step = 0u64;
    let mut serve = |engine: &mut DecodeBatch<f64>,
                     golden: &mut DecodeBatch<f64>,
                     hist_k: &mut Vec<Vec<f64>>,
                     hist_v: &mut Vec<Vec<f64>>,
                     active: &[usize]|
     -> (
        bool,
        f64,
        Vec<(usize, fa_attention::batch::guard::CorruptSite)>,
    ) {
        let sub: Vec<usize> = active.iter().map(|&i| ids[i]).collect();
        let qs = rand(sub.len(), topo.q_dim(), 1_000 + step);
        let ks = rand(sub.len(), topo.kv_dim(), 2_000 + step);
        let vs = rand(sub.len(), topo.kv_dim(), 3_000 + step);
        step += 1;
        let a = engine.step_decode(&sub, &qs, &ks, &vs);
        let b = golden.step_decode(&sub, &qs, &ks, &vs);
        for (j, &i) in active.iter().enumerate() {
            hist_k[i].extend_from_slice(ks.row(j));
            hist_v[i].extend_from_slice(vs.row(j));
        }
        let diverged = a.iter().zip(&b).any(|(x, y)| {
            x.output
                .iter()
                .zip(&y.output)
                .any(|(p, q)| p.to_bits() != q.to_bits())
        });
        let residual = a.iter().map(|o| o.residual().abs()).fold(0.0f64, f64::max);
        (diverged, residual, engine.scrub_step())
    };
    let all: Vec<usize> = (0..ids.len()).collect();

    // Warm-up: healthy lockstep, scrub finds nothing.
    for _ in 0..3 {
        let (diverged, r, findings) =
            serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &all);
        assert!(!diverged && r < TOL && findings.is_empty());
    }
    println!("warm-up: 3 clean steps, outputs bit-identical, scrub quiet\n");

    // ---- Act 1: key flip caught by the scrubber within its bound -----------
    let victim = ids[1];
    engine.flip_storage_bit(victim, 10, 0, 3, true, 61);
    let bound = engine.live_blocks().div_ceil(2);
    println!(
        "[act 1] flipped bit 61 of K[pos 10, kv head 0, lane 3] on seq {victim}; \
         latency bound = ceil({} live blocks / 2 per step) = {bound} steps",
        engine.live_blocks()
    );
    let mut caught = None;
    for s in 1..=bound {
        let (diverged, r, findings) =
            serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &all);
        assert!(
            r < TOL,
            "key flips never alarm online (coherent corruption)"
        );
        if !findings.is_empty() {
            println!(
                "  step +{s}: outputs diverged={diverged}, online residual {r:.1e} \
                 (blind) -> scrub findings {findings:?}"
            );
            assert!(findings.iter().all(|&(sq, _)| sq == victim));
            caught = Some(s);
            break;
        }
    }
    let caught = caught.expect("the scrubber must catch the flip within its bound");
    assert!(caught <= bound);
    let faults = engine.audit(victim, TOL);
    let report = engine.repair(victim, &faults);
    println!(
        "  caught in {caught} <= {bound} steps; repaired {} block ({} rows from the log)",
        report.blocks_recovered, report.rows_rewritten
    );
    assert_eq!(report.blocks_unrecoverable, 0);
    for _ in 0..4 {
        let (diverged, r, findings) =
            serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &all);
        assert!(!diverged && r < TOL && findings.is_empty());
    }
    println!("  resumed 4 steps bit-identical to the golden twin\n");

    // ---- Act 2: the recovery log is bounded --------------------------------
    let width = engine.cache().width();
    let before = (engine.recovery_log_rows(), engine.recovery_log_bytes());
    engine.set_recovery_log_budget(Some(8));
    for &id in &ids {
        assert!(engine.checkpoint_recovery_log(id, TOL), "audits are clean");
        assert_eq!(engine.seq_log_rows(id), 8);
    }
    println!(
        "[act 2] recovery log: {} rows / {} bytes -> budget 8 rows/seq -> {} rows / {} bytes",
        before.0,
        before.1,
        engine.recovery_log_rows(),
        engine.recovery_log_bytes()
    );
    assert_eq!(
        engine.recovery_log_bytes(),
        2 * engine.recovery_log_rows() * width * core::mem::size_of::<f64>()
    );
    // The retained suffix still repairs in place.
    let tip = engine.seq_len(ids[0]) - 1;
    engine.flip_storage_bit(ids[0], tip, 1, 0, false, 61);
    let faults = engine.audit(ids[0], TOL);
    let report = engine.repair(ids[0], &faults);
    assert_eq!(report.blocks_recovered, 1);
    assert_eq!(report.blocks_unrecoverable, 0);
    println!("  suffix flip at pos {tip}: still repaired from the bounded log\n");

    // ---- Act 3: unrecoverable damage -> quarantine and recompute -----------
    let victim = ids[2];
    engine.flip_storage_bit(victim, 2, 0, 1, true, 61);
    println!("[act 3] flipped bit 61 of K[pos 2, ...] on seq {victim} — behind the truncated log");
    let mut findings = Vec::new();
    // Live blocks grow while we wait, so allow two full cursor cycles.
    for _ in 0..2 * engine.live_blocks() {
        let (_, _, f) = serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &all);
        if !f.is_empty() {
            findings = f;
            break;
        }
    }
    assert!(!findings.is_empty(), "the scrubber catches this flip too");
    let faults = engine.audit(victim, TOL);
    let report = engine.repair(victim, &faults);
    assert_eq!(report.blocks_recovered, 0);
    assert_eq!(report.blocks_unrecoverable, 1);
    println!(
        "  detected by scrub, but repair reports {} unrecoverable block",
        report.blocks_unrecoverable
    );
    let q = engine.quarantine(victim);
    assert_eq!(q.requeued_rows, 0, "a truncated log cannot self-requeue");
    println!(
        "  quarantined: {} blocks freed, {} log rows dropped; frontend resubmits {} tokens",
        q.blocks_freed,
        q.log_rows_dropped,
        hist_k[2].len() / topo.kv_dim()
    );
    let rows = hist_k[2].len() / topo.kv_dim();
    let k = Matrix::from_vec(rows, topo.kv_dim(), hist_k[2].clone());
    let v = Matrix::from_vec(rows, topo.kv_dim(), hist_v[2].clone());
    engine
        .resubmit(victim, &k, &v)
        .expect("a quarantined sequence accepts its history");
    assert!(engine.is_pending(victim));
    // Peers keep decoding while the victim re-admits chunk by chunk;
    // the golden twin pauses its victim too, so peers see identical
    // steps on both engines.
    let mut waited = 0;
    while engine.is_pending(victim) {
        engine.prefill_step_for(&[victim]);
        let (diverged, r, _) = serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &[0, 1]);
        assert!(!diverged && r < TOL, "peers bit-identical during requeue");
        waited += 1;
        assert!(waited < 100, "re-admission must terminate");
    }
    assert_eq!(engine.seq_len(victim), golden.seq_len(victim));
    assert!(engine.audit(victim, TOL).is_empty());
    println!(
        "  re-admitted over {waited} steps while peers decoded bit-identical; \
         recomputed cache audits clean"
    );
    for _ in 0..4 {
        let (diverged, r, findings) =
            serve(&mut engine, &mut golden, &mut hist_k, &mut hist_v, &all);
        assert!(!diverged && r < TOL && findings.is_empty());
    }
    println!("  resumed 4 full-batch steps bit-identical to the golden twin");

    // Final sweep: every sequence audits clean and matches its twin.
    for &id in &ids {
        assert!(engine.audit(id, TOL).is_empty());
    }
    println!(
        "\nall sequences audit clean; served through a scrubbed repair, a bounded-log \
         checkpoint, and a quarantine-and-recompute without losing a peer step"
    );
}

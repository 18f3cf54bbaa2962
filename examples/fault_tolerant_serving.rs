//! Live fault tolerance in the continuous-batching engine: a bit flip
//! lands in the KV cache of an actively decoding batch, the fused
//! checksum lane raises the alarm, the audit compares every block's
//! integer row/lane fingerprints against its stored bits and pins the
//! corrupted word, and repair subtracts the fingerprint delta from that
//! word in place — after which decode resumes **bit-identical** to an
//! uninjured golden twin. No second copy of the cache is kept.
//!
//! Three acts, one per corruption class:
//!
//! 1. a **value-side** storage flip — caught online by the per-step
//!    residual within a step or two;
//! 2. a **key-side** storage flip — residual-coherent (output and
//!    checksum corrupt together), invisible to the online verdict by
//!    construction, caught by the structural audit scrub;
//! 3. a **sumrow** (checker-state) flip — the alarm fires while outputs
//!    are provably clean: a checker-site false positive, repaired
//!    without touching a single cache row.
//!
//! Run with: `cargo run --release --example fault_tolerant_serving`

use fa_attention::batch::guard::LocalizedFault;
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::{AttentionConfig, HeadTopology};
use fa_tensor::{random::ElementDist, Matrix};

const TOL: f64 = 1e-6;

fn main() {
    // A 4:2 GQA serving configuration, 8-row cache blocks, head-major
    // layout. Every block carries wrapping u64 sums of its stored bits
    // per row and per lane (K and V, each kv head): the repair source.
    let topo = HeadTopology::gqa(4, 2, AttentionConfig::new(16));
    let mk = || {
        DecodeBatch::<f64>::with_policy(
            topo,
            8,
            KvLayout::HeadMajor,
            KvFormat::F64,
            EvictionPolicy::RetainAll,
        )
    };
    let mut engine = mk();
    let mut golden = mk();

    let ids: Vec<usize> = (0..4).map(|_| engine.add_sequence()).collect();
    for _ in &ids {
        golden.add_sequence();
    }
    for (i, &id) in ids.iter().enumerate() {
        let k =
            Matrix::<f64>::random_seeded(24, topo.kv_dim(), ElementDist::default(), 10 + i as u64);
        let v =
            Matrix::<f64>::random_seeded(24, topo.kv_dim(), ElementDist::default(), 50 + i as u64);
        engine.prefill(id, &k, &v);
        golden.prefill(id, &k, &v);
    }
    let cache = engine.cache();
    println!(
        "serving {} sequences (4:2 GQA, d=16), {} prompt tokens each: \
         {} B of live K/V guarded by {} B of block fingerprints",
        ids.len(),
        engine.seq_len(ids[0]),
        cache.live_kv_bytes(),
        cache.fingerprint_bytes()
    );

    let mut step = 0u64;
    // One lockstep decode step against the golden twin; returns whether
    // the victim's output diverged bitwise and its online residual.
    let mut decode = |engine: &mut DecodeBatch<f64>,
                      golden: &mut DecodeBatch<f64>,
                      victim: usize|
     -> (bool, f64) {
        let qs = Matrix::<f64>::random_seeded(
            ids.len(),
            topo.q_dim(),
            ElementDist::default(),
            1_000 + step,
        );
        let ks = Matrix::<f64>::random_seeded(
            ids.len(),
            topo.kv_dim(),
            ElementDist::default(),
            2_000 + step,
        );
        let vs = Matrix::<f64>::random_seeded(
            ids.len(),
            topo.kv_dim(),
            ElementDist::default(),
            3_000 + step,
        );
        step += 1;
        let a = engine.step_decode(&ids, &qs, &ks, &vs);
        let b = golden.step_decode(&ids, &qs, &ks, &vs);
        let diverged = a[victim]
            .output
            .iter()
            .zip(&b[victim].output)
            .any(|(x, y)| x.to_bits() != y.to_bits());
        (diverged, a[victim].residual())
    };

    // Warm-up: a healthy engine tracks its twin bit for bit.
    for _ in 0..4 {
        let (diverged, r) = decode(&mut engine, &mut golden, 0);
        assert!(!diverged && r.abs() < TOL);
    }
    println!("warm-up: 4 clean steps, outputs bit-identical, residuals < {TOL:e}\n");

    // ---- Act 1: value-side storage flip, caught online -------------------
    let victim = ids[0];
    engine.flip_storage_bit(victim, 5, 1, 3, false, 61);
    println!("[act 1] flipped bit 61 of V[pos 5, kv head 1, lane 3] on seq {victim}");
    let mut alarm = None;
    for s in 0..4 {
        let (diverged, r) = decode(&mut engine, &mut golden, 0);
        // NaN-safe alarm form: a poisoned residual must not pass.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(r.abs() <= TOL) {
            println!(
                "  step +{}: output diverged={diverged}, residual {r:+.3e} -> ALARM",
                s + 1
            );
            alarm = Some(r);
            break;
        }
    }
    assert!(alarm.is_some(), "a high-bit value flip must alarm online");
    let faults = engine.audit(victim, TOL);
    println!("  audit verdicts: {faults:?}");
    assert!(faults.iter().any(|f| matches!(
        f,
        LocalizedFault::CorruptBlock { first, rows, kv_head: 1, key_side: false, .. }
            if (*first..first + rows).contains(&5)
    )));
    let report = engine.repair(victim, &faults);
    println!(
        "  repaired: {} block ({} word mended from its fingerprints), verdict cleared",
        report.blocks_recovered, report.rows_rewritten
    );
    for _ in 0..6 {
        let (diverged, r) = decode(&mut engine, &mut golden, 0);
        assert!(!diverged, "post-recovery decode must be bit-identical");
        assert!(r.abs() < TOL);
    }
    println!("  resumed 6 steps bit-identical to the golden twin\n");

    // ---- Act 2: key-side flip, the scrub's story -------------------------
    let victim = ids[2];
    engine.flip_storage_bit(victim, 12, 0, 7, true, 61);
    println!("[act 2] flipped bit 61 of K[pos 12, kv head 0, lane 7] on seq {victim}");
    let mut corrupted = false;
    for _ in 0..4 {
        let (diverged, r) = decode(&mut engine, &mut golden, 2);
        corrupted |= diverged;
        assert!(
            r.abs() <= TOL,
            "key flips scale score and checksum coherently: no online alarm"
        );
    }
    assert!(corrupted, "outputs corrupt silently");
    println!("  4 steps: outputs corrupt, online residual blind (coherent corruption)");
    let faults = engine.audit(victim, TOL);
    println!("  structural scrub: {faults:?}");
    assert!(faults
        .iter()
        .any(|f| matches!(f, LocalizedFault::CorruptBlock { key_side: true, .. })));
    let report = engine.repair(victim, &faults);
    println!("  mended {} word in place; resuming", report.rows_rewritten);
    for _ in 0..6 {
        let (diverged, r) = decode(&mut engine, &mut golden, 2);
        assert!(!diverged && r.abs() < TOL);
    }
    println!("  resumed 6 steps bit-identical\n");

    // ---- Act 3: checker-state flip, alarm with clean outputs -------------
    let victim = ids[3];
    engine.flip_sumrow_bit(victim, 8, 1, 61);
    println!("[act 3] flipped bit 61 of sumrow[pos 8, kv head 1] on seq {victim}");
    let (diverged, r) = decode(&mut engine, &mut golden, 3);
    assert!(!diverged, "checker corruption never touches outputs");
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    {
        assert!(!(r.abs() <= TOL), "but the alarm fires");
    }
    println!("  alarm with bit-identical outputs: checker-site false positive");
    let faults = engine.audit(victim, TOL);
    assert_eq!(
        faults,
        vec![LocalizedFault::CorruptSumrow { pos: 8, kv_head: 1 }]
    );
    let report = engine.repair(victim, &faults);
    assert_eq!(report.rows_rewritten, 0, "no cache rows touched");
    assert_eq!(report.sumrows_repaired, 1);
    println!(
        "  sumrow recomputed from storage; {} cache rows rewritten",
        report.rows_rewritten
    );
    for _ in 0..4 {
        let (diverged, r) = decode(&mut engine, &mut golden, 3);
        assert!(!diverged && r.abs() < TOL);
    }

    // Final sweep: every sequence audits clean and matches its twin.
    for &id in &ids {
        assert!(engine.audit(id, TOL).is_empty());
        assert!(engine.global_residual(id).abs() < TOL);
    }
    println!("\nall sequences audit clean; serving continued through 3 live faults");
}

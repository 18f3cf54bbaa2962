//! **Coverage comparison** across checking techniques (paper §I's
//! positioning): where in the attention pipeline can each detector see?
//!
//! Injects controlled corruptions at three pipeline points — the score
//! matrix, the softmax output, and the final output — and reports which
//! of the three checkers raises an alarm:
//!
//! * two-step ABFT (per-matmul checks, the "traditional" baseline);
//! * ATTNChecker-style extreme-value scanning;
//! * Flash-ABFT (the fused attention-level checksum).
//!
//! Usage: `cargo run --release -p fa-bench --bin coverage_report`

use fa_abft::extreme::ExtremeChecker;
use fa_abft::two_step::{self, InjectionPoint};
use fa_attention::AttentionConfig;
use fa_bench::TablePrinter;
use fa_numerics::Tolerance;
use fa_tensor::{random::ElementDist, Matrix};
use flash_abft::FlashAbft;

fn main() {
    let n = 64;
    let d = 32;
    let cfg = AttentionConfig::new(d);
    let q = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 1);
    let k = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 2);
    let v = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 3);
    let trials = 200;
    let delta = 0.2;

    println!(
        "Detector coverage by injection point — N={n}, d={d}, {trials} trials/point, delta={delta}"
    );
    println!();

    let mut table = TablePrinter::new(vec![
        "injection point",
        "two-step ABFT",
        "extreme-value scan",
        "Flash-ABFT (fused)",
    ]);

    let engine = FlashAbft::new(cfg);
    let extreme = ExtremeChecker::default();

    for (label, point) in [
        ("score matrix (Q*K^T)", InjectionPoint::Scores),
        ("softmax output", InjectionPoint::Softmax),
        ("final output (S*V)", InjectionPoint::Output),
    ] {
        let mut caught = [0u64; 3];
        for t in 0..trials {
            let r = (t * 7) % n;
            let c = (t * 13) % n;
            let c_out = (t * 13) % d;
            let (rr, cc) = match point {
                InjectionPoint::Output => (r, c_out),
                _ => (r, c),
            };
            // Two-step pipeline with the injection; its own checks:
            let report = two_step::checked_attention(
                &q,
                &k,
                &v,
                &cfg,
                Tolerance::PAPER,
                Some((point, rr, cc, delta)),
            );
            if report.any_alarm() {
                caught[0] += 1;
            }
            // Extreme-value scan of the produced output:
            if extreme.any_extreme(&report.output) {
                caught[1] += 1;
            }
            // Flash-ABFT verifying the produced output. In this
            // *post-hoc software* deployment the prediction is recomputed
            // from the clean inputs, so even score-level corruption is
            // exposed (unlike the fused hardware checker, whose score
            // path is shared with the kernel).
            if engine.verify(&q, &k, &v, &report.output).is_alarm() {
                caught[2] += 1;
            }
        }
        let pct = |x: u64| format!("{:.0}%", 100.0 * x as f64 / trials as f64);
        table.row(vec![
            label.to_string(),
            pct(caught[0]),
            pct(caught[1]),
            pct(caught[2]),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("two-step ABFT misses score faults landing after its check window and is");
    println!("blind to softmax corruption by construction; the extreme-value scan only");
    println!("fires on INF/NaN (never here). Post-hoc Flash-ABFT verification predicts the");
    println!("checksum from clean inputs and covers all three points with ONE comparison.");
    println!("(In the fused hardware checker the score path is shared with the kernel, so");
    println!("score-register faults are coherent there.)");
}

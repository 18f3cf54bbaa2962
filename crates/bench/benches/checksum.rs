//! Criterion bench: checksum primitives — the closed-form Eq. 5
//! prediction (materializes softmax, O(N²)), the per-query Eq. 8 form
//! (O(N·(N+d)) streaming), the merged-accumulator step, and the
//! accelerator simulator's full run (golden) vs targeted fault
//! re-simulation — the quantity that makes 10 000-campaign tables cheap.

use criterion::{criterion_group, criterion_main, Criterion};
use fa_accel_sim::config::AcceleratorConfig;
use fa_accel_sim::fault::{Fault, RegAddr};
use fa_accel_sim::Accelerator;
use fa_attention::AttentionConfig;
use fa_numerics::BF16;
use fa_tensor::{random::ElementDist, Matrix};
use flash_abft::checksum::{predicted_checksum_eq5, predicted_checksum_eq8};
use flash_abft::MergedAccumulator;
use std::hint::black_box;

fn bench_checksum(c: &mut Criterion) {
    let n = 128;
    let d = 64;
    let q = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 1);
    let k = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 2);
    let v = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 3);
    let cfg = AttentionConfig::new(d);

    let mut group = c.benchmark_group("checksum_prediction");
    group.sample_size(10);
    group.bench_function("eq5_closed_form", |b| {
        b.iter(|| black_box(predicted_checksum_eq5(&q, &k, &v, &cfg)))
    });
    group.bench_function("eq8_per_query", |b| {
        b.iter(|| black_box(predicted_checksum_eq8(&q, &k, &v, &cfg)))
    });
    group.bench_function("merged_accumulator_128_steps", |b| {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| v.row(i).to_vec()).collect();
        b.iter(|| {
            let mut acc = MergedAccumulator::new(d);
            for (i, row) in rows.iter().enumerate() {
                acc.step(i as f64 * 0.01, row);
            }
            black_box(
                acc.normalized()
                    .map(|(out, check)| (out.sum::<f64>(), check)),
            )
        })
    });
    group.finish();

    let qb: Matrix<BF16> = q.cast();
    let kb: Matrix<BF16> = k.cast();
    let vb: Matrix<BF16> = v.cast();
    let accel = Accelerator::new(AcceleratorConfig::new(16, d));
    let golden = accel.run(&qb, &kb, &vb);
    let fault = Fault {
        cycle: 40,
        target: RegAddr::Output { block: 3, lane: 5 },
        bit: 60,
    };

    let mut group = c.benchmark_group("accel_sim");
    group.sample_size(10);
    group.bench_function("golden_full_run", |b| {
        b.iter(|| black_box(accel.run(&qb, &kb, &vb)))
    });
    group.bench_function("targeted_fault_resim", |b| {
        b.iter(|| black_box(accel.run_faulted(&qb, &kb, &vb, &[fault], Some(&golden))))
    });
    group.finish();
}

criterion_group!(benches, bench_checksum);
criterion_main!(benches);

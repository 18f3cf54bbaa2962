//! Bit-identity pins for the block kernels, each against an independent
//! scalar definition. The engine and the golden sessions share these
//! kernels, so engine-vs-golden property tests cannot see a bug in
//! them; these tests can.
//!
//! * the block scorer behind `ops::dot_then_scale_rows*` equals the
//!   portable per-row dot for every head dim, row count and format it
//!   serves, with signed zeros, infinities and NaN lanes;
//! * the two-phase span fold of `MergedAccumulator::fold` equals the
//!   row-at-a-time recurrence (`OnlineSoftmax::push`, the portable axpy
//!   and the checksum update), across chunk boundaries and one row per
//!   call;
//! * `OnlineSoftmax::push`'s `exp(0)` shortcut equals the `exp` path.

use fa_numerics::{OnlineSoftmax, BF16};
use fa_tensor::online::MergedAccumulator;
use fa_tensor::ops::{
    axpy_f64_portable, dot_f64_bf16_portable, dot_f64_portable, dot_then_scale_rows,
    dot_then_scale_rows_bf16, dot_then_scale_rows_multi,
};
use fa_tensor::Scalar;

/// Bitwise equality, with any NaN equal to any NaN (payload bits are
/// implementation-defined across the workspace).
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A deterministic value in [-4, 4) for element `i` of stream `seed`.
fn val(seed: u64, i: usize) -> f64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64).wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
}

/// A multi-query scorer over `f64` test queries and `K` key rows, in
/// `dot_then_scale_rows_multi`'s argument order.
type MultiScorer<K> = fn(&[f64], usize, &[K], usize, usize, f64, &mut Vec<f64>);

const SPECIALS: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// `rows × d` key values: rows `r % 4 == 1` carry one special lane each,
/// rows `r % 4 == 2` are all `−0.0` (a signed-zero dot), the rest finite.
fn keys(rows: usize, d: usize, seed: u64) -> Vec<f64> {
    let mut k: Vec<f64> = (0..rows * d).map(|i| val(seed, i)).collect();
    for r in 0..rows {
        let row = &mut k[r * d..(r + 1) * d];
        match r % 4 {
            1 => row[(r * 7) % d] = SPECIALS[r % SPECIALS.len()],
            2 => row.fill(-0.0),
            _ => {}
        }
    }
    k
}

/// Checks one format's block scorers against the portable per-row dot:
/// `narrow` maps the f64 test data into the key storage format, and
/// `score` / `multi` run the block and (for the formats that have one)
/// multi-query scorers.
fn check_format<K: Scalar>(
    what: &str,
    narrow: impl Fn(f64) -> K,
    row_dot: impl Fn(&[f64], &[K]) -> f64,
    score: impl Fn(&[f64], &[K], usize, usize, f64, &mut Vec<f64>),
    multi: Option<MultiScorer<K>>,
) {
    let scale = 0.088_388_347_648_318_44;
    let mut out = Vec::new();
    let dims: Vec<usize> = (1..=40).chain([64, 127, 128, 130]).collect();
    for &d in &dims {
        let k: Vec<K> = keys(33, d, d as u64).into_iter().map(&narrow).collect();
        // Two queries: one finite, one with a −0.0 lane and an infinity.
        let mut qs: Vec<f64> = (0..2 * d).map(|i| val(1000 + d as u64, i)).collect();
        qs[d] = -0.0;
        qs[2 * d - 1] = f64::INFINITY;
        for n in 0..=33 {
            for (qi, q) in qs.chunks_exact(d).enumerate() {
                // Row stride d + 3 exercises strided views too.
                for stride in [d, d + 3] {
                    let needed = if n == 0 { 0 } else { (n - 1) * stride + d };
                    let mut strided = Vec::with_capacity(needed);
                    for r in 0..n {
                        strided.extend_from_slice(&k[r * d..(r + 1) * d]);
                        if r + 1 < n {
                            strided.extend((0..stride - d).map(|_| narrow(7.0)));
                        }
                    }
                    score(q, &strided, stride, n, scale, &mut out);
                    assert_eq!(out.len(), n);
                    for (r, &got) in out.iter().enumerate() {
                        let want = row_dot(q, &k[r * d..(r + 1) * d]) * scale;
                        assert!(
                            same(got, want),
                            "{what}: d {d} rows {n} stride {stride} query {qi} row {r}: \
                             {got:e} vs {want:e}"
                        );
                    }
                }
            }
            // One query (a single whole-block call) and two (tiled).
            let Some(multi) = multi else { continue };
            for nq in [1, 2] {
                let mut tile = Vec::new();
                multi(&qs[..nq * d], d, &k, d, n, scale, &mut tile);
                assert_eq!(tile.len(), nq * n);
                for (i, &got) in tile.iter().enumerate() {
                    let (qi, r) = (i / n.max(1), i % n.max(1));
                    let want = row_dot(&qs[qi * d..(qi + 1) * d], &k[r * d..(r + 1) * d]) * scale;
                    assert!(
                        same(got, want),
                        "{what} multi: d {d} rows {n} queries {nq}: query {qi} row {r}"
                    );
                }
            }
        }
    }
}

#[test]
fn block_scorer_equals_portable_dot_row_by_row() {
    check_format(
        "f64",
        |x| x,
        dot_f64_portable,
        dot_then_scale_rows,
        Some(dot_then_scale_rows_multi),
    );
    check_format(
        "f64 x bf16",
        BF16::from_f64,
        dot_f64_bf16_portable,
        dot_then_scale_rows_bf16,
        None,
    );
    // f32 blocks score f32 queries: narrow the query too, then compare
    // against the portable dot over the same f32 operands.
    check_format(
        "f32",
        |x| x as f32,
        |q, row| dot_f64_portable(&narrow_f32(q), row),
        |q, rows, stride, n, scale, out| {
            dot_then_scale_rows(&narrow_f32(q), rows, stride, n, scale, out)
        },
        Some(|qs, d, rows, stride, n, scale, out| {
            dot_then_scale_rows_multi(&narrow_f32(qs), d, rows, stride, n, scale, out)
        }),
    );
}

fn narrow_f32(xs: &[f64]) -> Vec<f32> {
    xs.iter().map(|&x| x as f32).collect()
}

/// The row-at-a-time definition of a span fold: `push`, then the
/// portable axpy over the value row, then the checksum-lane update.
struct Reference {
    softmax: OnlineSoftmax,
    output: Vec<f64>,
    check: f64,
}

impl Reference {
    fn fold<V: Scalar>(&mut self, scores: &[f64], values: &[V], sumrows: &[f64]) {
        let d = self.output.len();
        for (j, &s) in scores.iter().enumerate() {
            let step = self.softmax.push(s);
            axpy_f64_portable(
                &mut self.output,
                &values[j * d..(j + 1) * d],
                step.scale_old,
                step.weight_new,
            );
            self.check = self.check * step.scale_old + sumrows[j] * step.weight_new;
        }
    }
}

/// Scores whose running max rises (rescale factors strictly between 0
/// and 1), stays put (factor exactly 1), and jumps by 1000 (factor
/// `e^{-1000}` = 0); `special` plants an infinity or NaN at row 70.
fn fold_scores(n: usize, special: Option<f64>) -> Vec<f64> {
    let mut s: Vec<f64> = (0..n)
        .map(|j| match j % 9 {
            0 => j as f64 * 0.01,
            4 => 1000.0 + j as f64,
            _ => val(77, j) - 2.0,
        })
        .collect();
    if let (Some(x), true) = (special, n > 70) {
        s[70] = x;
    }
    s
}

fn check_fold<V: Scalar>(what: &str, narrow: impl Fn(f64) -> V) {
    for d in [1, 3, 4, 20, 33, 128] {
        for n in [0, 1, 2, 63, 64, 65, 129, 200] {
            for special in [
                None,
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                Some(f64::NAN),
            ] {
                let scores = fold_scores(n, special);
                let values: Vec<V> = (0..n * d).map(|i| narrow(val(d as u64, i))).collect();
                let sumrows: Vec<f64> = (0..n).map(|j| val(5, j) * d as f64).collect();
                // Fold in two calls (a split mid-chunk) to cover carried state.
                let cut = n / 3;
                let mut acc = MergedAccumulator::new(d);
                acc.fold(&scores[..cut], &values[..cut * d], Some(&sumrows[..cut]));
                acc.fold(&scores[cut..], &values[cut * d..], Some(&sumrows[cut..]));
                // And one row per call: the one-row path on carried state.
                let mut by_row = MergedAccumulator::new(d);
                for j in 0..n {
                    let row = &values[j * d..(j + 1) * d];
                    by_row.fold(&scores[j..=j], row, Some(&sumrows[j..=j]));
                }
                let mut want = Reference {
                    softmax: OnlineSoftmax::new(),
                    output: vec![0.0; d],
                    check: 0.0,
                };
                want.fold(&scores, &values, &sumrows);
                for (acc, how) in [(&acc, "split"), (&by_row, "by row")] {
                    let at = format!("{what}: d {d} rows {n} special {special:?} {how}");
                    assert!(same(acc.sum_exp(), want.softmax.sum_exp()), "{at}: sum_exp");
                    assert!(same(acc.max_score(), want.softmax.max()), "{at}: max");
                    assert!(same(acc.checksum(), want.check), "{at}: checksum");
                    for (l, (&x, &y)) in acc.output().iter().zip(&want.output).enumerate() {
                        assert!(same(x, y), "{at}: lane {l}: {x:e} vs {y:e}");
                    }
                }
            }
        }
    }
}

#[test]
fn span_fold_equals_row_at_a_time_recurrence() {
    check_fold("f64", |x| x);
    check_fold("f32", |x| x as f32);
    check_fold("bf16", BF16::from_f64);
}

#[test]
fn fold_rescale_factors_cover_zero_one_and_between() {
    // The data of `span_fold_equals_row_at_a_time_recurrence` must reach
    // all three kinds of rescale factor, or that test proves less.
    let mut os = OnlineSoftmax::new();
    let factors: Vec<f64> = fold_scores(200, None)
        .into_iter()
        .skip(1)
        .map(|s| os.push(s).scale_old)
        .collect();
    assert!(factors.contains(&0.0));
    assert!(factors.contains(&1.0));
    assert!(factors.iter().any(|&f| f > 0.0 && f < 1.0));
}

#[test]
fn push_shortcut_equals_exp_path() {
    // The exp-path definition of `OnlineSoftmax::push`.
    fn push(max: &mut f64, sum: &mut f64, score: f64) -> (f64, f64) {
        let new_max = if score > *max { score } else { *max };
        let scale = if *max == f64::NEG_INFINITY {
            0.0
        } else {
            (*max - new_max).exp()
        };
        let weight = (score - new_max).exp();
        *sum = *sum * scale + weight;
        *max = new_max;
        (scale, weight)
    }
    let inf = f64::INFINITY;
    let sequences: [&[f64]; 7] = [
        &[0.5, 0.5, 0.25, 0.5, 1.0, 1.0, -3.0],
        &[-0.0, 0.0, -0.0, 0.0],
        &[1.0, inf, inf, 2.0, inf],
        &[inf, 1.0, inf],
        &[-inf, -inf, 0.0, -inf],
        &[2.0, f64::NAN, 2.0, 3.0],
        &[f64::NAN, 1.0, 1.0],
    ];
    for scores in sequences {
        let mut os = OnlineSoftmax::new();
        let (mut max, mut sum) = (f64::NEG_INFINITY, 0.0);
        for (j, &s) in scores.iter().enumerate() {
            let step = os.push(s);
            let (scale, weight) = push(&mut max, &mut sum, s);
            let at = format!("{scores:?} row {j}");
            assert!(same(step.scale_old, scale), "{at}: scale");
            assert!(same(step.weight_new, weight), "{at}: weight");
            assert!(same(os.sum_exp(), sum), "{at}: sum");
            assert!(same(os.max(), max), "{at}: max");
        }
    }
}

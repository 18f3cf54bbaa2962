//! High-level public API: [`FlashAbft`] and checked multi-head attention.

use crate::checker::{ChecksumReport, FlashAbftChecker};
use crate::online::{attention_checked, OnlineChecked};
use fa_attention::gqa::GqaConfig;
use fa_attention::multihead::MultiHeadConfig;
use fa_attention::AttentionConfig;
use fa_numerics::Tolerance;
use fa_tensor::{Matrix, Scalar};

/// Attention output bundled with its verification report.
#[derive(Clone)]
pub struct CheckedAttention<T> {
    result: OnlineChecked<T>,
    report: ChecksumReport,
}

impl<T: Scalar> std::fmt::Debug for CheckedAttention<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedAttention")
            .field("report", &self.report)
            .field("rows", &self.result.output.rows())
            .field("cols", &self.result.output.cols())
            .finish()
    }
}

impl<T: Scalar> CheckedAttention<T> {
    /// The attention output matrix.
    pub fn output(&self) -> &Matrix<T> {
        &self.result.output
    }

    /// Consumes self, returning the output matrix.
    pub fn into_output(self) -> Matrix<T> {
        self.result.output
    }

    /// The verification report.
    pub fn report(&self) -> ChecksumReport {
        self.report
    }

    /// Per-query checks (Alg. 3 line 10), for fine-grained localization:
    /// the query whose check deviates identifies the corrupted row.
    pub fn per_query_checks(&self) -> &[f64] {
        &self.result.per_query_checks
    }
}

/// The Flash-ABFT engine: computes attention with a fused online checksum
/// and verifies the result in a single call.
///
/// # Example
///
/// ```
/// use fa_tensor::{Matrix, random::ElementDist};
/// use fa_attention::AttentionConfig;
/// use flash_abft::FlashAbft;
/// use fa_numerics::Tolerance;
///
/// let d = 8;
/// let q = Matrix::<f64>::random_seeded(16, d, ElementDist::default(), 1);
/// let k = Matrix::<f64>::random_seeded(16, d, ElementDist::default(), 2);
/// let v = Matrix::<f64>::random_seeded(16, d, ElementDist::default(), 3);
///
/// let engine = FlashAbft::new(AttentionConfig::new(d))
///     .with_tolerance(Tolerance::Absolute(1e-6));
/// let checked = engine.compute(&q, &k, &v);
/// assert!(!checked.report().is_alarm());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlashAbft {
    cfg: AttentionConfig,
    checker: FlashAbftChecker,
}

impl FlashAbft {
    /// Creates an engine with the paper's default tolerance (absolute
    /// 10⁻⁶ — appropriate for f64 datapaths; use
    /// [`with_tolerance`](Self::with_tolerance) for narrow formats).
    pub fn new(cfg: AttentionConfig) -> Self {
        FlashAbft {
            cfg,
            checker: FlashAbftChecker::default(),
        }
    }

    /// Overrides the detection tolerance.
    pub fn with_tolerance(mut self, tolerance: Tolerance) -> Self {
        self.checker = FlashAbftChecker::new(tolerance);
        self
    }

    /// The attention configuration.
    pub fn config(&self) -> AttentionConfig {
        self.cfg
    }

    /// The underlying checker.
    pub fn checker(&self) -> FlashAbftChecker {
        self.checker
    }

    /// Computes attention with the fused checksum and verifies it.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn compute<T: Scalar>(
        &self,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
    ) -> CheckedAttention<T> {
        let result = attention_checked(q, k, v, &self.cfg);
        let report = self.checker.check_online(&result);
        CheckedAttention { result, report }
    }

    /// Verifies an externally produced output (deployment mode for
    /// checking accelerator results in software).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn verify<T: Scalar>(
        &self,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        output: &Matrix<T>,
    ) -> ChecksumReport {
        self.checker.verify_output(q, k, v, output, &self.cfg)
    }
}

/// Checked multi-head attention: each head runs the fused kernel and is
/// verified independently; reports are returned per head (a fault is
/// thereby localized to its head).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn multihead_checked<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    mh: &MultiHeadConfig,
    tolerance: Tolerance,
) -> (Matrix<T>, Vec<ChecksumReport>) {
    let d = mh.head.head_dim();
    let engine = FlashAbft::new(mh.head).with_tolerance(tolerance);
    let mut out = Matrix::zeros(q.rows(), mh.model_dim());
    let mut reports = Vec::with_capacity(mh.num_heads);
    for h in 0..mh.num_heads {
        let qh = mh.slice_head(q, h);
        let kh = mh.slice_head(k, h);
        let vh = mh.slice_head(v, h);
        let checked = engine.compute(&qh, &kh, &vh);
        for r in 0..out.rows() {
            for c in 0..d {
                out[(r, h * d + c)] = checked.output()[(r, c)];
            }
        }
        reports.push(checked.report());
    }
    (out, reports)
}

/// Checked grouped-query attention: each query head runs the fused
/// kernel against its group's K/V and is verified independently. GQA is
/// what Llama-3.1/Phi-3/Gemma2 actually deploy; the checksum identity is
/// unchanged per head because each head is an ordinary attention over
/// its group's K/V.
///
/// Each kv group's K/V is sliced **once** and shared by all
/// `group_size` query heads — the same shared-per-group structure the
/// serving stack's `DecodeBatch` prefill uses (where, with a causal head
/// config, batched admission is pinned bit-identical to this function by
/// regression test).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn gqa_checked<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    gqa: &GqaConfig,
    tolerance: Tolerance,
) -> (Matrix<T>, Vec<ChecksumReport>) {
    assert_eq!(q.cols(), gqa.q_dim(), "packed Q width mismatch");
    assert_eq!(k.cols(), gqa.kv_dim(), "packed K width mismatch");
    assert_eq!(v.cols(), gqa.kv_dim(), "packed V width mismatch");
    let d = gqa.head.head_dim();
    let q_slicer = MultiHeadConfig::new(gqa.query_heads, gqa.head);
    let kv_slicer = MultiHeadConfig::new(gqa.kv_heads, gqa.head);
    let groups: Vec<(Matrix<T>, Matrix<T>)> = (0..gqa.kv_heads)
        .map(|g| (kv_slicer.slice_head(k, g), kv_slicer.slice_head(v, g)))
        .collect();
    let engine = FlashAbft::new(gqa.head).with_tolerance(tolerance);
    let mut out = Matrix::zeros(q.rows(), gqa.q_dim());
    let mut reports = Vec::with_capacity(gqa.query_heads);
    for h in 0..gqa.query_heads {
        let (kg, vg) = &groups[gqa.group_of(h)];
        let checked = engine.compute(&q_slicer.slice_head(q, h), kg, vg);
        for r in 0..out.rows() {
            for c in 0..d {
                out[(r, h * d + c)] = checked.output()[(r, c)];
            }
        }
        reports.push(checked.report());
    }
    (out, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_attention::naive;
    use fa_tensor::random::ElementDist;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn end_to_end_fault_free() {
        let (q, k, v) = rand_qkv(20, 8, 500);
        let engine = FlashAbft::new(AttentionConfig::new(8));
        let checked = engine.compute(&q, &k, &v);
        assert!(!checked.report().is_alarm());
        let reference = naive::attention(&q, &k, &v, &AttentionConfig::new(8));
        assert!(checked.output().max_abs_diff(&reference) < 1e-12);
        assert_eq!(checked.per_query_checks().len(), 20);
    }

    #[test]
    fn verify_detects_corruption_and_localizes_via_row_checks() {
        let (q, k, v) = rand_qkv(10, 4, 501);
        let cfg = AttentionConfig::new(4);
        let engine = FlashAbft::new(cfg);
        let clean = engine.compute(&q, &k, &v);
        let mut corrupted = clean.output().clone();
        corrupted[(7, 1)] += 0.02;
        let report = engine.verify(&q, &k, &v, &corrupted);
        assert!(report.is_alarm());
        // Localization: the corrupted row's sum deviates from its check.
        let row_sum: f64 = corrupted.row(7).iter().sum();
        let check7 = clean.per_query_checks()[7];
        assert!((row_sum - check7).abs() > 0.019);
        for i in 0..10 {
            if i == 7 {
                continue;
            }
            let rs: f64 = corrupted.row(i).iter().sum();
            assert!((rs - clean.per_query_checks()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn multihead_reports_are_per_head() {
        let mh = MultiHeadConfig::new(2, AttentionConfig::new(4));
        let (q, k, v) = rand_qkv(8, 8, 502);
        let (out, reports) = multihead_checked(&q, &k, &v, &mh, Tolerance::PAPER);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| !r.is_alarm()));
        assert_eq!((out.rows(), out.cols()), (8, 8));
        // Matches unchecked multi-head attention.
        let reference = fa_attention::multihead::attention(&q, &k, &v, &mh);
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn builder_roundtrip() {
        let engine =
            FlashAbft::new(AttentionConfig::new(16)).with_tolerance(Tolerance::Absolute(0.1));
        assert_eq!(engine.config().head_dim(), 16);
        assert_eq!(engine.checker().tolerance(), Tolerance::Absolute(0.1));
    }

    #[test]
    fn gqa_checked_verifies_clean_and_matches_unchecked() {
        let gqa = GqaConfig::new(4, 2, AttentionConfig::new(4));
        let q = Matrix::<f64>::random_seeded(6, 16, ElementDist::default(), 600);
        let k = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 601);
        let v = Matrix::<f64>::random_seeded(6, 8, ElementDist::default(), 602);
        let (out, reports) = gqa_checked(&q, &k, &v, &gqa, Tolerance::PAPER);
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| !r.is_alarm()));
        let reference = fa_attention::gqa::attention(&q, &k, &v, &gqa);
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn gqa_checked_pinned_to_per_head_engine_loop() {
        // Regression pin for the shared-per-group refactor: gqa_checked
        // must stay bit-identical — outputs *and* reports — to the
        // original formulation (one engine.compute per query head over
        // per-member slices of the group's K/V).
        let head = AttentionConfig::new(4).with_causal(true).with_scale(0.3);
        let gqa = GqaConfig::new(6, 2, head);
        let q = Matrix::<f64>::random_seeded(9, gqa.q_dim(), ElementDist::default(), 610);
        let k = Matrix::<f64>::random_seeded(9, gqa.kv_dim(), ElementDist::default(), 611);
        let v = Matrix::<f64>::random_seeded(9, gqa.kv_dim(), ElementDist::default(), 612);
        let (out, reports) = gqa_checked(&q, &k, &v, &gqa, Tolerance::PAPER);

        let d = gqa.head.head_dim();
        let q_slicer = MultiHeadConfig::new(gqa.query_heads, gqa.head);
        let kv_slicer = MultiHeadConfig::new(gqa.kv_heads, gqa.head);
        let engine = FlashAbft::new(gqa.head).with_tolerance(Tolerance::PAPER);
        for h in 0..gqa.query_heads {
            let g = gqa.group_of(h);
            let checked = engine.compute(
                &q_slicer.slice_head(&q, h),
                &kv_slicer.slice_head(&k, g),
                &kv_slicer.slice_head(&v, g),
            );
            for r in 0..out.rows() {
                for c in 0..d {
                    assert_eq!(
                        out[(r, h * d + c)].to_bits(),
                        checked.output()[(r, c)].to_bits(),
                        "head {h} row {r} lane {c}"
                    );
                }
            }
            assert_eq!(reports[h], checked.report(), "head {h} report");
        }
    }

    #[test]
    fn gqa_admit_path_pinned_to_gqa_checked() {
        // The serving stack's batched admission IS the one-shot checked
        // GQA prefill: with a causal head config, one prefill chunk
        // (DecodeBatch::enqueue + prefill_step_for) over a grouped
        // topology produces gqa_checked's outputs bit for bit,
        // and its prompt checksum folds the per-query-head
        // flash2_with_checksum predictions in head order.
        use fa_attention::batch::DecodeBatch;

        let head = AttentionConfig::new(4).with_causal(true);
        let gqa = GqaConfig::new(4, 2, head);
        let n = 10;
        let q = Matrix::<f64>::random_seeded(n, gqa.q_dim(), ElementDist::default(), 620);
        let k = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 621);
        let v = Matrix::<f64>::random_seeded(n, gqa.kv_dim(), ElementDist::default(), 622);

        let (reference, reports) = gqa_checked(&q, &k, &v, &gqa, Tolerance::PAPER);
        assert!(reports.iter().all(|r| !r.is_alarm()));

        for block_rows in [2, 16] {
            let mut batch = DecodeBatch::<f64>::new(gqa, block_rows);
            let seq = batch.enqueue(&q, &k, &v);
            batch.prefill_step_for(&[seq]);
            let admitted = batch.take_admitted(seq).expect("prompt fits one chunk");
            for r in 0..n {
                for c in 0..gqa.q_dim() {
                    assert_eq!(
                        admitted.output[(r, c)].to_bits(),
                        reference[(r, c)].to_bits(),
                        "block_rows {block_rows} row {r} lane {c}"
                    );
                }
            }
            // The prompt checksum is the head-order fold of the fused
            // kernel's per-head predictions over shared group K/V.
            let q_slicer = MultiHeadConfig::new(gqa.query_heads, gqa.head);
            let kv_slicer = MultiHeadConfig::new(gqa.kv_heads, gqa.head);
            let mut predicted = 0.0f64;
            for h in 0..gqa.query_heads {
                let g = gqa.group_of(h);
                let fused = crate::online::flash2_with_checksum(
                    &q_slicer.slice_head(&q, h),
                    &kv_slicer.slice_head(&k, g),
                    &kv_slicer.slice_head(&v, g),
                    &gqa.head,
                );
                predicted += fused.predicted;
            }
            assert_eq!(admitted.predicted.to_bits(), predicted.to_bits());
            assert!(admitted.residual().abs() < 1e-9);
        }
    }

    #[test]
    fn checksum_identity_holds_under_sliding_window() {
        let cfg = AttentionConfig::new(4)
            .with_causal(true)
            .with_sliding_window(3);
        let (q, k, v) = rand_qkv(12, 4, 700);
        let engine = FlashAbft::new(cfg);
        let checked = engine.compute(&q, &k, &v);
        assert!(!checked.report().is_alarm());
        let reference = naive::attention(&q, &k, &v, &cfg);
        assert!(checked.output().max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn bf16_inputs_with_format_appropriate_tolerance() {
        use fa_numerics::BF16;
        let (q, k, v) = rand_qkv(16, 8, 503);
        let qb: Matrix<BF16> = q.cast();
        let kb: Matrix<BF16> = k.cast();
        let vb: Matrix<BF16> = v.cast();
        // BF16 outputs carry ~1e-2 format noise into the actual checksum:
        // the paper's 1e-6 would false-alarm; a relative tolerance works.
        let engine = FlashAbft::new(AttentionConfig::new(8)).with_tolerance(Tolerance::Relative {
            bound: 0.05,
            floor: 1e-3,
        });
        let checked = engine.compute(&qb, &kb, &vb);
        assert!(!checked.report().is_alarm());
    }
}

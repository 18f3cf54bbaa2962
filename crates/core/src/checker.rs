//! Detection: tolerance comparison and verification reports.

use crate::checksum::predicted_checksum_eq5;
use crate::online::OnlineChecked;
use fa_attention::AttentionConfig;
use fa_numerics::{CheckOutcome, Tolerance};
use fa_tensor::{Matrix, Scalar};

/// The verdict of one Flash-ABFT check.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChecksumReport {
    /// Predicted checksum (from the fused online computation).
    pub predicted: f64,
    /// Actual checksum (sum of the produced attention output).
    pub actual: f64,
    /// Comparison outcome under the configured tolerance.
    pub outcome: CheckOutcome,
}

impl ChecksumReport {
    /// Whether the checker raised an alarm.
    pub fn is_alarm(&self) -> bool {
        self.outcome.is_alarm()
    }

    /// The signed residual `predicted − actual`.
    pub fn residual(&self) -> f64 {
        self.predicted - self.actual
    }
}

/// The Flash-ABFT checker: a tolerance plus comparison plumbing.
///
/// # Example
///
/// ```
/// use flash_abft::FlashAbftChecker;
/// use fa_numerics::Tolerance;
///
/// let checker = FlashAbftChecker::new(Tolerance::PAPER);
/// let report = checker.compare(1.0, 1.0 + 1e-9);
/// assert!(!report.is_alarm());
/// let report = checker.compare(1.0, 1.5);
/// assert!(report.is_alarm());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlashAbftChecker {
    tolerance: Tolerance,
}

impl Default for FlashAbftChecker {
    /// The paper's operating point: absolute 10⁻⁶.
    fn default() -> Self {
        FlashAbftChecker {
            tolerance: Tolerance::PAPER,
        }
    }
}

impl FlashAbftChecker {
    /// Creates a checker with the given tolerance.
    pub fn new(tolerance: Tolerance) -> Self {
        FlashAbftChecker { tolerance }
    }

    /// The configured tolerance.
    pub fn tolerance(&self) -> Tolerance {
        self.tolerance
    }

    /// Compares a predicted/actual checksum pair.
    pub fn compare(&self, predicted: f64, actual: f64) -> ChecksumReport {
        ChecksumReport {
            predicted,
            actual,
            outcome: self.tolerance.check(predicted, actual),
        }
    }

    /// Checks the result of the fused online kernel.
    pub fn check_online<T: Scalar>(&self, result: &OnlineChecked<T>) -> ChecksumReport {
        self.compare(result.predicted, result.actual)
    }

    /// Post-hoc verification of an **externally produced** attention
    /// output (e.g. from an accelerator or a GPU kernel) against the
    /// checksum predicted from fault-free inputs. This is the software
    /// fallback deployment mode of Flash-ABFT: the prediction costs
    /// O(N·(N+d)) — it never materializes the softmax matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn verify_output<T: Scalar>(
        &self,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        output: &Matrix<T>,
        cfg: &AttentionConfig,
    ) -> ChecksumReport {
        cfg.validate_shapes(q, k, v);
        assert_eq!(output.rows(), q.rows(), "output row count mismatch");
        assert_eq!(
            output.cols(),
            cfg.head_dim(),
            "output column count mismatch"
        );
        let predicted = crate::checksum::predicted_checksum_eq8(q, k, v, cfg);
        let actual = output.sum_all();
        self.compare(predicted, actual)
    }

    /// Like [`verify_output`](Self::verify_output) but predicting via the
    /// Eq. 5 closed form (materializes softmax; O(N²) — test/debug use).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn verify_output_eq5<T: Scalar>(
        &self,
        q: &Matrix<T>,
        k: &Matrix<T>,
        v: &Matrix<T>,
        output: &Matrix<T>,
        cfg: &AttentionConfig,
    ) -> ChecksumReport {
        cfg.validate_shapes(q, k, v);
        let predicted = predicted_checksum_eq5(q, k, v, cfg);
        let actual = output.sum_all();
        self.compare(predicted, actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::flash2_with_checksum;
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
    fn fault_free_online_check_passes() {
        let (q, k, v) = rand_qkv(16, 8, 400);
        let cfg = AttentionConfig::new(8);
        let result = flash2_with_checksum(&q, &k, &v, &cfg);
        let report = FlashAbftChecker::default().check_online(&result);
        assert_eq!(report.outcome, CheckOutcome::Pass);
        assert!(report.residual().abs() < 1e-10);
    }

    #[test]
    fn corrupted_external_output_alarms() {
        let (q, k, v) = rand_qkv(12, 4, 401);
        let cfg = AttentionConfig::new(4);
        let mut output = naive::attention(&q, &k, &v, &cfg);
        output[(5, 2)] += 0.01;
        let report = FlashAbftChecker::default().verify_output(&q, &k, &v, &output, &cfg);
        assert!(report.is_alarm());
    }

    #[test]
    fn clean_external_output_passes() {
        let (q, k, v) = rand_qkv(12, 4, 402);
        let cfg = AttentionConfig::new(4);
        let output = naive::attention(&q, &k, &v, &cfg);
        let report = FlashAbftChecker::default().verify_output(&q, &k, &v, &output, &cfg);
        assert!(!report.is_alarm());
        let report5 = FlashAbftChecker::default().verify_output_eq5(&q, &k, &v, &output, &cfg);
        assert!(!report5.is_alarm());
    }

    #[test]
    fn softmax_level_fault_is_caught_unlike_two_step_abft() {
        // The headline coverage improvement: corrupt the softmax inside a
        // recomputed attention and verify Flash-ABFT sees what two-step
        // ABFT provably cannot (fa-abft::two_step tests the negative).
        let (q, k, v) = rand_qkv(8, 4, 403);
        let cfg = AttentionConfig::new(4);
        // Build attention from a softmax matrix with one corrupted weight.
        let mut s = naive::softmax_scores(&q, &k, &cfg);
        s[(2, 3)] += 0.2;
        let bad_output = s.matmul(&v);
        let report = FlashAbftChecker::default().verify_output(&q, &k, &v, &bad_output, &cfg);
        assert!(report.is_alarm(), "softmax corruption must be detected");
    }

    #[test]
    fn nan_output_is_nan_silent() {
        let (q, k, v) = rand_qkv(6, 4, 404);
        let cfg = AttentionConfig::new(4);
        let mut output = naive::attention(&q, &k, &v, &cfg);
        output[(0, 0)] = f64::NAN;
        let report = FlashAbftChecker::default().verify_output(&q, &k, &v, &output, &cfg);
        assert_eq!(report.outcome, CheckOutcome::NanSilent);
    }

    #[test]
    fn tolerance_is_configurable() {
        let checker = FlashAbftChecker::new(Tolerance::Absolute(0.5));
        assert!(!checker.compare(1.0, 1.3).is_alarm());
        assert!(checker.compare(1.0, 1.6).is_alarm());
        assert_eq!(checker.tolerance(), Tolerance::Absolute(0.5));
    }

    #[test]
    #[should_panic(expected = "output row count mismatch")]
    fn verify_shape_mismatch_panics() {
        let (q, k, v) = rand_qkv(6, 4, 405);
        let cfg = AttentionConfig::new(4);
        let wrong = Matrix::<f64>::zeros(3, 4);
        let _ = FlashAbftChecker::default().verify_output(&q, &k, &v, &wrong, &cfg);
    }
}

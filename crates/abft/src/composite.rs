//! Composite checking: Flash-ABFT's checksum plus an extreme-value scan.
//!
//! The fault-injection results (`table1_fault_detection`) show Flash-ABFT's
//! residual risk is concentrated in NaN/INF-poisoned outputs: the
//! magnitude comparator cannot fire on a NaN difference (the paper's
//! "Silent" category 3). An ATTNChecker-style scan is blind to numeric
//! corruption but catches exactly those invalid values — the two compose
//! into a detector with no NaN blind spot for the price of one extra
//! pass over the output (or, in hardware, an exponent-all-ones tap on
//! the writeback bus).

use crate::extreme::ExtremeChecker;
use fa_numerics::{CheckOutcome, Tolerance};
use fa_tensor::{Matrix, Scalar};

/// Verdict of the composite detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CompositeVerdict {
    /// Both checks clean.
    Clean,
    /// The checksum comparison fired.
    ChecksumAlarm,
    /// The extreme-value scan fired (NaN/INF/near-INF present).
    ExtremeAlarm,
    /// Both fired.
    BothAlarms,
}

impl CompositeVerdict {
    /// Whether anything fired.
    pub fn is_alarm(self) -> bool {
        !matches!(self, CompositeVerdict::Clean)
    }
}

/// Flash-ABFT checksum verification combined with an extreme-value scan.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompositeChecker {
    /// Checksum comparison tolerance.
    pub tolerance: Tolerance,
    /// Extreme-value scanner configuration.
    pub extreme: ExtremeChecker,
}

impl Default for CompositeChecker {
    fn default() -> Self {
        CompositeChecker {
            tolerance: Tolerance::PAPER,
            extreme: ExtremeChecker::default(),
        }
    }
}

impl CompositeChecker {
    /// Creates a composite checker.
    pub fn new(tolerance: Tolerance, extreme: ExtremeChecker) -> Self {
        CompositeChecker { tolerance, extreme }
    }

    /// Verifies an output against a predicted checksum, with the extreme
    /// scan covering the comparator's NaN blind spot.
    pub fn verify<T: Scalar>(&self, predicted: f64, output: &Matrix<T>) -> CompositeVerdict {
        let actual = output.sum_all();
        let checksum_alarm = self.tolerance.check(predicted, actual) == CheckOutcome::Alarm;
        let extreme_alarm = self.extreme.any_extreme(output);
        match (checksum_alarm, extreme_alarm) {
            (false, false) => CompositeVerdict::Clean,
            (true, false) => CompositeVerdict::ChecksumAlarm,
            (false, true) => CompositeVerdict::ExtremeAlarm,
            (true, true) => CompositeVerdict::BothAlarms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_tensor::random::ElementDist;

    fn clean_output() -> (f64, Matrix<f64>) {
        let m = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 1);
        (m.sum_all(), m)
    }

    #[test]
    fn clean_output_passes_both() {
        let (predicted, output) = clean_output();
        let verdict = CompositeChecker::default().verify(predicted, &output);
        assert_eq!(verdict, CompositeVerdict::Clean);
        assert!(!verdict.is_alarm());
    }

    #[test]
    fn numeric_corruption_trips_checksum_only() {
        let (predicted, mut output) = clean_output();
        output[(3, 1)] += 0.5;
        let verdict = CompositeChecker::default().verify(predicted, &output);
        assert_eq!(verdict, CompositeVerdict::ChecksumAlarm);
        assert!(verdict.is_alarm());
    }

    #[test]
    fn nan_poisoning_is_caught_by_the_scan() {
        // THE case the checksum comparator cannot see: NaN difference.
        let (predicted, mut output) = clean_output();
        output[(0, 0)] = f64::NAN;
        let checker = CompositeChecker::default();
        // Checksum alone: NanSilent (no alarm).
        assert_eq!(
            checker.tolerance.check(predicted, output.sum_all()),
            CheckOutcome::NanSilent
        );
        // Composite: caught.
        let verdict = checker.verify(predicted, &output);
        assert_eq!(verdict, CompositeVerdict::ExtremeAlarm);
        assert!(verdict.is_alarm());
    }

    #[test]
    fn inf_with_numeric_shift_trips_both() {
        let (predicted, mut output) = clean_output();
        output[(1, 1)] = f64::INFINITY; // sum becomes inf: |inf - p| = inf > tau
        let verdict = CompositeChecker::default().verify(predicted, &output);
        assert_eq!(verdict, CompositeVerdict::BothAlarms);
    }

    #[test]
    fn composite_closes_the_silent_nan_class() {
        // Sweep: plant NaN at every position; the composite detector must
        // fire every time while the bare comparator never does.
        let (predicted, output) = clean_output();
        let checker = CompositeChecker::default();
        for r in 0..8 {
            for c in 0..4 {
                let mut bad = output.clone();
                bad[(r, c)] = f64::NAN;
                assert!(checker.verify(predicted, &bad).is_alarm(), "({r},{c})");
                assert_ne!(
                    checker.tolerance.check(predicted, bad.sum_all()),
                    CheckOutcome::Alarm
                );
            }
        }
    }
}

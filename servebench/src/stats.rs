//! Order statistics with the sample-support rule the benchmark reports by.

/// Samples a percentile must leave above its rank before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted slice, or
/// `None` when fewer than [`TAIL_SUPPORT`] samples lie above the rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    (sorted.len() - rank >= TAIL_SUPPORT).then(|| sorted[rank - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples (`None` when
/// `n == 0`).
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    (n > 0).then(|| (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n))
}

/// A percentile as the benchmark reports it: the nearest-rank value when
/// the sample supports it, otherwise the highest supported rank (or the
/// median of a tiny sample), with the percentile actually reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reported {
    pub value: f64,
    pub n: usize,
    pub effective_p: f64,
}

/// Reports percentile `p` of `sorted`, falling back to the highest rank
/// that still has [`TAIL_SUPPORT`] samples above it. An empty sample
/// reports 0.
pub fn report(sorted: &[f64], p: f64) -> Reported {
    let n = sorted.len();
    if let Some(value) = percentile(sorted, p) {
        return Reported {
            value,
            n,
            effective_p: p,
        };
    }
    if n == 0 {
        return Reported {
            value: 0.0,
            n,
            effective_p: p,
        };
    }
    let rank = if n > TAIL_SUPPORT {
        n - TAIL_SUPPORT
    } else {
        nearest_rank(n, 50.0).expect("sample is non-empty")
    };
    Reported {
        value: sorted[rank - 1],
        n,
        effective_p: 100.0 * rank as f64 / n as f64,
    }
}

/// Sorts a sample ascending (NaN-free by construction: wall-clock
/// durations).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// Median of an unsorted sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Arithmetic mean (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs = ramp(100);
        // ceil(0.5 · 100) = 50, ceil(0.9 · 100) = 90: no interpolation.
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        let odd = ramp(41);
        assert_eq!(percentile(&odd, 50.0), Some(21.0));
        assert_eq!(percentile(&odd, 12.5), Some(6.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_the_rank() {
        // p90 of 100 samples leaves exactly 10 above rank 90.
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        // p90 of 99 samples sits at rank 90 with only 9 above it.
        assert_eq!(percentile(&ramp(99), 90.0), None);
        // p99 needs 1000 samples.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
    }

    #[test]
    fn unsupported_percentiles_report_the_highest_supported_rank() {
        let r = report(&ramp(50), 99.0);
        assert_eq!(r.value, 40.0);
        assert_eq!(r.n, 50);
        assert!((r.effective_p - 80.0).abs() < 1e-12);
        let supported = report(&ramp(1000), 99.0);
        assert_eq!(supported.value, 990.0);
        assert_eq!(supported.effective_p, 99.0);
        assert_eq!(report(&ramp(5), 90.0).value, 3.0);
        assert_eq!(report(&[], 50.0).value, 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}

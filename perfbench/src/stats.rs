//! Order statistics: every timing is reported as a median plus the
//! highest percentile the sample supports.

/// Percentiles tried for a tail, highest first. A tail is reported at
/// the first one with at least [`MIN_BEYOND`] samples beyond it.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count). `NaN` for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank index (0-based) of percentile `p` in a sorted sample of
/// `n` values: the smallest value with at least `p`% of the sample at
/// or below it.
/// Computed in integer per-mille so that, e.g., p99.9 of 10 000 values
/// is exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    let r = (permille * n).div_ceil(1_000);
    r.clamp(1, n) - 1
}

/// The highest percentile of [`TAIL_LADDER`] that a sample of `n`
/// values supports: at least [`MIN_BEYOND`] values lie strictly above
/// its rank. `None` when the sample is too small for any of them.
fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
}

/// A sample's tail: `(percentile, value)` at [`supported_tail`]. A
/// sample too small for any of them (under 40 values) reports its
/// upper quartile, the lowest rung: fewer than ten values lie beyond
/// it, but unlike the maximum it does not hang on one value.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = supported_tail(values.len()).unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1]);
    (p, percentile(values, p))
}

/// The value at percentile `p` (nearest rank), or `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Percentile `p` of each run of `window` consecutive values (a short
/// last run is dropped), and the median of those; percentile `p` of the
/// whole sample when it holds less than one window. A host stall lifts
/// the tail only of the windows it falls in, so a run's figure does not
/// hang on how many stalls it happened to catch.
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> f64 {
    let tails: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| percentile(w, p))
        .collect();
    if tails.is_empty() {
        percentile(values, p)
    } else {
        median(&tails)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1 000 values sits at rank 990 (0-based 989): ten
        // values lie beyond it. One value fewer and p99 is unsupported.
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn tail_reports_the_supported_percentile_or_the_upper_quartile() {
        let values: Vec<f64> = (1..=1_010).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 1_000.0));
        let few = [5.0, 9.0, 7.0, 100.0];
        assert_eq!(tail(&few), (75.0, 9.0));
        for (p, n) in [(99.0, 1_000usize), (95.0, 999)] {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (q, at) = tail(&v);
            assert_eq!(q, p);
            let beyond = v.iter().filter(|&&x| x > at).count();
            assert!(beyond >= MIN_BEYOND, "{beyond} beyond p{p} of {n}");
        }
    }

    #[test]
    fn windowed_tail_is_the_median_window_and_ignores_one_stalled_window() {
        // Five windows of 1 000 values 1..=1 000: p99 of each is 990,
        // with ten values beyond it.
        let mut values: Vec<f64> = (0..5_000).map(|i| f64::from(i % 1_000 + 1)).collect();
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(windowed_percentile(&values, 1_000, 99.0), 990.0);
        // A stall in the third window moves its tail, not the median's.
        for v in &mut values[2_000..2_100] {
            *v = 1e6;
        }
        assert_eq!(percentile(&values, 99.0), 1e6);
        assert_eq!(windowed_percentile(&values, 1_000, 99.0), 990.0);
        // The short last window is dropped; under one window, the whole
        // sample's percentile.
        values.extend([1e9; 999]);
        assert_eq!(windowed_percentile(&values, 1_000, 99.0), 990.0);
        assert_eq!(windowed_percentile(&values[..999], 1_000, 99.0), 990.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 50.0), 20.0);
        assert_eq!(percentile(&v, 75.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
    }
}

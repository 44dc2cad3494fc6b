//! Order statistics over timing samples.

use std::collections::HashMap;
use std::hash::Hash;

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks (the same rule as numpy's default and Python's
/// `statistics.quantiles(method="inclusive")`).  Returns 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Each `(kind, time)` sample's time replaced by the median time of its
/// kind, where a kind is one piece of work the run repeats: the run's
/// operation mix without the spread between repetitions.
pub fn kind_medians<K: Eq + Hash>(samples: &[(K, f64)]) -> Vec<f64> {
    let mut by_kind: HashMap<&K, Vec<f64>> = HashMap::new();
    for (kind, t) in samples {
        by_kind.entry(kind).or_default().push(*t);
    }
    let medians: HashMap<&K, f64> = by_kind.into_iter().map(|(k, v)| (k, median(&v))).collect();
    samples.iter().map(|(kind, _)| medians[kind]).collect()
}

/// Geometric mean of positive ratios (0 for no ratios).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        // Interpolates between ranks: 90% of 4 gaps is 3.6 -> 4.6.
        assert!((percentile(&s, 90.0) - 4.6).abs() < 1e-12);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&even), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&hundred, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn kind_medians_of_known_samples() {
        let samples = [
            ("a", 3.0),
            ("b", 10.0),
            ("a", 2.0),
            ("b", 12.0),
            ("a", 40.0),
        ];
        assert_eq!(kind_medians(&samples), vec![3.0, 11.0, 3.0, 11.0, 3.0]);
        assert!(kind_medians::<u8>(&[]).is_empty());
    }

    #[test]
    fn geomean_of_known_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

//! Order statistics used by every reported timing.

/// Nearest-rank percentile (`pct` in `(0, 100]`) of an ascending-sorted
/// sample: the smallest value with at least `pct` percent of the sample at
/// or below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// CPU steal below which a second counts as undisturbed.
const STEAL_NOISE_FLOOR: f64 = 0.01;

/// Indices of the seconds whose CPU steal is at most the median steal or
/// the noise floor, whichever is higher: the less disturbed half or more,
/// and every second when little was stolen.
pub fn least_disturbed(steal_by_second: &[f64]) -> Vec<usize> {
    let Some(median) = median(steal_by_second) else {
        return Vec::new();
    };
    let threshold = median.max(STEAL_NOISE_FLOOR);
    (0..steal_by_second.len())
        .filter(|&s| steal_by_second[s] <= threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_disturbed_keeps_the_quietest_seconds() {
        assert_eq!(least_disturbed(&[0.3, 0.0, 0.1, 0.0, 0.2]), vec![1, 2, 3]);
        assert_eq!(least_disturbed(&[0.4, 0.1, 0.2, 0.3]), vec![1, 2]);
        // Below the noise floor every second counts.
        assert_eq!(least_disturbed(&[0.0, 0.005, 0.0, 0.009]), vec![0, 1, 2, 3]);
        assert_eq!(least_disturbed(&[0.0, 0.005, 0.2, 0.3]), vec![0, 1]);
        assert_eq!(least_disturbed(&[]), Vec::<usize>::new());
    }

    #[test]
    fn nearest_rank_percentiles_on_a_known_sample() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), Some(50.0));
        assert_eq!(percentile(&sample, 99.0), Some(99.0));
        assert_eq!(percentile(&sample, 100.0), Some(100.0));
        assert_eq!(percentile(&sample, 0.5), Some(1.0));
        let small = [2.0, 4.0, 8.0];
        assert_eq!(percentile(&small, 50.0), Some(4.0));
        assert_eq!(percentile(&small, 99.0), Some(8.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}

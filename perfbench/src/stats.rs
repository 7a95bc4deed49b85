//! Order statistics over the benchmark's own raw samples. No bucketed
//! histogram is ever consulted: every percentile here is read from the
//! sorted samples themselves.

/// Median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the value at sorted rank `n − 11` (zero-based), and the
/// percentile it stands for. With ten or fewer samples no percentile
/// qualifies and the maximum is returned at percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    let rank = n - 11;
    (s[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&samples);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(samples.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }
}

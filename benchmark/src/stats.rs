//! Order statistics over samples.

/// Sorts `samples` and returns their median (0 for an empty set).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The smallest sample (0 for an empty set): the estimate for a timing on
/// a shared box, where interference only ever adds time.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Sorts `samples` and returns the nearest-rank `p`-th percentile: the
/// smallest sample with at least `p` percent of the set at or below it
/// (0 for an empty set).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The three quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), so `--repeat` judges spread the way
/// the driver does. Needs at least two samples.
pub fn quartiles(samples: &mut [f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [], 95.0), 0.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&mut [16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&mut [3.0, 1.0]), [0.5, 2.0, 3.5]);
    }
}

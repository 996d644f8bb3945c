//! Order statistics over latency samples.

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank method:
/// the smallest sample with at least `q * n` samples at or below it. `None`
/// for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The median (nearest-rank 0.5-quantile); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the nearest-rank `q`-quantile.
/// A percentile is reported as valid only when at least ten samples lie
/// beyond it.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    match percentile(samples, q) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.99), Some(99.0));
        assert_eq!(percentile(&samples, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.5), Some(3.0));
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(&samples, 0.99), 10);
        assert_eq!(samples_beyond(&samples[..100], 0.99), 1);
        assert_eq!(samples_beyond(&samples[..100], 0.9), 10);
        // Ties at the cut are not "beyond" it.
        assert_eq!(samples_beyond(&[1.0, 2.0, 2.0, 2.0], 0.5), 0);
    }

    #[test]
    fn share_guards_empty_denominators() {
        assert_eq!(share(3, 4), 0.75);
        assert_eq!(share(0, 0), 0.0);
    }
}

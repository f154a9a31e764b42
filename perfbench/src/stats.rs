//! Order statistics for latency samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice
/// (the "closest ranks" rule: rank `q·(n−1)`, interpolated between the
/// two neighbouring samples). `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sorts a copy of `samples` and takes quantile `q` of it.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// The tail quantile reported for a sample of `n`: p90 when at least ten
/// samples lie above it, else the median. A tail read from fewer samples
/// is one or two outliers, not a percentile. p99 is not used: on a shared
/// 2-vCPU host it is set by the hypervisor descheduling the guest and
/// moved by 28% (interquartile range over median) between identical runs.
pub fn tail_quantile(n: usize) -> f64 {
    if n as f64 * 0.1 >= 10.0 - 1e-9 {
        0.9
    } else {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn p99_of_a_uniform_ramp() {
        let ramp: Vec<f64> = (0..=1000).map(f64::from).collect();
        assert_eq!(quantile_sorted(&ramp, 0.99), Some(990.0));
        assert_eq!(quantile_sorted(&ramp, 0.5), Some(500.0));
    }

    #[test]
    fn tail_follows_the_sample_count_rule() {
        assert_eq!(tail_quantile(1), 0.5);
        assert_eq!(tail_quantile(99), 0.5);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(30_000), 0.90);
    }
}

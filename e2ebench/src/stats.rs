//! Order statistics over timing samples.

/// Quantile `q ∈ [0, 1]` by linear interpolation between closest ranks
/// (the same definition as Python's `statistics.quantiles(..., method =
/// "inclusive")`). Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Sum of a sample.
pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().sum()
}

/// `num / den`, or 0 when the denominator is 0 (a layer that never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}

//! Poisson sampling on top of `rand`, implemented here because the
//! pre-approved dependency set has no `rand_distr`.

use rand::Rng;

/// The mean from which [`sample`] switches from Knuth's multiplication
/// method to transformed rejection (NumPy switches at the same mean).
const REJECTION_MIN_MEAN: f64 = 10.0;

/// Draws a Poisson-distributed count with the given mean, exactly: the
/// draws follow the Poisson pmf, not an approximation of it.
///
/// Below mean 10 it multiplies uniforms until the product drops below
/// `e^-mean` (Knuth), about `mean + 1` uniforms per draw. From mean 10
/// on it uses Hörmann's PTRS, transformed rejection with squeeze
/// (W. Hörmann, "The transformed rejection method for generating Poisson
/// random variables", *Insurance: Mathematics and Economics* 12, 1993):
/// two uniforms per try, and only a try outside the squeeze evaluates
/// the log-pmf (the squeeze accepts 35 % of the tries at mean 10 and 79 %
/// at mean 20 000). A zero mean draws nothing and returns 0.
///
/// The only error is `f64` rounding: the log-pmf test loses about
/// `mean · ln(mean) · 2⁻⁵³`, under 1e-6 up to mean 10⁸.
///
/// # Panics
///
/// Panics if `mean` is negative or non-finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let n = dspp_workload::poisson::sample(&mut rng, 10.0);
/// assert!(n < 100);
/// ```
pub fn sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(
        mean.is_finite() && mean >= 0.0,
        "mean must be >= 0, got {mean}"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean < REJECTION_MIN_MEAN {
        // Knuth: multiply uniforms until the product drops below e^-mean.
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    // PTRS: the hat is a transformed uniform `k = ⌊(2a/us + b)·u + mean
    // + 0.43⌋`; tries inside the squeeze (`us ≥ 0.07`, `v ≤ v_r`) accept
    // without evaluating the pmf.
    let log_mean = mean.ln();
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.02483 * b;
    let log_inv_alpha = (1.1239 + 1.1328 / (b - 3.4)).ln();
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v = rng.gen::<f64>();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        let log_pmf = k * log_mean - mean - ln_factorial(k as u64);
        if v.ln() + log_inv_alpha - (a / (us * us) + b).ln() <= log_pmf {
            return k as u64;
        }
    }
}

/// `ln k! = ln Γ(k + 1)`: the exact product below 10, the Stirling
/// series of `ln Γ(x)` at `x = k + 1 ≥ 11` above, where its first
/// omitted term is below 1e-14. (`f64::ln_gamma` is an unstable API.)
fn ln_factorial(k: u64) -> f64 {
    if k < 10 {
        // 9! = 362 880 is exact in an `f64`.
        return ((2..=k).product::<u64>() as f64).ln();
    }
    let x = (k + 1) as f64;
    let r = 1.0 / (x * x);
    // Σ B₂ₙ / (2n (2n − 1) x^(2n−1)) for n = 1..5.
    let series =
        (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / x;
    (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + series
}

/// Draws a standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_mean_is_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sample(&mut rng, 0.0), 0);
    }

    /// `ln k!` summed term by term, independent of the Stirling series.
    fn summed_ln_factorials(up_to: usize) -> Vec<f64> {
        let mut table = vec![0.0; up_to + 1];
        for k in 1..=up_to {
            table[k] = table[k - 1] + (k as f64).ln();
        }
        table
    }

    #[test]
    fn small_mean_matches_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean = 3.5;
        let draws: Vec<u64> = (0..n).map(|_| sample(&mut rng, mean)).collect();
        let m: f64 = draws.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((m - mean).abs() < 0.08, "mean {m}");
        assert!((var - mean).abs() < 0.25, "var {var}");
    }

    #[test]
    fn large_mean_matches_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mean = 500.0;
        let draws: Vec<u64> = (0..n).map(|_| sample(&mut rng, mean)).collect();
        let m: f64 = draws.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 1.5, "mean {m}");
    }

    #[test]
    fn ln_factorial_matches_the_summed_logs() {
        let summed = summed_ln_factorials(30_000);
        for (k, &want) in summed.iter().enumerate() {
            let got = ln_factorial(k as u64);
            assert!(
                (got - want).abs() <= 1e-12 * want.max(1.0),
                "ln {k}! = {got}, summed {want}"
            );
        }
    }

    /// 200 000 fixed-seed draws at means on both sides of the method
    /// switch and up to `paper_stream`'s per-city scale follow the pmf:
    /// the chi-square over every value expected ≥ 50 times stays below
    /// `dof + 5·√(2·dof)`, and the sample mean and variance sit within
    /// 5 standard errors of the mean. A rounded normal approximation
    /// `N(mean, mean)` fails the chi-square at mean 100 (271.6 over 64
    /// bins, against a bound of 120.6).
    #[test]
    fn draws_follow_the_pmf_on_both_sides_of_the_method_switch() {
        const DRAWS: usize = 200_000;
        let n = DRAWS as f64;
        let ln_fact = summed_ln_factorials(25_000);
        for (seed, mean) in [0.7, 9.99, 10.0, 12.5, 50.0, 100.0, 1_000.0, 20_000.0]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(seed as u64 + 101);
            let mut observed = vec![0u64; ln_fact.len()];
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for _ in 0..DRAWS {
                let k = sample(&mut rng, mean);
                observed[k as usize] += 1;
                sum += k as f64;
                sum_sq += (k as f64) * (k as f64);
            }
            let (mut chi2, mut dof) = (0.0, 0usize);
            for (k, &count) in observed.iter().enumerate() {
                let expected = n * (k as f64 * mean.ln() - mean - ln_fact[k]).exp();
                if expected >= 50.0 {
                    chi2 += (count as f64 - expected).powi(2) / expected;
                    dof += 1;
                }
            }
            let bound = dof as f64 + 5.0 * (2.0 * dof as f64).sqrt();
            assert!(dof >= 5, "mean {mean}: only {dof} bins");
            assert!(
                chi2 < bound,
                "mean {mean}: chi-square {chi2:.1} over {dof} bins, bound {bound:.1}"
            );
            let m = sum / n;
            let var = (sum_sq - n * m * m) / (n - 1.0);
            let se_mean = (mean / n).sqrt();
            let se_var = ((mean + 2.0 * mean * mean) / n).sqrt();
            assert!(
                (m - mean).abs() < 5.0 * se_mean,
                "mean {mean}: sample mean {m}"
            );
            assert!(
                (var - mean).abs() < 5.0 * se_var,
                "mean {mean}: variance {var}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let m: f64 = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(m.abs() < 0.02, "mean {m}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    #[should_panic(expected = "mean must be")]
    fn rejects_negative_mean() {
        let mut rng = StdRng::seed_from_u64(0);
        sample(&mut rng, -1.0);
    }
}

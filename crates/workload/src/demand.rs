use crate::poisson;
use crate::{DemandTrace, DiurnalProfile, FlashCrowd};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The non-homogeneous Poisson demand generator of Section VII.
///
/// Each location `v` has rate
/// `λ_v(t) = weight_v · diurnal(t) · Π flash-crowd multipliers`,
/// optionally perturbed by multiplicative Gaussian noise (the "volatile"
/// regime of Figure 9). [`DemandModel::generate`] reports these rates;
/// request-level counts are drawn downstream (the `dspp-ingest` streams
/// draw one Poisson count per city and period).
///
/// # Examples
///
/// ```
/// use dspp_workload::{DemandModel, DiurnalProfile, FlashCrowd};
///
/// let trace = DemandModel::new(DiurnalProfile::working_hours(120.0, 30.0))
///     .with_population_weights(vec![1.0, 0.5])
///     .with_flash_crowd(FlashCrowd::new(20.0, 2.0, 4.0).at_location(1))
///     .with_seed(3)
///     .generate(24, 1.0);
/// assert_eq!(trace.num_locations(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DemandModel {
    profile: DiurnalProfile,
    weights: Vec<f64>,
    flash_crowds: Vec<FlashCrowd>,
    noise_std: f64,
    seed: u64,
}

impl DemandModel {
    /// Creates a single-location model with the given daily profile.
    pub fn new(profile: DiurnalProfile) -> Self {
        DemandModel {
            profile,
            weights: vec![1.0],
            flash_crowds: Vec::new(),
            noise_std: 0.0,
            seed: 0,
        }
    }

    /// Sets per-location weights (one location per weight). Use city
    /// populations for the paper's population-weighted generator.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or contains a non-positive weight.
    pub fn with_population_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one location");
        assert!(
            weights.iter().all(|&w| w.is_finite() && w > 0.0),
            "weights must be positive"
        );
        self.weights = weights;
        self
    }

    /// Adds a flash-crowd event.
    pub fn with_flash_crowd(mut self, f: FlashCrowd) -> Self {
        self.flash_crowds.push(f);
        self
    }

    /// Adds multiplicative Gaussian noise with the given relative standard
    /// deviation (e.g. `0.2` for ±20 %); rates are clamped at zero.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or non-finite.
    pub fn with_noise(mut self, std: f64) -> Self {
        assert!(std.is_finite() && std >= 0.0, "noise std must be >= 0");
        self.noise_std = std;
        self
    }

    /// Sets the RNG seed (generation is deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of locations this model generates.
    pub fn num_locations(&self) -> usize {
        self.weights.len()
    }

    /// The noiseless mean rate of location `v` at time `t_hours`.
    pub fn mean_rate(&self, v: usize, t_hours: f64) -> f64 {
        let mut rate = self.weights[v] * self.profile.rate_at(t_hours);
        for f in &self.flash_crowds {
            rate *= f.multiplier_for(v, t_hours);
        }
        rate
    }

    /// Generates a trace of `periods` periods of `period_hours` each,
    /// evaluating rates at each period's midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `periods == 0` or `period_hours <= 0`.
    pub fn generate(&self, periods: usize, period_hours: f64) -> DemandTrace {
        assert!(periods > 0, "need at least one period");
        assert!(
            period_hours > 0.0 && period_hours.is_finite(),
            "period_hours must be positive"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let rows = (0..self.weights.len())
            .map(|v| {
                (0..periods)
                    .map(|k| {
                        let t = (k as f64 + 0.5) * period_hours;
                        let mut rate = self.mean_rate(v, t);
                        if self.noise_std > 0.0 {
                            let z = poisson::standard_normal(&mut rng);
                            rate *= (1.0 + self.noise_std * z).max(0.0);
                        }
                        rate
                    })
                    .collect()
            })
            .collect();
        DemandTrace::from_rows(rows).expect("generated trace is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            DemandModel::new(DiurnalProfile::working_hours(100.0, 10.0))
                .with_population_weights(vec![1.0, 2.0])
                .with_noise(0.3)
                .with_seed(5)
                .generate(24, 1.0)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn population_weights_scale_demand() {
        let t = DemandModel::new(DiurnalProfile::constant(100.0))
            .with_population_weights(vec![1.0, 3.0])
            .generate(4, 1.0);
        for k in 0..4 {
            assert!((t.get(1, k) - 3.0 * t.get(0, k)).abs() < 1e-9);
        }
    }

    #[test]
    fn diurnal_pattern_shows_up() {
        let t = DemandModel::new(DiurnalProfile::working_hours(100.0, 10.0)).generate(24, 1.0);
        // Midday (period 12) ≫ night (period 2).
        assert!(t.get(0, 12) > 5.0 * t.get(0, 2));
    }

    #[test]
    fn flash_crowd_spikes_target_location_only() {
        let t = DemandModel::new(DiurnalProfile::constant(50.0))
            .with_population_weights(vec![1.0, 1.0])
            .with_flash_crowd(FlashCrowd::new(10.0, 2.0, 6.0).at_location(1))
            .generate(24, 1.0);
        assert!((t.get(0, 11) - 50.0).abs() < 1e-9);
        assert!(t.get(1, 11) > 250.0);
        assert!((t.get(1, 2) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let t = DemandModel::new(DiurnalProfile::constant(100.0))
            .with_noise(0.1)
            .with_seed(11)
            .generate(200, 1.0);
        let mean: f64 = t.location(0).iter().sum::<f64>() / 200.0;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
        // Actually noisy.
        let distinct = t
            .location(0)
            .windows(2)
            .filter(|w| (w[0] - w[1]).abs() > 1e-12)
            .count();
        assert!(distinct > 100);
    }
}

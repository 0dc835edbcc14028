use crate::{PriceTrace, RegionalPriceModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An EC2-spot-style price process: a diurnal base curve plus random
/// short-lived spikes.
///
/// The paper motivates dynamic pricing with "Amazon EC2 spot instances"
/// (reference 5 of the paper): spot markets exhibit a slowly-varying base level punctuated by
/// sharp spikes when capacity tightens. The model here is the standard
/// one for such series — spikes arrive as a Bernoulli process per period,
/// multiply the base by a random factor, and decay geometrically.
///
/// # Examples
///
/// ```
/// use dspp_pricing::{RegionalPriceModel, SpotMarket};
///
/// let spot = SpotMarket::new(RegionalPriceModel::constant("spot", 40.0))
///     .with_spikes(0.1, 3.0, 0.5);
/// let trace = spot.trace(168, 1.0, 7);
/// assert_eq!(trace.num_periods(), 168);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpotMarket {
    base: RegionalPriceModel,
    /// Probability a spike starts in any period.
    spike_probability: f64,
    /// Mean peak multiplier of a spike (≥ 1).
    spike_magnitude: f64,
    /// Per-period geometric decay of an active spike, in `(0, 1)`.
    spike_decay: f64,
}

impl SpotMarket {
    /// Creates a spot market over a base curve, with moderate default
    /// spikes (5 % arrival, 2.5× mean magnitude, 0.5 decay).
    pub fn new(base: RegionalPriceModel) -> Self {
        SpotMarket {
            base,
            spike_probability: 0.05,
            spike_magnitude: 2.5,
            spike_decay: 0.5,
        }
    }

    /// Configures the spike process.
    ///
    /// # Panics
    ///
    /// Panics if `probability ∉ [0, 1]`, `magnitude < 1`, or
    /// `decay ∉ (0, 1)`.
    pub fn with_spikes(mut self, probability: f64, magnitude: f64, decay: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "spike probability must be in [0,1]"
        );
        assert!(magnitude >= 1.0, "spike magnitude must be >= 1");
        assert!(decay > 0.0 && decay < 1.0, "spike decay must be in (0,1)");
        self.spike_probability = probability;
        self.spike_magnitude = magnitude;
        self.spike_decay = decay;
        self
    }

    /// Generates a single-region spot trace (`1 × periods`).
    pub fn trace(&self, periods: usize, period_hours: f64, seed: u64) -> PriceTrace {
        assert!(periods > 0, "need at least one period");
        assert!(period_hours > 0.0, "period_hours must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut surcharge = 0.0f64; // multiplicative excess above 1
        let row: Vec<f64> = (0..periods)
            .map(|k| {
                let t = (k as f64 + 0.5) * period_hours;
                surcharge *= self.spike_decay;
                if rng.gen::<f64>() < self.spike_probability {
                    // Exponential-ish magnitude around the configured mean.
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    surcharge += (self.spike_magnitude - 1.0) * (-u.ln());
                }
                self.base.price_at(t) * (1.0 + surcharge)
            })
            .collect();
        PriceTrace::from_rows(vec![row]).expect("generated trace is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> SpotMarket {
        SpotMarket::new(RegionalPriceModel::constant("spot", 40.0)).with_spikes(0.1, 3.0, 0.5)
    }

    #[test]
    fn prices_never_fall_below_base() {
        let t = market().trace(500, 1.0, 3);
        for k in 0..500 {
            assert!(t.get(0, k) >= 40.0 - 1e-9);
        }
    }

    #[test]
    fn spikes_occur_and_decay() {
        let t = market().trace(500, 1.0, 5);
        let spikes = (0..500).filter(|&k| t.get(0, k) > 60.0).count();
        assert!(spikes > 5, "only {spikes} spikes in 500 periods");
        assert!(spikes < 250, "{spikes} spikes — spiking too often");
        // Most of the time the price sits near the base (spikes decay).
        let calm = (0..500).filter(|&k| t.get(0, k) < 44.0).count();
        assert!(calm > 250, "only {calm} calm periods");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(market().trace(100, 1.0, 9), market().trace(100, 1.0, 9));
        assert_ne!(market().trace(100, 1.0, 9), market().trace(100, 1.0, 10));
    }

    #[test]
    fn zero_probability_reproduces_base() {
        let spot =
            SpotMarket::new(RegionalPriceModel::constant("s", 55.0)).with_spikes(0.0, 2.0, 0.5);
        let t = spot.trace(48, 1.0, 0);
        for k in 0..48 {
            assert!((t.get(0, k) - 55.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "spike decay")]
    fn rejects_bad_decay() {
        market().with_spikes(0.1, 2.0, 1.0);
    }
}

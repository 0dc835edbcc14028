use dspp_core::{Allocation, CoreError, Dspp, DsppBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One player of the resource-competition game.
///
/// The provider's [`Dspp`] carries its private parameters (`μ^i`, `d̄^i`,
/// `s^i`, `c^{il}`, prices); its `capacities` field is *ignored* by the
/// game, which injects quota vectors instead. `demand[v][t]` is the
/// provider's demand during game period `t+1` (the state `x_{t+1}`).
#[derive(Debug, Clone)]
pub struct ServiceProvider {
    /// The provider's placement problem (capacities are overridden by
    /// quotas during the game).
    pub problem: Dspp,
    /// Demand over the game window, `[location][period]`.
    pub demand: Vec<Vec<f64>>,
    /// Starting allocation (all zeros by default).
    pub initial: Allocation,
}

impl ServiceProvider {
    /// Creates a provider with a zero starting allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the demand shape does not
    /// match the problem or contains invalid values.
    pub fn new(problem: Dspp, demand: Vec<Vec<f64>>) -> Result<Self, CoreError> {
        if demand.len() != problem.num_locations() {
            return Err(CoreError::InvalidSpec(format!(
                "demand has {} locations, problem has {}",
                demand.len(),
                problem.num_locations()
            )));
        }
        let horizon = demand.first().map_or(0, Vec::len);
        if horizon == 0 {
            return Err(CoreError::InvalidSpec("demand window is empty".into()));
        }
        if demand.iter().any(|d| d.len() != horizon) {
            return Err(CoreError::InvalidSpec("ragged demand window".into()));
        }
        if demand
            .iter()
            .flatten()
            .any(|d| !(d.is_finite() && *d >= 0.0))
        {
            return Err(CoreError::InvalidSpec(
                "demand must be non-negative and finite".into(),
            ));
        }
        let initial = Allocation::zeros(&problem);
        Ok(ServiceProvider {
            problem,
            demand,
            initial,
        })
    }

    /// The game window length `W`.
    pub fn horizon(&self) -> usize {
        self.demand[0].len()
    }

    /// Price forecast rows `[dc][t]` for the game window (period `t+1`).
    pub fn price_rows(&self) -> Vec<Vec<f64>> {
        let w = self.horizon();
        (0..self.problem.num_dcs())
            .map(|l| (1..=w).map(|k| self.problem.price(l, k)).collect())
            .collect()
    }
}

/// Every sampled provider's demand level, before its random factor in
/// `[0.5, 1.5)`.
const DEMAND_SCALE: f64 = 20.0;

/// Random provider generator for the game experiments.
///
/// The paper (Section VII-B): "we generate the input parameters
/// (μi, Dik, si, cil, d̄i) for each SP i ∈ N randomly". The sampler draws
///
/// * `μ_i ∈ [80, 150]` requests/s,
/// * `d̄_i ∈ [60, 100]` ms against 10–35 ms latencies,
/// * `s_i ∈ {1, 2, 4}` (GoGrid-style power-of-two sizes, which the paper
///   argues make exact packing possible),
/// * `c_{il} ∈ [0.02, 0.2]`,
/// * per-location demand levels with mild per-period fluctuation,
/// * per-DC price levels in `[0.5, 1.5]` with mild diurnal tilt.
#[derive(Debug, Clone)]
pub struct SpSampler {
    num_dcs: usize,
    num_locations: usize,
    horizon: usize,
    seed: u64,
}

impl SpSampler {
    /// Creates a sampler for games on `num_dcs` data centers,
    /// `num_locations` client locations and a `horizon`-period window.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(num_dcs: usize, num_locations: usize, horizon: usize) -> Self {
        assert!(num_dcs > 0 && num_locations > 0 && horizon > 0);
        SpSampler {
            num_dcs,
            num_locations,
            horizon,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Samples `n` providers.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError`] from the problem builder (should not occur
    /// for the sampled parameter ranges).
    pub fn sample(&self, n: usize) -> Result<Vec<ServiceProvider>, CoreError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(n);
        // A shared latency matrix: DCs and locations scattered so that every
        // pair is usable under the loosest SLA below.
        let latency: Vec<Vec<f64>> = (0..self.num_dcs)
            .map(|l| {
                (0..self.num_locations)
                    .map(|v| 0.010 + 0.025 * (((l * 7 + v * 3) % 10) as f64 / 10.0))
                    .collect()
            })
            .collect();
        for _ in 0..n {
            let mu = rng.gen_range(80.0..150.0);
            let dbar = rng.gen_range(0.060..0.100);
            let size = [1.0, 2.0, 4.0][rng.gen_range(0..3)];
            let mut builder = DsppBuilder::new(self.num_dcs, self.num_locations)
                .service_rate(mu)
                .sla_latency(dbar)
                .latency_rows(latency.clone())
                .server_size(size);
            for l in 0..self.num_dcs {
                builder = builder
                    .reconfiguration_weight(l, rng.gen_range(0.02..0.2))
                    .price_trace(l, {
                        let base = rng.gen_range(0.5..1.5);
                        (0..=self.horizon)
                            .map(|k| base * (1.0 + 0.2 * ((k as f64) * 0.7).sin()))
                            .collect()
                    });
            }
            let problem = builder.build()?;
            let demand: Vec<Vec<f64>> = (0..self.num_locations)
                .map(|_| {
                    let level = DEMAND_SCALE * rng.gen_range(0.5..1.5);
                    (0..self.horizon)
                        .map(|t| level * (1.0 + 0.3 * ((t as f64) * 1.1).sin()).max(0.1))
                        .collect()
                })
                .collect();
            out.push(ServiceProvider::new(problem, demand)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_validates_demand() {
        let p = DsppBuilder::new(1, 2)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        assert!(ServiceProvider::new(p.clone(), vec![vec![1.0]]).is_err());
        assert!(ServiceProvider::new(p.clone(), vec![vec![], vec![]]).is_err());
        assert!(ServiceProvider::new(p.clone(), vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(ServiceProvider::new(p.clone(), vec![vec![-1.0], vec![1.0]]).is_err());
        assert!(ServiceProvider::new(p, vec![vec![1.0], vec![2.0]]).is_ok());
    }

    #[test]
    fn sampler_is_deterministic_and_valid() {
        let a = SpSampler::new(3, 2, 4).with_seed(5).sample(4).unwrap();
        let b = SpSampler::new(3, 2, 4).with_seed(5).sample(4).unwrap();
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.demand, y.demand);
            assert_eq!(x.problem, y.problem);
        }
        // Every sampled provider can reach every location.
        for sp in &a {
            assert_eq!(sp.problem.num_locations(), 2);
            assert!(sp.problem.num_arcs() >= 2);
            assert_eq!(sp.horizon(), 4);
        }
    }

    #[test]
    fn sampler_sizes_are_gogrid_multiples() {
        let sps = SpSampler::new(2, 2, 3).with_seed(11).sample(12).unwrap();
        for sp in sps {
            let s = sp.problem.server_size();
            assert!(s == 1.0 || s == 2.0 || s == 4.0, "size {s}");
        }
    }

    #[test]
    fn price_rows_cover_window() {
        let p = DsppBuilder::new(1, 1)
            .price_trace(0, vec![1.0, 2.0, 3.0])
            .build()
            .unwrap();
        let sp = ServiceProvider::new(p, vec![vec![1.0, 1.0, 1.0, 1.0]]).unwrap();
        // Window periods 1..=4, price trace repeats its last value.
        assert_eq!(sp.price_rows(), vec![vec![2.0, 3.0, 3.0, 3.0]]);
    }
}

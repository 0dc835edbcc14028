//! The rolling W-MPC game: Algorithm 2 re-run every control period as the
//! prediction windows slide — the full dynamic game of Definition 2, not
//! just one window.
//!
//! At each period `k`, every provider's window covers periods
//! `k+1 ..= k+W` of its demand trace; the quota negotiation runs to
//! convergence, each provider executes only its first control (the MPC
//! discipline), states advance, and the next period repeats from the
//! converged quotas (warm start). Realized costs use each provider's
//! actual price at the realized period.

use crate::{GameConfig, ResourceGame, ServiceProvider};
use dspp_core::{Allocation, CoreError};

/// Outcome of one realized period of the rolling game.
#[derive(Debug, Clone)]
pub struct RollingPeriod {
    /// Realized period index (the allocations below served period `k+1`).
    pub period: usize,
    /// Iterations Algorithm 2 needed this period.
    pub iterations: usize,
    /// Realized cost per provider for this period.
    pub provider_costs: Vec<f64>,
    /// Resource usage per data center after the step.
    pub usage: Vec<f64>,
}

/// Result of a rolling-game run.
#[derive(Debug, Clone)]
pub struct RollingReport {
    /// Per-period records.
    pub periods: Vec<RollingPeriod>,
    /// Total realized cost per provider.
    pub totals: Vec<f64>,
}

impl RollingReport {
    /// Grand total across providers.
    pub fn total_cost(&self) -> f64 {
        self.totals.iter().sum()
    }
}

/// Runs the rolling W-MPC game over `periods` realized periods.
///
/// `full_demand[i][v]` must hold at least `periods + window` values; the
/// per-period game sees the `window`-length slice starting at each realized
/// period. Providers' states persist across periods (their `initial`
/// allocations are advanced by the executed first controls).
///
/// # Errors
///
/// Propagates game failures ([`CoreError::Solver`] when some period's
/// window is infeasible).
pub fn run_rolling_game(
    providers: &[ServiceProvider],
    total_capacity: &[f64],
    window: usize,
    periods: usize,
    config: &GameConfig,
) -> Result<RollingReport, CoreError> {
    if window == 0 || periods == 0 {
        return Err(CoreError::InvalidSpec(
            "window and periods must be positive".into(),
        ));
    }
    for (i, sp) in providers.iter().enumerate() {
        if sp.horizon() < periods + window {
            return Err(CoreError::InvalidSpec(format!(
                "provider {i} has {} demand periods, need {}",
                sp.horizon(),
                periods + window
            )));
        }
    }

    let n = providers.len();
    let mut states: Vec<Allocation> = providers.iter().map(|sp| sp.initial.clone()).collect();
    let mut quotas: Option<Vec<Vec<f64>>> = None;
    let mut report = RollingReport {
        periods: Vec::with_capacity(periods),
        totals: vec![0.0; n],
    };

    for k in 0..periods {
        // Build the per-period game: demand windows k..k+window, states
        // carried over, prices shifted so window index t maps to absolute
        // period k+1+t.
        let windowed: Vec<ServiceProvider> = providers
            .iter()
            .enumerate()
            .map(|(i, sp)| {
                let demand: Vec<Vec<f64>> = sp
                    .demand
                    .iter()
                    .map(|row| row[k..k + window].to_vec())
                    .collect();
                // Re-anchor the price traces at period k: the windowed
                // problem's `price(l, t)` must equal the original
                // `price(l, k + t)`, so that window stage 1 pays the
                // realized period k+1 price.
                let shifted: Vec<Vec<f64>> = (0..sp.problem.num_dcs())
                    .map(|l| {
                        (0..=window + 1)
                            .map(|t| sp.problem.price(l, k + t))
                            .collect()
                    })
                    .collect();
                let problem = rebuild_with_prices(&sp.problem, &shifted);
                let mut provider =
                    ServiceProvider::new(problem, demand).expect("windowed demand is valid");
                provider.initial = states[i].clone();
                provider
            })
            .collect();

        let game = ResourceGame::new(windowed, total_capacity.to_vec())?;
        let outcome = match &quotas {
            Some(q) => game.run_from(q.clone(), config)?,
            None => game.run(config)?,
        };
        quotas = Some(outcome.quotas.clone());

        // Execute first controls; account realized costs at period k+1.
        let mut usage = vec![0.0; total_capacity.len()];
        let mut costs = vec![0.0; n];
        for i in 0..n {
            let sp = &providers[i];
            let sol = &outcome.solutions[i];
            let new_state = Allocation::from_arc_values(&sp.problem, sol.xs[1].as_slice().to_vec());
            let mut cost = 0.0;
            for (e, &(l, _)) in sp.problem.arcs().iter().enumerate() {
                let x = new_state.arc_values()[e];
                let u = x - states[i].arc_values()[e];
                cost += sp.problem.price(l, k + 1) * x + sp.problem.reconfig_weight(l) * u * u;
            }
            costs[i] = cost;
            report.totals[i] += cost;
            for (l, used) in new_state.per_dc(&sp.problem).iter().enumerate() {
                usage[l] += used * sp.problem.server_size();
            }
            states[i] = new_state;
        }
        report.periods.push(RollingPeriod {
            period: k,
            iterations: outcome.iterations,
            provider_costs: costs,
            usage,
        });
    }
    Ok(report)
}

/// Clones a problem with replaced price rows (helper for window shifting).
fn rebuild_with_prices(problem: &dspp_core::Dspp, prices: &[Vec<f64>]) -> dspp_core::Dspp {
    use dspp_core::DsppBuilder;
    let nl = problem.num_dcs();
    let nv = problem.num_locations();
    let latency: Vec<Vec<f64>> = (0..nl)
        .map(|l| (0..nv).map(|v| problem.latency(l, v)).collect())
        .collect();
    let mut builder = DsppBuilder::new(nl, nv)
        .service_rate(problem.sla().service_rate)
        .sla_latency(problem.sla().max_latency)
        .latency_rows(latency)
        .capacities(problem.capacities().to_vec())
        .server_size(problem.server_size());
    if let Some(phi) = problem.sla().percentile {
        builder = builder.percentile(phi);
    }
    builder = builder.reservation_ratio(problem.sla().reservation_ratio);
    for (l, price) in prices.iter().enumerate().take(nl) {
        builder = builder
            .price_trace(l, price.clone())
            .reconfiguration_weight(l, problem.reconfig_weight(l));
    }
    builder.build().expect("same problem, shifted prices")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpSampler;
    use dspp_solver::IpmSettings;

    fn config() -> GameConfig {
        GameConfig {
            ipm: IpmSettings::fast(),
            ..GameConfig::default()
        }
    }

    #[test]
    fn rolling_game_respects_capacity_every_period() {
        let providers = SpSampler::new(2, 2, 10).with_seed(31).sample(3).unwrap();
        let caps = vec![60.0, 60.0];
        let report = run_rolling_game(&providers, &caps, 3, 5, &config()).unwrap();
        assert_eq!(report.periods.len(), 5);
        for p in &report.periods {
            for (l, &u) in p.usage.iter().enumerate() {
                assert!(u <= caps[l] * 1.001, "period {} dc {l}: {u}", p.period);
            }
        }
        assert!(report.total_cost() > 0.0);
    }

    #[test]
    fn warm_started_quotas_speed_up_later_periods() {
        let providers = SpSampler::new(2, 2, 10).with_seed(32).sample(4).unwrap();
        let caps = vec![40.0, 40.0];
        let report = run_rolling_game(&providers, &caps, 3, 6, &config()).unwrap();
        let first = report.periods[0].iterations;
        let later: usize = report.periods[1..].iter().map(|p| p.iterations).sum();
        let later_avg = later as f64 / (report.periods.len() - 1) as f64;
        assert!(
            later_avg <= first as f64 + 1.0,
            "warm start should not slow down: first {first}, later avg {later_avg}"
        );
    }

    #[test]
    fn insufficient_demand_window_is_rejected() {
        let providers = SpSampler::new(2, 2, 4).with_seed(33).sample(2).unwrap();
        let err = run_rolling_game(&providers, &[50.0, 50.0], 3, 5, &config()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn costs_accumulate_per_provider() {
        let providers = SpSampler::new(2, 1, 8).with_seed(34).sample(2).unwrap();
        let report = run_rolling_game(&providers, &[100.0, 100.0], 2, 4, &config()).unwrap();
        for (i, &t) in report.totals.iter().enumerate() {
            let sum: f64 = report.periods.iter().map(|p| p.provider_costs[i]).sum();
            assert!((t - sum).abs() < 1e-9, "provider {i} ledger mismatch");
            assert!(t > 0.0);
        }
    }
}

//! The social welfare problem (SWP): the joint optimum all providers would
//! reach under a central planner, against which the paper defines price of
//! anarchy and price of stability.

use crate::ServiceProvider;
use dspp_core::{CoreError, HorizonPart, HorizonProblem};
use dspp_linalg::Vector;
use dspp_solver::IpmSettings;

/// Solution of the social welfare problem.
#[derive(Debug, Clone)]
pub struct SwpSolution {
    /// The social optimum `Σ_i J^i`.
    pub objective: f64,
    /// Per-provider share of the objective.
    pub provider_costs: Vec<f64>,
    /// Per-provider state trajectories, `xs[i][stage]` (stage `0..=W`).
    pub xs: Vec<Vec<Vector>>,
    /// Per-provider input trajectories, `us[i][stage]` (stage `0..W`).
    pub us: Vec<Vec<Vector>>,
    /// Interior-point iterations of the joint solve.
    pub iterations: usize,
}

/// Solves the SWP exactly: one horizon problem over the stacked providers
/// ([`HorizonProblem::build_shared`]) with the shared capacity constraint
/// `Σ_i s^i Σ_v x^{ilv} ≤ C^l` per stage, on the structured KKT path (each
/// provider location is a demand row, each DC one joint capacity row).
///
/// # Errors
///
/// * [`CoreError::InvalidSpec`] for inconsistent providers/capacities.
/// * [`CoreError::Solver`] if the joint problem is infeasible.
pub fn solve_social_welfare(
    providers: &[ServiceProvider],
    total_capacity: &[f64],
    ipm: &IpmSettings,
) -> Result<SwpSolution, CoreError> {
    let w = providers.first().map_or(0, ServiceProvider::horizon);
    let price_rows: Vec<Vec<Vec<f64>>> = providers.iter().map(|sp| sp.price_rows()).collect();
    let parts: Vec<HorizonPart<'_>> = providers
        .iter()
        .zip(&price_rows)
        .map(|(sp, prices)| HorizonPart {
            problem: &sp.problem,
            x0: &sp.initial,
            demand_forecast: &sp.demand,
            price_forecast: prices,
        })
        .collect();
    let capacities = vec![total_capacity.to_vec(); w];
    let sol = HorizonProblem::build_shared(&parts, Some(&capacities))?.solve(ipm)?;

    // Split the joint trajectories back out and account per-provider costs;
    // provider i's arcs follow provider i−1's.
    let mut xs: Vec<Vec<Vector>> = vec![Vec::with_capacity(w + 1); providers.len()];
    let mut us: Vec<Vec<Vector>> = vec![Vec::with_capacity(w); providers.len()];
    let mut lo = 0;
    for (i, sp) in providers.iter().enumerate() {
        let hi = lo + sp.problem.num_arcs();
        for t in 0..=w {
            xs[i].push((lo..hi).map(|j| sol.xs[t][j]).collect());
        }
        for t in 0..w {
            us[i].push((lo..hi).map(|j| sol.us[t][j]).collect());
        }
        lo = hi;
    }
    let mut provider_costs = vec![0.0; providers.len()];
    for (i, sp) in providers.iter().enumerate() {
        let mut cost = 0.0;
        for t in 1..=w {
            for (e, &(l, _)) in sp.problem.arcs().iter().enumerate() {
                cost += price_rows[i][l][t - 1] * xs[i][t][e];
                let u = us[i][t - 1][e];
                cost += sp.problem.reconfig_weight(l) * u * u;
            }
        }
        provider_costs[i] = cost;
    }

    Ok(SwpSolution {
        objective: sol.objective,
        provider_costs,
        xs,
        us,
        iterations: sol.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GameConfig, ResourceGame, SpSampler};

    #[test]
    fn swp_objective_equals_cost_split() {
        let sps = SpSampler::new(2, 2, 3).with_seed(9).sample(3).unwrap();
        let swp = solve_social_welfare(&sps, &[80.0, 80.0], &IpmSettings::default()).unwrap();
        let sum: f64 = swp.provider_costs.iter().sum();
        assert!(
            (sum - swp.objective).abs() < 1e-4 * (1.0 + swp.objective.abs()),
            "split {sum} vs joint {}",
            swp.objective
        );
    }

    #[test]
    fn swp_respects_shared_capacity() {
        let sps = SpSampler::new(2, 2, 3).with_seed(10).sample(4).unwrap();
        let caps = [30.0, 30.0];
        let swp = solve_social_welfare(&sps, &caps, &IpmSettings::default()).unwrap();
        for t in 1..=3 {
            for (l, &cap) in caps.iter().enumerate() {
                let mut used = 0.0;
                for (i, sp) in sps.iter().enumerate() {
                    for (e, &(le, _)) in sp.problem.arcs().iter().enumerate() {
                        if le == l {
                            used += swp.xs[i][t][e] * sp.problem.server_size();
                        }
                    }
                }
                assert!(used <= cap + 1e-4, "stage {t} dc {l} used {used}");
            }
        }
    }

    #[test]
    fn swp_with_single_provider_matches_its_best_response() {
        // The lone provider's best response to the whole capacity is its
        // own horizon problem under that quota: the same program, solved
        // to the same bits.
        let sps = SpSampler::new(2, 2, 3).with_seed(11).sample(1).unwrap();
        let caps = vec![200.0, 200.0];
        let ipm = IpmSettings::default();
        let swp = solve_social_welfare(&sps, &caps, &ipm).unwrap();
        let sp = &sps[0];
        let quota = sp.problem.with_capacities(caps).unwrap();
        let horizon =
            HorizonProblem::build(&quota, &sp.initial, &sp.demand, &sp.price_rows()).unwrap();
        let solo = horizon.solve(&ipm).unwrap();
        assert_eq!(swp.objective.to_bits(), solo.objective.to_bits());
        assert_eq!(swp.us[0], solo.us);
        assert!(
            (swp.provider_costs[0] - solo.objective).abs() < 1e-9 * (1.0 + solo.objective),
            "cost split {} vs solo {}",
            swp.provider_costs[0],
            solo.objective
        );
    }

    /// Theorem 1: the price of stability is 1 — the converged best-response
    /// equilibrium should (approximately) attain the social optimum.
    #[test]
    fn price_of_stability_is_near_one() {
        let sps = SpSampler::new(2, 2, 3).with_seed(12).sample(3).unwrap();
        let caps = vec![60.0, 60.0];
        let swp = solve_social_welfare(&sps, &caps, &IpmSettings::default()).unwrap();
        let game = ResourceGame::new(sps, caps).unwrap();
        let cfg = GameConfig {
            epsilon: 0.01,
            ..GameConfig::default()
        };
        let out = game.run(&cfg).unwrap();
        assert!(out.converged);
        let pos = out.total_cost / swp.objective;
        assert!(
            pos < 1.15 && pos > 0.99,
            "PoS estimate {pos} (NE {} vs SWP {})",
            out.total_cost,
            swp.objective
        );
    }

    #[test]
    fn validation_errors() {
        assert!(solve_social_welfare(&[], &[1.0], &IpmSettings::default()).is_err());
        let sps = SpSampler::new(2, 1, 2).with_seed(13).sample(2).unwrap();
        assert!(solve_social_welfare(&sps, &[1.0], &IpmSettings::default()).is_err());
    }
}

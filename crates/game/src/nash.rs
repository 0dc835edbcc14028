//! Equilibrium verification (Definition 2).

use crate::{GameConfig, GameOutcome, ResourceGame};
use dspp_core::{Allocation, CoreError, HorizonProblem};

/// Per-provider relative improvement available by unilateral deviation.
///
/// For every provider `i`, fixes the other providers' trajectories from
/// `outcome`, computes the residual capacity left at every stage and data
/// center, re-solves provider `i`'s DSPP against those residuals, and
/// reports `(J^i − J^i_dev) / J^i` — how much (relatively) the provider
/// could still save. An outcome is an ε-Nash equilibrium (Definition 2's
/// W-MPC equilibrium, verified ex post) when every gap is ≤ ε.
///
/// # Errors
///
/// Propagates [`CoreError`] if a deviation problem cannot be built or
/// solved — with the residual capacities of a feasible outcome this should
/// not happen (the provider's own trajectory remains feasible).
pub fn equilibrium_gaps(
    game: &ResourceGame,
    outcome: &GameOutcome,
    config: &GameConfig,
) -> Result<Vec<f64>, CoreError> {
    let n = game.providers().len();
    let nl = game.total_capacity().len();
    let w = game.horizon();
    // Resource usage per provider, stage and DC.
    let usage: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| {
            let sp = &game.providers()[i];
            (1..=w)
                .map(|t| {
                    let x = Allocation::from_arc_values(
                        &sp.problem,
                        outcome.solutions[i].xs[t].as_slice().to_vec(),
                    );
                    x.per_dc(&sp.problem)
                        .into_iter()
                        .map(|u| u * sp.problem.server_size())
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut gaps = Vec::with_capacity(n);
    for i in 0..n {
        let sp = &game.providers()[i];
        // Residual capacity for i: total minus everyone else's usage.
        let residual: Vec<Vec<f64>> = (0..w)
            .map(|t| {
                (0..nl)
                    .map(|l| {
                        let others: f64 = (0..n).filter(|&j| j != i).map(|j| usage[j][t][l]).sum();
                        (game.total_capacity()[l] - others).max(0.0)
                    })
                    .collect()
            })
            .collect();
        let horizon = HorizonProblem::build_full(
            &sp.problem,
            &sp.initial,
            &sp.demand,
            &sp.price_rows(),
            Some(&residual),
            None,
        )?;
        let sol = horizon.solve(&config.ipm)?;
        let j_now = outcome.provider_costs[i];
        let j_dev = sol.objective;
        gaps.push(if j_now.abs() > 1e-12 {
            (j_now - j_dev) / j_now
        } else {
            0.0
        });
    }
    Ok(gaps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpSampler;
    use dspp_solver::IpmSettings;

    fn cfg() -> GameConfig {
        GameConfig {
            epsilon: 0.02,
            ipm: IpmSettings::fast(),
            ..GameConfig::default()
        }
    }

    #[test]
    fn converged_outcome_is_epsilon_nash() {
        let sps = SpSampler::new(2, 2, 3).with_seed(21).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![50.0, 50.0]).unwrap();
        let out = game.run(&cfg()).unwrap();
        assert!(out.converged);
        let gaps = equilibrium_gaps(&game, &out, &cfg()).unwrap();
        for (i, g) in gaps.iter().enumerate() {
            assert!(
                *g <= 0.10,
                "provider {i} can still improve by {:.1}%",
                g * 100.0
            );
        }
    }
}

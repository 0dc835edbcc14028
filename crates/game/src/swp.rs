//! The social welfare problem (SWP): the joint optimum all providers would
//! reach under a central planner, against which the paper defines price of
//! anarchy and price of stability.

use crate::ServiceProvider;
use dspp_core::CoreError;
use dspp_linalg::Vector;
use dspp_solver::{solve_structured, CouplingRow, DiagRow, IpmSettings, StructuredLq};

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

/// Solves the SWP exactly: one stage-structured QP over the stacked
/// providers with the shared capacity constraint
/// `Σ_i s^i Σ_v x^{ilv} ≤ C^l` per stage, on the structured KKT path
/// (each provider location is a demand row, each DC one joint capacity
/// row).
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
    if providers.is_empty() {
        return Err(CoreError::InvalidSpec("no providers".into()));
    }
    let nl = providers[0].problem.num_dcs();
    let w = providers[0].horizon();
    for (i, sp) in providers.iter().enumerate() {
        if sp.problem.num_dcs() != nl || sp.horizon() != w {
            return Err(CoreError::InvalidSpec(format!(
                "provider {i} disagrees on data centers or window length"
            )));
        }
    }
    if total_capacity.len() != nl {
        return Err(CoreError::InvalidSpec(format!(
            "capacity vector has {} entries, expected {nl}",
            total_capacity.len()
        )));
    }

    // Joint layout: provider i's arcs occupy [offset[i], offset[i+1]).
    let mut offsets = vec![0usize];
    for sp in providers {
        offsets.push(offsets.last().unwrap() + sp.problem.num_arcs());
    }
    let n = *offsets.last().unwrap();
    let total_v: usize = providers.iter().map(|sp| sp.problem.num_locations()).sum();
    let m_rows = total_v + nl + n;

    // Shared rows (same at every stage): every provider's demand rows,
    // then one joint capacity row per DC, then non-negativity.
    let mut group_a = Vec::with_capacity(total_v);
    let mut group_b: Vec<CouplingRow> = (0..nl)
        .map(|l| CouplingRow {
            row: total_v + l,
            entries: Vec::new(),
        })
        .collect();
    for (i, sp) in providers.iter().enumerate() {
        for v in 0..sp.problem.num_locations() {
            group_a.push(CouplingRow {
                row: group_a.len(),
                entries: sp
                    .problem
                    .arcs_for_location(v)
                    .into_iter()
                    .map(|e| (offsets[i] + e, -1.0 / sp.problem.arc_coeff(e)))
                    .collect(),
            });
        }
        for (e, &(l, _)) in sp.problem.arcs().iter().enumerate() {
            group_b[l]
                .entries
                .push((offsets[i] + e, sp.problem.server_size()));
        }
    }
    let diag_rows = (0..n)
        .map(|j| DiagRow {
            row: total_v + nl + j,
            arc: j,
            coeff: -1.0,
        })
        .collect();

    // Reconfiguration penalty per joint arc: ½uᵀRu = Σ c u², R = 2c.
    let r_diag: Vector = providers
        .iter()
        .flat_map(|sp| {
            sp.problem
                .arcs()
                .iter()
                .map(|&(l, _)| 2.0 * sp.problem.reconfig_weight(l))
                .collect::<Vec<_>>()
        })
        .collect();

    let price_rows: Vec<Vec<Vec<f64>>> = providers.iter().map(|sp| sp.price_rows()).collect();
    let stage_cost = |t: usize| -> Vector {
        // Price of provider i's arc e at forecast index t (period t+1).
        providers
            .iter()
            .enumerate()
            .flat_map(|(i, sp)| {
                sp.problem
                    .arcs()
                    .iter()
                    .map(|&(l, _)| price_rows[i][l][t])
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let stage_rhs = |t: usize| -> Vector {
        let mut d = Vector::zeros(m_rows);
        let mut vrow = 0usize;
        for sp in providers {
            for v in 0..sp.problem.num_locations() {
                d[vrow] = -sp.demand[v][t];
                vrow += 1;
            }
        }
        for l in 0..nl {
            d[total_v + l] = total_capacity[l];
        }
        d
    };

    let x0: Vector = providers
        .iter()
        .flat_map(|sp| sp.initial.arc_values().to_vec())
        .collect();
    let slq = StructuredLq::new(
        x0,
        Vector::zeros(n),
        (0..w).map(stage_cost).collect(),
        vec![r_diag; w],
        vec![Vector::zeros(n); w],
        (0..w).map(stage_rhs).collect(),
        diag_rows,
        group_a,
        group_b,
        m_rows,
    )?;
    let sol = solve_structured(&slq, ipm)?;

    // Split the joint trajectories back out and account per-provider costs.
    let mut xs: Vec<Vec<Vector>> = vec![Vec::with_capacity(w + 1); providers.len()];
    let mut us: Vec<Vec<Vector>> = vec![Vec::with_capacity(w); providers.len()];
    for (i, sp) in providers.iter().enumerate() {
        let (lo, hi) = (offsets[i], offsets[i] + sp.problem.num_arcs());
        for t in 0..=w {
            xs[i].push((lo..hi).map(|j| sol.xs[t][j]).collect());
        }
        for t in 0..w {
            us[i].push((lo..hi).map(|j| sol.us[t][j]).collect());
        }
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
        let sps = SpSampler::new(2, 2, 3).with_seed(11).sample(1).unwrap();
        let caps = vec![200.0, 200.0];
        let swp = solve_social_welfare(&sps, &caps, &IpmSettings::default()).unwrap();
        let game = ResourceGame::new(sps, caps.clone()).unwrap();
        let (cost, _, _) = game
            .best_response(0, &caps, &IpmSettings::default())
            .unwrap();
        assert!(
            (swp.objective - cost).abs() < 1e-4 * (1.0 + cost),
            "swp {} vs solo {cost}",
            swp.objective
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

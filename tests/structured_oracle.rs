//! Oracle cross-check of the one production solve path.
//!
//! Every DSPP horizon is solved on the structured KKT path. This proptest
//! draws paper-shaped horizons (4 DCs, a handful of locations each
//! reaching one to four DCs under the SLA) across the regimes that stress
//! that path — nominal capacity, a dead data center inside the window,
//! all-DC brownouts that force the recovery relaxation, reconfiguration
//! rate limits, and game-style quotas tight enough to bind — and compares
//! each against the dense Riccati oracle on the expanded problem
//! (`HorizonProblem::to_lq`, relaxed with `relax_lq_slots` for recovery).

use dspp::core::{Allocation, Dspp, DsppBuilder, HorizonProblem, RecoverySettings};
use dspp::solver::{relax_lq_slots, solve_lq, IpmSettings, LqSolution, SolveStatus, SolverError};
use dspp::telemetry::Recorder;
use proptest::prelude::*;

const DCS: usize = 4;

/// `locs` locations; location `v` reaches DC `l` under the SLA when bit
/// `l` of `reach[v]` is set (at least one always is).
fn instance(locs: usize, reach: &[u64], cap: f64, seed: u64) -> Dspp {
    let latency: Vec<Vec<f64>> = (0..DCS)
        .map(|l| {
            (0..locs)
                .map(|v| {
                    let mask = (reach[v] % 15) + 1;
                    if mask & (1 << l) != 0 {
                        0.008 + 0.003 * (((l + v) % 4) as f64)
                    } else {
                        0.200
                    }
                })
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(DCS, locs)
        .service_rate(250.0)
        .sla_latency(0.030)
        .latency_rows(latency);
    for l in 0..DCS {
        let tariff = 0.004 + 0.002 * (((l as u64 + seed) % 5) as f64);
        builder = builder
            .price_trace(
                l,
                (0..8)
                    .map(|k| tariff * (1.0 + 0.1 * (k % 3) as f64))
                    .collect(),
            )
            .reconfiguration_weight(l, 0.001 + 0.002 * l as f64)
            .capacity(l, cap);
    }
    builder.build().expect("valid instance")
}

fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / (1.0 + b.abs())
}

fn min_state(sol: &LqSolution) -> f64 {
    sol.xs
        .iter()
        .skip(1)
        .flat_map(|x| x.iter().copied())
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn prop_structured_path_matches_the_dense_oracle(
        locs in 3usize..7,
        reach in proptest::collection::vec(0u64..15, 6),
        w in 3usize..6,
        demand in 2_000.0f64..9_000.0,
        regime in 0u64..5,
        seed in 0u64..1_000,
    ) {
        // Capacity per DC relative to the aggregate need: regimes 1 and 3
        // keep it comfortable, regime 4 makes quotas bind.
        let cap = match regime {
            4 => 18.0,
            _ => 60.0,
        };
        let problem = instance(locs, &reach, cap, seed);
        let x0 = Allocation::from_arc_values(
            &problem,
            (0..problem.num_arcs()).map(|e| ((e as u64 + seed) % 4) as f64).collect(),
        );
        let forecast: Vec<Vec<f64>> = (0..locs)
            .map(|v| {
                (0..w)
                    .map(|t| demand * (0.7 + 0.1 * ((v + t + seed as usize) % 6) as f64))
                    .collect()
            })
            .collect();
        let prices: Vec<Vec<f64>> = (0..DCS)
            .map(|l| (1..=w).map(|t| problem.price(l, t)).collect())
            .collect();
        // Regime 1: the DC `seed % 4` is dark in the middle of the window.
        // Regime 2: every DC browns out to a tenth of its capacity.
        let caps: Option<Vec<Vec<f64>>> = match regime {
            1 => Some(
                (0..w)
                    .map(|t| {
                        (0..DCS)
                            .map(|l| if l as u64 == seed % 4 && t >= 1 && t + 1 < w { 0.0 } else { cap })
                            .collect()
                    })
                    .collect(),
            ),
            2 => Some(vec![vec![cap / 10.0; DCS]; w]),
            _ => None,
        };
        let rate_limit = (regime == 3).then_some(4.0);
        let h = HorizonProblem::build_full(
            &problem, &x0, &forecast, &prices, caps.as_deref(), rate_limit,
        )
        .expect("horizon");
        let ipm = IpmSettings::default();
        let dense = h.to_lq();
        let strict = h.solve(&ipm);
        let oracle = solve_lq(&dense, &ipm);
        match (&strict, &oracle) {
            (Ok(sol), Ok(orc)) => {
                if orc.status == SolveStatus::Optimal {
                    prop_assert_eq!(sol.status, SolveStatus::Optimal);
                    prop_assert!(
                        rel_gap(sol.objective, orc.objective) <= 1e-6,
                        "objective {} vs oracle {}", sol.objective, orc.objective
                    );
                    // Capacity prices are unique off the pinned (dead) slots.
                    if h.structured().pins().is_empty() {
                        let (a, b) = (h.capacity_duals(sol), h.capacity_duals(orc));
                        for (x, y) in a.iter().zip(&b) {
                            prop_assert!((x - y).abs() <= 1e-4, "capacity duals {:?} vs {:?}", a, b);
                        }
                    }
                } else {
                    prop_assert!(sol.objective <= orc.objective + 1e-6 * (1.0 + orc.objective.abs()));
                }
                prop_assert!(min_state(sol) >= -1e-6, "x + u = {}", min_state(sol));
            }
            (Err(dspp::core::CoreError::Solver(SolverError::Infeasible { .. })), _)
            | (_, Err(SolverError::Infeasible { .. })) => {
                // Infeasible horizons go through the recovery relaxation.
                let recovery = RecoverySettings::default();
                let out = h
                    .solve_recovery(&ipm, &recovery, None, &Recorder::disabled())
                    .expect("the relaxation is always feasible");
                let mut soften = vec![true; w + 1];
                soften[0] = false;
                let relaxed = relax_lq_slots(&dense, &h.recovery_spec(&recovery), &soften)
                    .expect("oracle relaxation");
                let orc = relaxed.split_solution(
                    &dense,
                    &solve_lq(&relaxed.problem, &ipm).expect("oracle recovery"),
                );
                if orc.solution.status == SolveStatus::Optimal {
                    prop_assert_eq!(out.solution.status, SolveStatus::Optimal);
                    // Both solvers optimize the relaxed objective: hosting
                    // and reconfiguration plus the slack penalty.
                    let spec = h.recovery_spec(&recovery);
                    let penalty = |slacks: &[dspp::linalg::Vector]| -> f64 {
                        slacks
                            .iter()
                            .flat_map(|s| s.iter().zip(spec.penalties.iter()))
                            .map(|(s, p)| p * s + spec.quadratic * s * s)
                            .sum()
                    };
                    let mine: Vec<dspp::linalg::Vector> = out
                        .demand_slack
                        .iter()
                        .map(|row| dspp::linalg::Vector::from(row.clone()))
                        .collect();
                    let relaxed_mine = out.solution.objective + penalty(&mine);
                    let relaxed_oracle = orc.solution.objective + penalty(&orc.slacks);
                    prop_assert!(
                        rel_gap(relaxed_mine, relaxed_oracle) <= 1e-6,
                        "recovery objective {} vs oracle {}",
                        relaxed_mine,
                        relaxed_oracle
                    );
                    for t in 0..w {
                        let oracle_shortfall: f64 = orc.slacks[t + 1]
                            .iter()
                            .zip(spec.penalties.iter())
                            .map(|(s, p)| s * p / recovery.penalty)
                            .sum();
                        prop_assert!(
                            (out.resource_shortfall[t] - oracle_shortfall).abs() <= 1e-6,
                            "period {}: shortfall {} vs oracle {}",
                            t, out.resource_shortfall[t], oracle_shortfall
                        );
                    }
                }
                prop_assert!(min_state(&out.solution) >= -1e-6);
            }
            (s, o) => prop_assert!(false, "structured {:?} vs oracle {:?}", s.as_ref().err(), o.as_ref().err()),
        }
    }
}

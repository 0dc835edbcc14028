//! Oracle cross-checks of the one production solve path: every
//! comparison of the structured KKT path against the dense oracles of the
//! test-only `dspp-oracle` crate — the Riccati interior point
//! (`solve_lq`) on the dense expansion (`expand`), relaxed with
//! `relax_lq` for recovery.
//!
//! The instances are hand-built `StructuredLq` grids, `HorizonProblem`s
//! built from a `Dspp`, and a proptest over paper-shaped horizons (4 DCs,
//! a handful of locations each reaching one to four DCs under the SLA)
//! across the regimes that stress the structured path: nominal capacity,
//! a dead data center inside the window, all-DC brownouts that force the
//! recovery relaxation, and game-style quotas tight enough to bind.

use dspp::core::{Allocation, Dspp, DsppBuilder, HorizonProblem, RecoverySettings};
use dspp::linalg::Vector;
use dspp::solver::{
    solve_structured, solve_structured_relaxed_traced, CouplingRow, IpmSettings, LqSolution,
    SoftSpec, SolveStatus, SolverError, StructuredLq,
};
use dspp::telemetry::Recorder;
use dspp_oracle::{expand, relax_lq, solve_lq};
use proptest::prelude::*;

/// A small DSPP-shaped instance: `dcs × locs` grid with every arc
/// usable, demand floors per location, capacity caps per DC,
/// non-negativity per arc.
fn grid(dcs: usize, locs: usize, w: usize, demand: f64, cap: f64) -> StructuredLq {
    let n = dcs * locs; // arc (l, v) at index l * locs + v
    let demand_rows = (0..locs)
        .map(|v| CouplingRow {
            entries: (0..dcs)
                .map(|l| (l * locs + v, -(1.0 + 0.1 * l as f64)))
                .collect(),
        })
        .collect();
    let capacity_rows = (0..dcs)
        .map(|l| CouplingRow {
            entries: (0..locs).map(|v| (l * locs + v, 1.0)).collect(),
        })
        .collect();
    let mut d = Vector::zeros(locs + dcs);
    for v in 0..locs {
        d[v] = -demand;
    }
    for l in 0..dcs {
        d[locs + l] = cap;
    }
    let qs: Vec<Vector> = (0..w)
        .map(|k| (0..n).map(|e| 1.0 + 0.3 * ((e + k) % 5) as f64).collect())
        .collect();
    StructuredLq::new(
        Vector::zeros(n),
        qs,
        Vector::filled(n, 0.2),
        demand_rows,
        capacity_rows,
        vec![d; w],
    )
    .unwrap()
}

/// `slq` rebuilt with its demand rows and right-hand sides replaced.
fn rebuilt(slq: &StructuredLq, demand: Vec<CouplingRow>, ds: Vec<Vector>) -> StructuredLq {
    let w = slq.horizon();
    StructuredLq::new(
        slq.x0().clone(),
        (1..=w).map(|k| slq.prices(k).clone()).collect(),
        slq.reconfiguration().clone(),
        demand,
        slq.capacity_rows().to_vec(),
        ds,
    )
    .unwrap()
}

/// `grid` with data center `dead` at zero capacity in `slots`.
fn with_outage(slq: &StructuredLq, locs: usize, dead: usize, slots: &[usize]) -> StructuredLq {
    let ds = (1..=slq.horizon())
        .map(|k| {
            let mut d = slq.rhs(k).clone();
            if slots.contains(&k) {
                d[locs + dead] = 0.0;
            }
            d
        })
        .collect();
    rebuilt(slq, slq.demand_rows().to_vec(), ds)
}

fn assert_close(a: f64, b: f64, rel: f64, what: &str) {
    assert!(
        (a - b).abs() <= rel * (1.0 + b.abs()),
        "{what}: structured {a} vs oracle {b}"
    );
}

/// Builders list a location's arcs in capacity-row order, one arc per
/// data center. A hand-built problem may do neither: here one demand row
/// lists its arcs in descending capacity row, and another covers two arcs
/// of each data center in mixed order (leaving an empty row). The solve
/// matches the dense oracle.
#[test]
fn hand_built_block_orders_match_the_dense_oracle() {
    let base = grid(3, 4, 3, 4.0, 40.0);
    let mut reversed = base.demand_rows().to_vec();
    for row in &mut reversed {
        row.entries.reverse();
    }
    let base_ds = (1..=3).map(|k| base.rhs(k).clone()).collect();
    let two_per_dc = grid(2, 2, 3, 3.0, 30.0);
    let emptied_ds = (1..=3)
        .map(|k| {
            let mut d = two_per_dc.rhs(k).clone();
            d[1] = 0.0; // `0 ≤ 0`: the emptied demand row is vacuous
            d
        })
        .collect();
    let merged = vec![
        CouplingRow {
            entries: vec![(2, -1.1), (0, -1.0), (3, -1.1), (1, -1.0)],
        },
        CouplingRow { entries: vec![] },
    ];
    for slq in [
        rebuilt(&base, reversed, base_ds),
        rebuilt(&two_per_dc, merged, emptied_ds),
    ] {
        let dense = solve_lq(&expand(&slq), &IpmSettings::default()).unwrap();
        let structured = solve_structured(&slq, &IpmSettings::default()).unwrap();
        assert_eq!(structured.status, SolveStatus::Optimal);
        assert_close(structured.objective, dense.objective, 1e-8, "objective");
        for (a, b) in structured.xs.iter().zip(&dense.xs) {
            assert!((a - b).norm_inf() < 1e-6);
        }
    }
}

#[test]
fn structured_matches_dense_on_a_dspp_instance() {
    let slq = grid(3, 4, 4, 5.0, 40.0);
    let dense = solve_lq(&expand(&slq), &IpmSettings::default()).unwrap();
    let structured = solve_structured(&slq, &IpmSettings::default()).unwrap();
    assert_eq!(structured.status, SolveStatus::Optimal);
    assert_eq!(structured.iterations, dense.iterations);
    assert_close(structured.objective, dense.objective, 1e-8, "objective");
    for (a, b) in structured.xs.iter().zip(&dense.xs) {
        assert!((a - b).norm_inf() < 1e-6);
    }
    // Duals agree too (they feed the game's capacity prices).
    for (a, b) in structured.stage_duals.iter().zip(&dense.stage_duals) {
        assert!((a - b).norm_inf() < 1e-5);
    }
}

#[test]
fn relaxation_matches_the_dense_oracle() {
    // Softening the demand rows (the recovery solve), and the demand
    // plus capacity rows (a slack on an augmented capacity row).
    for (soft, demand, cap) in [(3, 4.0, 30.0), (3, 12.0, 10.0), (5, 12.0, 10.0)] {
        let spec = SoftSpec::uniform(soft, 1e3, 1e-4);
        let slq = grid(2, 3, 3, demand, cap);
        let dense_problem = expand(&slq);
        let oracle = relax_lq(&dense_problem, &spec)
            .unwrap()
            .solve(&dense_problem, &IpmSettings::default())
            .unwrap();
        let out = solve_structured_relaxed_traced(
            &slq,
            &spec,
            &IpmSettings::default(),
            None,
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(out.solution.status, SolveStatus::Optimal);
        assert_close(
            out.solution.objective,
            oracle.solution.objective,
            1e-6,
            "objective",
        );
        assert_eq!(out.slacks.len(), oracle.slacks.len());
        for k in 1..=slq.horizon() {
            assert!(
                (out.slot_slack(k) - oracle.slot_slack(k)).abs() < 1e-6,
                "slot {k}: slack {} vs {}",
                out.slot_slack(k),
                oracle.slot_slack(k)
            );
        }
        if cap > 20.0 {
            assert!(out.max_slack() < 1e-6, "feasible horizon sheds nothing");
        } else if soft == 3 {
            // 3 locations × 12 demand against 10 servers serving 1.0
            // each plus 10 serving 1.1 each: 36 − 21 = 15 shed.
            assert!((out.slot_slack(1) - 15.0).abs() < 1e-5);
        }
    }
}

#[test]
fn dead_data_center_is_pinned_and_solves_optimal() {
    // DC 1 is dark in slots 2 and 3 of a 4-slot window.
    let slq = with_outage(&grid(2, 3, 4, 4.0, 30.0), 3, 1, &[2, 3]);
    assert_eq!(slq.pins().len(), 6);
    let dense = solve_lq(&expand(&slq), &IpmSettings::default());
    let structured = solve_structured(&slq, &IpmSettings::default()).unwrap();
    assert_eq!(structured.status, SolveStatus::Optimal);
    for k in [2, 3] {
        for v in 0..3 {
            assert_eq!(structured.xs[k][3 + v], 0.0, "pinned arc must sit at zero");
        }
    }
    if let Ok(dense) = dense {
        assert_close(structured.objective, dense.objective, 1e-6, "objective");
        // Live capacity rows carry the same price on both paths.
        for k in 1..=slq.horizon() {
            let live = if k == 2 || k == 3 { 1 } else { 2 };
            for l in 0..live {
                let (a, b) = (
                    structured.stage_duals[k][3 + l],
                    dense.stage_duals[k][3 + l],
                );
                assert!((a - b).abs() < 1e-4, "slot {k} dc {l}: {a} vs {b}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The structured path agrees with the dense oracle to 1e-8 on
    /// random DSPP-shaped instances across horizons and grid sizes.
    #[test]
    fn prop_structured_agrees_with_dense(
        dcs in 1usize..4,
        locs in 1usize..5,
        w in 1usize..5,
        demand in 1.0f64..8.0,
        cap_slack in 1.2f64..3.0,
    ) {
        // Keep the instance feasible: total capacity comfortably above
        // total demand (worst-coefficient conversion is ≤ 1 server per
        // unit of demand here).
        let cap = demand * locs as f64 * cap_slack / dcs as f64;
        let slq = grid(dcs, locs, w, demand, cap);
        let dense = solve_lq(&expand(&slq), &IpmSettings::default()).unwrap();
        let structured = solve_structured(&slq, &IpmSettings::default()).unwrap();
        prop_assert!(
            (structured.objective - dense.objective).abs()
                <= 1e-8 * (1.0 + dense.objective.abs()),
            "objectives diverge: structured {} vs dense {}",
            structured.objective,
            dense.objective
        );
        for (a, b) in structured.xs.iter().zip(&dense.xs) {
            prop_assert!((a - b).norm_inf() < 1e-6);
        }
    }
}

/// Two DCs × two locations, each location near one DC.
fn two_dc_problem() -> Dspp {
    DsppBuilder::new(2, 2)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
        .capacities(vec![100.0, 100.0])
        .reconfiguration_weights(vec![0.05, 0.05])
        .price_trace(0, vec![1.0])
        .price_trace(1, vec![1.0])
        .build()
        .unwrap()
}

fn flat(v: f64, h: usize) -> Vec<f64> {
    vec![v; h]
}

fn oracle(h: &HorizonProblem) -> LqSolution {
    solve_lq(&expand(h.structured()), &IpmSettings::default()).unwrap()
}

fn assert_matches_oracle(h: &HorizonProblem, sol: &LqSolution, dense: &LqSolution) {
    assert!(
        (dense.objective - sol.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
        "objectives diverge: {} vs oracle {}",
        sol.objective,
        dense.objective
    );
    for (a, b) in sol.xs.iter().zip(&dense.xs) {
        assert!((a - b).norm_inf() < 1e-5);
    }
    let (cs, cd) = (h.capacity_duals(sol), h.capacity_duals(dense));
    for (a, b) in cs.iter().zip(&cd) {
        assert!(
            (a - b).abs() < 1e-4,
            "capacity duals {cs:?} vs oracle {cd:?}"
        );
    }
    let (ds, dd) = (h.demand_duals(sol), h.demand_duals(dense));
    for (a, b) in ds.iter().zip(&dd) {
        assert!((a - b).abs() < 1e-4, "demand duals {ds:?} vs oracle {dd:?}");
    }
}

#[test]
fn structured_path_matches_the_dense_oracle() {
    let p = two_dc_problem();
    let x0 = Allocation::zeros(&p);
    let demand = vec![flat(50.0, 4), flat(30.0, 4)];
    let prices = vec![vec![1.0, 1.2, 0.9, 1.1], vec![2.0, 1.8, 2.1, 1.9]];
    let h = HorizonProblem::build(&p, &x0, &demand, &prices).unwrap();
    let sol = h.solve(&IpmSettings::default()).unwrap();
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert_matches_oracle(&h, &sol, &oracle(&h));
}

#[test]
fn recovery_matches_the_dense_relaxation_oracle() {
    let p = DsppBuilder::new(2, 1)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010], vec![0.020]])
        .capacities(vec![1.0, 1.5])
        .price_trace(0, vec![1.0])
        .price_trace(1, vec![2.0])
        .build()
        .unwrap();
    let x0 = Allocation::zeros(&p);
    let h = HorizonProblem::build(
        &p,
        &x0,
        &[vec![100.0, 400.0, 150.0]],
        &[flat(1.0, 3), flat(2.0, 3)],
    )
    .unwrap();
    let recovery = RecoverySettings::default();
    let out = h
        .solve_recovery(
            &IpmSettings::default(),
            &recovery,
            None,
            &Recorder::disabled(),
        )
        .unwrap();
    assert_eq!(out.solution.status, SolveStatus::Optimal);
    let strict = expand(h.structured());
    let dense = relax_lq(&strict, &h.recovery_spec(&recovery))
        .unwrap()
        .solve(&strict, &IpmSettings::default())
        .unwrap();
    assert!(
        (out.solution.objective - dense.solution.objective).abs()
            <= 1e-6 * (1.0 + dense.solution.objective.abs())
    );
    let a = p.arc_coeff(0).min(p.arc_coeff(1)) * p.server_size();
    for t in 0..h.horizon() {
        let oracle_shortfall = dense.slot_slack(t + 1) * a;
        assert!(
            (out.resource_shortfall[t] - oracle_shortfall).abs() < 1e-6,
            "period {t}: {} vs oracle {oracle_shortfall}",
            out.resource_shortfall[t]
        );
    }
    assert!(out.max_resource_shortfall() > 1.0);
}

#[test]
fn dead_data_center_arcs_are_pinned_to_zero() {
    let p = two_dc_problem();
    let x0 = Allocation::from_arc_values(&p, vec![0.3; p.num_arcs()]);
    // DC 1 is dark for the middle two of four periods.
    let caps = vec![
        vec![100.0, 100.0],
        vec![100.0, 0.0],
        vec![100.0, 0.0],
        vec![100.0, 100.0],
    ];
    let h = HorizonProblem::build_full(
        &p,
        &x0,
        &[flat(50.0, 4), flat(30.0, 4)],
        &[flat(2.0, 4), flat(1.0, 4)],
        Some(&caps),
        None,
    )
    .unwrap();
    assert_eq!(h.structured().pins().len(), 2 * 2);
    let sol = h.solve(&IpmSettings::default()).unwrap();
    assert_eq!(sol.status, SolveStatus::Optimal);
    let dc1: Vec<usize> = (0..p.num_arcs()).filter(|&e| p.arcs()[e].0 == 1).collect();
    for k in [2, 3] {
        for &e in &dc1 {
            assert_eq!(sol.xs[k][e], 0.0, "slot {k} arc {e}");
        }
    }
    let dense = oracle(&h);
    assert!(
        (dense.objective - sol.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
        "objectives diverge: {} vs oracle {}",
        sol.objective,
        dense.objective
    );
}

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
        regime in 0u64..4,
        seed in 0u64..1_000,
    ) {
        // Capacity per DC relative to the aggregate need: regimes 0 to 2
        // keep it comfortable, regime 3 makes quotas bind.
        let cap = match regime {
            3 => 18.0,
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
        let h = HorizonProblem::build_full(&problem, &x0, &forecast, &prices, caps.as_deref(), None)
            .expect("horizon");
        let ipm = IpmSettings::default();
        let dense = expand(h.structured());
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
                let orc = relax_lq(&dense, &h.recovery_spec(&recovery))
                    .expect("oracle relaxation")
                    .solve(&dense, &ipm)
                    .expect("oracle recovery");
                if orc.solution.status == SolveStatus::Optimal {
                    prop_assert_eq!(out.solution.status, SolveStatus::Optimal);
                    // Both solvers optimize the relaxed objective: hosting
                    // and reconfiguration plus the slack penalty.
                    let spec = h.recovery_spec(&recovery);
                    let penalty = |slacks: &[Vector]| -> f64 {
                        slacks
                            .iter()
                            .flat_map(|s| s.iter().zip(spec.penalties.iter()))
                            .map(|(s, p)| p * s + spec.quadratic * s * s)
                            .sum()
                    };
                    let mine: Vec<Vector> = out
                        .demand_slack
                        .iter()
                        .map(|row| Vector::from(row.clone()))
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

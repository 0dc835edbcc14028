//! Regression probes for the two ways a structure-exploiting KKT path
//! degrades where the dense Riccati path does not: capacity rows binding
//! together with demand rows (a market period of the quota game), and a
//! dark data center inside the lookahead (the paper instance's outage).
//! Both pin the structured path against the dense oracle
//! (`HorizonProblem::to_lq` solved by `solve_lq`).

use dspp_core::{Allocation, HorizonProblem, MpcController, MpcSettings, PlacementPolicy};
use dspp_experiments::scenario::{populations, wide_area_problem, SLA_LATENCY};
use dspp_game::{GameConfig, ResourceGame, SpSampler};
use dspp_predict::OraclePredictor;
use dspp_runtime::FaultPlan;
use dspp_solver::{solve_lq, IpmSettings, SolveStatus};
use dspp_telemetry::Recorder;

/// One period of the rolling-game market: six sampled providers on
/// 4 DCs × 8 locations, window 5, 20 capacity units per DC. The quotas
/// bind, so capacity and demand rows are active together in most best
/// responses — the regime where eliminating demand rows before capacity
/// rows cancels catastrophically.
#[test]
fn binding_quota_game_period_solves_every_best_response_optimal() {
    let providers = SpSampler::new(4, 8, 5)
        .with_seed(7)
        .sample(6)
        .expect("sampled market");
    let telemetry = Recorder::enabled();
    let game = ResourceGame::new(providers, vec![20.0; 4]).expect("game");
    let config = GameConfig {
        telemetry: telemetry.clone(),
        ..GameConfig::default()
    };
    let outcome = game.run(&config).expect("game period runs");
    let snap = telemetry.snapshot().expect("enabled recorder");
    let solves = snap.counter("solver.lq.solves");
    assert_eq!(solves, 12, "six providers over two rounds");
    assert_eq!(
        snap.counter("solver.lq.status.optimal"),
        solves,
        "every best response must end Optimal"
    );
    let iterations = snap
        .histogram("solver.lq.iterations")
        .expect("iterations")
        .sum;
    assert!(iterations <= 109.0, "{iterations} IPM iterations");
    assert_eq!(snap.counter("solver.lq.reg_boosts"), 0);
    assert!(snap.counter("solver.lq.schur_factor") > 0);
    assert_eq!(outcome.iterations, 2, "two best-response rounds");
}

/// The paper instance (4 DCs × 24 cities) under the benchmark's fault
/// plan: DC 3 is dark in periods 24–26, so the W = 5 lookahead of the
/// seven decisions at periods 20–26 contains zero-capacity slots. Each of
/// those horizons is solved on the structured path and by the dense
/// oracle; the structured path must end `Optimal` at least as often, and
/// agree on the objective wherever both do.
#[test]
fn outage_lookahead_decisions_match_the_dense_oracle() {
    const W: usize = 5;
    let periods = 40;
    let locations: Vec<usize> = (0..24).collect();
    let problem = wide_area_problem(&locations, periods + W + 2, 0.001, SLA_LATENCY).unwrap();
    let pops = populations();
    let pop_sum: f64 = pops.iter().sum();
    let rate = 500_000.0 / 60.0;
    let diurnal = |h: f64| 1.0 - 0.45 * (2.0 * std::f64::consts::PI * (h - 2.0) / 24.0).cos();
    let demand: Vec<Vec<f64>> = pops
        .iter()
        .map(|p| {
            (0..periods + W + 2)
                .map(|k| rate * p / pop_sum * diurnal(k as f64 + 0.5))
                .collect()
        })
        .collect();
    let schedule = FaultPlan::new()
        .dc_outage(3, 24, 3)
        .capacity_schedule(&problem, periods + W)
        .expect("the outage removes capacity");
    let mut controller = MpcController::new(
        problem.clone(),
        Box::new(OraclePredictor::new(demand.clone())),
        MpcSettings {
            horizon: W,
            ..MpcSettings::default()
        },
    )
    .unwrap();
    controller.set_capacity_schedule(schedule.clone());
    let ipm = IpmSettings::default();
    let (mut structured_optimal, mut oracle_optimal) = (0, 0);
    for k in 0..=26 {
        if k >= 20 {
            let x0 = Allocation::from_arc_values(
                &problem,
                controller.allocation().arc_values().to_vec(),
            );
            let forecast: Vec<Vec<f64>> =
                demand.iter().map(|d| d[k + 1..=k + W].to_vec()).collect();
            let prices: Vec<Vec<f64>> = (0..problem.num_dcs())
                .map(|l| (1..=W).map(|t| problem.price(l, k + t)).collect())
                .collect();
            let caps: Vec<Vec<f64>> = (0..W).map(|t| schedule[k + t].clone()).collect();
            let h =
                HorizonProblem::build_full(&problem, &x0, &forecast, &prices, Some(&caps), None)
                    .unwrap();
            assert!(
                !h.structured().pins().is_empty(),
                "period {k}: DC 3 is dark"
            );
            let structured = h.solve(&ipm).expect("structured solve");
            let oracle = solve_lq(&h.to_lq(), &ipm);
            structured_optimal += usize::from(structured.status == SolveStatus::Optimal);
            if let Ok(oracle) = oracle {
                if oracle.status == SolveStatus::Optimal {
                    oracle_optimal += 1;
                    if structured.status == SolveStatus::Optimal {
                        let rel = (structured.objective - oracle.objective).abs()
                            / (1.0 + oracle.objective.abs());
                        assert!(
                            rel <= 1e-6,
                            "period {k}: {} vs oracle {}",
                            structured.objective,
                            oracle.objective
                        );
                    }
                }
            }
        }
        let observed: Vec<f64> = demand.iter().map(|d| d[k]).collect();
        controller.step(&observed).expect("controller step");
    }
    assert!(
        structured_optimal >= oracle_optimal,
        "structured {structured_optimal}/7 Optimal vs oracle {oracle_optimal}/7"
    );
    assert_eq!(structured_optimal, 7);
}

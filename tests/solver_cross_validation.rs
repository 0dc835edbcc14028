//! Property-based cross-validation of the two independent dense oracles
//! in `dspp-oracle`: the Riccati-structured interior point and the dense
//! Mehrotra interior point must agree on randomized stage-structured
//! problems.

use dspp::linalg::{Matrix, Vector};
use dspp::solver::IpmSettings;
use dspp_oracle::{expand, flatten_lq, solve_lq, solve_qp, LqProblem, LqStage, LqTerminal};
use proptest::prelude::*;

/// Builds a random but well-posed DSPP-shaped LQ problem: identity
/// dynamics, linear state costs (prices), PD input costs, a demand floor
/// plus non-negativity at every stage past the first.
fn random_problem(
    n: usize,
    stages: usize,
    prices: &[f64],
    reconfig: &[f64],
    demand: f64,
    x0: &[f64],
) -> LqProblem {
    let price = Vector::from(prices[..n].to_vec());
    let weights = Vector::from(reconfig[..n].to_vec());
    let mut floor = Matrix::zeros(1, n);
    for j in 0..n {
        floor[(0, j)] = -1.0;
    }
    let mut nonneg = Matrix::zeros(n, n);
    for j in 0..n {
        nonneg[(j, j)] = -1.0;
    }
    let free = LqStage::identity_dynamics(n)
        .with_state_cost(price.clone())
        .with_input_penalty(&weights);
    let constrained = free
        .clone()
        .with_constraints(
            floor.clone(),
            Matrix::zeros(1, n),
            Vector::from(vec![-demand]),
        )
        .with_constraints(nonneg, Matrix::zeros(n, n), Vector::zeros(n));
    let mut all = vec![free];
    for _ in 1..stages {
        all.push(constrained.clone());
    }
    LqProblem::new(
        Vector::from(x0[..n].to_vec()),
        all,
        LqTerminal::free(n)
            .with_state_cost(price)
            .with_constraints(floor, Vector::from(vec![-demand])),
    )
    .expect("valid problem")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn structured_and_dense_agree_on_random_problems(
        n in 1usize..4,
        stages in 2usize..5,
        prices in prop::collection::vec(0.1f64..3.0, 4),
        reconfig in prop::collection::vec(0.05f64..1.0, 4),
        demand in 1.0f64..20.0,
        x0 in prop::collection::vec(0.0f64..5.0, 4),
    ) {
        let problem = random_problem(n, stages, &prices, &reconfig, demand, &x0);
        let settings = IpmSettings::default();
        let sol_lq = solve_lq(&problem, &settings).expect("structured solve");
        let flat = flatten_lq(&problem).expect("flatten");
        let sol_qp = solve_qp(&flat.qp, &settings).expect("dense solve");

        // Objectives agree (up to the constant stage-0 offset).
        let dense_obj = sol_qp.objective + flat.offset;
        prop_assert!(
            (sol_lq.objective - dense_obj).abs() <= 1e-4 * (1.0 + dense_obj.abs()),
            "objective mismatch: structured {} vs dense {}",
            sol_lq.objective, dense_obj
        );

        // Trajectories agree.
        let us = flat.extract_inputs(&sol_qp);
        for (k, u) in us.iter().enumerate() {
            prop_assert!(
                (u - &sol_lq.us[k]).norm_inf() < 2e-3,
                "u[{k}] mismatch: {} vs {}", u, sol_lq.us[k]
            );
        }

        // Both are feasible for the original problem.
        let xs = problem.rollout(&sol_lq.us);
        prop_assert!(problem.max_violation(&xs, &sol_lq.us) < 1e-5);
    }
}

#[test]
fn structured_solver_handles_long_horizons() {
    // 40 stages × 6 states: far beyond what the dense path is comfortable
    // with, quick for the Riccati path.
    let prices = [1.0, 2.0, 0.5, 1.5, 0.8, 1.2];
    let reconfig = [0.2; 6];
    let x0 = [0.0; 6];
    let problem = random_problem(6, 40, &prices, &reconfig, 30.0, &x0);
    let sol = solve_lq(&problem, &IpmSettings::default()).expect("solve");
    let xs = problem.rollout(&sol.us);
    assert!(problem.max_violation(&xs, &sol.us) < 1e-5);
    // The demand floor binds: total capability ≈ demand at late stages
    // (cheapest-variable concentration plus floor activity).
    let last = xs.last().expect("non-empty");
    assert!(last.sum() >= 30.0 - 1e-4);
}

#[test]
fn duals_are_consistent_across_solvers() {
    let prices = [1.0, 3.0];
    let reconfig = [0.3, 0.3];
    let x0 = [0.0, 0.0];
    let problem = random_problem(2, 3, &prices, &reconfig, 10.0, &x0);
    let settings = IpmSettings::default();
    let sol_lq = solve_lq(&problem, &settings).expect("structured");
    let flat = flatten_lq(&problem).expect("flatten");
    let sol_qp = solve_qp(&flat.qp, &settings).expect("dense");
    let mut flat_duals = Vec::new();
    for duals in &sol_lq.stage_duals {
        flat_duals.extend(duals.iter().copied());
    }
    assert_eq!(flat_duals.len(), sol_qp.z.len());
    for (i, (a, b)) in flat_duals.iter().zip(sol_qp.z.iter()).enumerate() {
        assert!(
            (a - b).abs() < 1e-3 * (1.0 + b.abs()),
            "dual {i}: {a} vs {b}"
        );
    }
}

#[test]
fn rate_limited_problems_cross_validate_with_input_rows() {
    // Exercises the Cu (input-constraint) path of both solvers: the DSPP
    // horizon with a reconfiguration rate limit flattens to a dense QP with
    // non-zero Cu rows.
    use dspp::core::{Allocation, DsppBuilder, HorizonProblem};

    let problem = DsppBuilder::new(2, 1)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010], vec![0.020]])
        .reconfiguration_weights(vec![0.1, 0.1])
        .price_trace(0, vec![1.0])
        .price_trace(1, vec![2.0])
        .build()
        .expect("spec");
    let x0 = Allocation::zeros(&problem);
    let horizon = HorizonProblem::build_full(
        &problem,
        &x0,
        &[vec![20.0, 40.0, 60.0]],
        &[vec![1.0; 3], vec![2.0; 3]],
        None,
        Some(0.35),
    )
    .expect("horizon");
    let settings = IpmSettings::default();
    let lq = expand(horizon.structured());
    let sol_lq = solve_lq(&lq, &settings).expect("riccati");
    let flat = flatten_lq(&lq).expect("flatten");
    let sol_qp = solve_qp(&flat.qp, &settings).expect("dense");
    // The production path (box rows on the structured KKT system) lands on
    // the same optimum as both dense oracles.
    let sol_structured = horizon.solve(&settings).expect("structured");
    assert!(
        (sol_structured.objective - sol_lq.objective).abs() < 1e-6 * (1.0 + sol_lq.objective.abs()),
        "structured {} vs riccati {}",
        sol_structured.objective,
        sol_lq.objective
    );
    assert!(
        (sol_lq.objective - (sol_qp.objective + flat.offset)).abs() < 1e-4,
        "objective mismatch: {} vs {}",
        sol_lq.objective,
        sol_qp.objective + flat.offset
    );
    // The rate limit binds and is respected by both.
    for (k, u) in sol_lq.us.iter().enumerate() {
        for e in 0..2 {
            assert!(u[e].abs() <= 0.35 + 1e-6, "stage {k}: |u| = {}", u[e].abs());
        }
    }
    let us = flat.extract_inputs(&sol_qp);
    for (k, u) in us.iter().enumerate() {
        assert!(
            (u - &sol_lq.us[k]).norm_inf() < 2e-3,
            "u[{k}] mismatch between solvers"
        );
    }
}

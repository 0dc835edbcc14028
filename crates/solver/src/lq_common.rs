//! Pieces both LQ interior-point methods share — the structured
//! production path (`skkt`) and the dense Riccati oracle (`lq_ipm`): the
//! metrics wrapper, the exit classifier and the step-to-boundary ratio
//! test.

use crate::{IpmSettings, LqSolution, SolveStatus, SolverError};
use dspp_linalg::Vector;
use dspp_telemetry::Recorder;
use std::time::Instant;

/// Shared metrics wrapper for both LQ interior-point paths (the dense
/// Riccati oracle and the structured production path): counts the solve
/// (and warm start), times it, and tallies the outcome status, so the
/// `solver.lq.*` catalogue reads identically whichever path ran.
pub(crate) fn trace_lq_solve(
    telemetry: &Recorder,
    warm: bool,
    solve: impl FnOnce() -> Result<LqSolution, SolverError>,
) -> Result<LqSolution, SolverError> {
    if !telemetry.is_enabled() {
        return solve();
    }
    telemetry.incr("solver.lq.solves", 1);
    if warm {
        telemetry.incr("solver.lq.warm_starts", 1);
    }
    let t0 = Instant::now();
    let result = solve();
    telemetry.observe_duration("solver.lq.solve_seconds", t0.elapsed());
    match &result {
        Ok(sol) => {
            let status = match sol.status {
                SolveStatus::Optimal => "solver.lq.status.optimal",
                SolveStatus::AlmostOptimal => "solver.lq.status.almost_optimal",
            };
            telemetry.incr(status, 1);
            telemetry.observe("solver.lq.iterations", sol.iterations as f64);
        }
        Err(err) => {
            let status = match err {
                SolverError::MaxIterations { .. } => "solver.lq.status.max_iterations",
                SolverError::NumericalFailure(_) => "solver.lq.status.numerical_failure",
                SolverError::Infeasible { .. } => {
                    // Headline series (docs/OBSERVABILITY.md, "Feasibility
                    // and recovery"): certified-infeasible solves.
                    telemetry.incr("solver.infeasible", 1);
                    "solver.lq.status.infeasible"
                }
                _ => "solver.lq.status.invalid_problem",
            };
            telemetry.incr(status, 1);
        }
    }
    result
}

/// Farkas-style exit classification shared by the divergence,
/// step-collapse, and iteration-exhaustion exits.
///
/// `best_violation` is the least-violated iterate's worst row
/// `(slot, row, violation, relative violation)`: if even that iterate left
/// a row violated beyond the loose feasibility tolerance *relative to the
/// row's own right-hand side*, no iterate ever approached the constraint
/// set. (Row-relative scaling matters: a single huge entry elsewhere —
/// e.g. a 1e9 "uncapacitated" sentinel — must not drown out a genuinely
/// violated demand row.) Combined with `diverged` — the step length
/// collapsed, iterates blew up to non-finite values, or the inequality
/// multipliers exceeded `1e6` — this is the practical Farkas certificate:
/// normalizing the huge multipliers makes the cost gradient in the
/// stationarity residual negligible, so they approximately satisfy
/// `Cᵀy ⊥ dynamics, y ≥ 0` while pricing the violated row reported in the
/// error.
pub(crate) fn classify_infeasibility(
    best_violation: (usize, usize, f64, f64),
    settings: &IpmSettings,
    diverged: bool,
) -> Option<SolverError> {
    let loose = 1e4;
    let (period, constraint, shortfall, relative) = best_violation;
    if !diverged || !relative.is_finite() || relative <= loose * settings.tol_feasibility {
        return None;
    }
    Some(SolverError::Infeasible {
        period,
        constraint,
        shortfall,
    })
}

/// Largest `α ≤ 1` keeping every `v + α·dv` non-negative.
pub(crate) fn max_step_multi(vs: &[Vector], dvs: &[Vector]) -> f64 {
    let mut alpha: f64 = 1.0;
    for (v, dv) in vs.iter().zip(dvs) {
        for i in 0..v.len() {
            if dv[i] < 0.0 {
                alpha = alpha.min(-v[i] / dv[i]);
            }
        }
    }
    alpha
}

//! The traced replay of one controller decision.
//!
//! From the controller's checkpoint taken just before a step and the
//! step's outcome, the replay re-issues the public calls `MpcController::step`
//! makes, in order, and times each: `HorizonProblem::build_full` →
//! `preflight` → `solve_warm_traced` or `solve_recovery` →
//! `RoutingPolicy::from_allocation` → `RouterSnapshot::compile_masked`.
//! The replayed first control must equal the executed one bit for bit.

use std::hint::black_box;
use std::time::Instant;

use dspp_core::{
    Allocation, ControllerCheckpoint, CoreError, Dspp, HorizonProblem, RecoverySettings,
    RoutingPolicy, StepOutcome,
};
use dspp_ingest::RouterSnapshot;
use dspp_linalg::Vector;
use dspp_solver::{IpmSettings, SolverError};
use dspp_telemetry::Recorder;

use crate::checks;
use crate::probe::StepRecord;
use crate::run::Samples;

/// How a controller was configured, as the replay needs it.
#[derive(Debug, Clone)]
pub struct ControllerSpec {
    /// The controlled problem.
    pub problem: Dspp,
    /// Prediction horizon `W`.
    pub horizon: usize,
    /// Interior-point settings of every solve.
    pub ipm: IpmSettings,
    /// Recovery (relaxation) settings.
    pub recovery: RecoverySettings,
    /// The capacity schedule installed by the fault plane, if any.
    pub schedule: Option<Vec<Vec<f64>>>,
}

/// Wall times of the replayed calls, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `HorizonProblem::build_full`.
    pub assemble: f64,
    /// `HorizonProblem::preflight`.
    pub preflight: f64,
    /// The strict solve, plus the recovery solve when the decision
    /// recovered.
    pub solve: f64,
    /// `RoutingPolicy::from_allocation`.
    pub route: f64,
    /// `RouterSnapshot::compile_masked` under `alive` (0 without a mask).
    pub compile: f64,
}

/// Replays the decision `outcome` taken from state `before`. With
/// `alive = Some(mask)` the routing is also compiled into the snapshot an
/// ingest front end publishes under that live-DC mask.
///
/// # Errors
///
/// A message when a call fails or the replay disagrees with the executed
/// decision (recovery path taken, first control, or routing).
pub fn replay(
    spec: &ControllerSpec,
    before: &ControllerCheckpoint,
    outcome: &StepOutcome,
    alive: Option<&[bool]>,
) -> Result<LayerTimes, String> {
    let problem = &spec.problem;
    let k = before.period;
    let w = spec.horizon;
    let x0 = Allocation::from_arc_values(problem, before.allocation.clone());
    let prices: Vec<Vec<f64>> = (0..problem.num_dcs())
        .map(|l| (1..=w).map(|t| problem.price(l, k + t)).collect())
        .collect();
    let stage_caps: Option<Vec<Vec<f64>>> = spec.schedule.as_ref().map(|schedule| {
        (0..w)
            .map(|t| {
                schedule
                    .get(k + t)
                    .cloned()
                    .unwrap_or_else(|| problem.capacities().to_vec())
            })
            .collect()
    });
    let warm: Option<Vec<Vector>> = before
        .warm_us
        .as_ref()
        .map(|us| us.iter().map(|u| Vector::from(u.clone())).collect());
    let untraced = Recorder::disabled();
    let err = |stage: &str, e: CoreError| format!("replay of period {k}: {stage} failed: {e}");
    let mut times = LayerTimes::default();

    let start = Instant::now();
    let horizon = HorizonProblem::build_full(
        problem,
        &x0,
        &outcome.predicted_demand,
        &prices,
        stage_caps.as_deref(),
        None,
    )
    .map_err(|e| err("build_full", e))?;
    times.assemble = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let preflight = horizon.preflight().map_err(|e| err("preflight", e))?;
    times.preflight = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let strict = if preflight.is_feasible() {
        match horizon.solve_warm_traced(&spec.ipm, warm.as_deref(), &untraced) {
            Ok(sol) => Some(sol),
            Err(CoreError::Solver(SolverError::Infeasible { .. })) => None,
            Err(e) => return Err(err("solve_warm_traced", e)),
        }
    } else {
        None
    };
    let recovered = strict.is_none();
    let solution = match strict {
        Some(sol) => sol,
        None => {
            horizon
                .solve_recovery(&spec.ipm, &spec.recovery, warm.as_deref(), &untraced)
                .map_err(|e| err("solve_recovery", e))?
                .solution
        }
    };
    times.solve = start.elapsed().as_secs_f64();

    if recovered != outcome.recovery.is_some() {
        return Err(format!(
            "replay of period {k}: recovery path {recovered}, executed {}",
            outcome.recovery.is_some()
        ));
    }
    let replayed = solution.us[0].as_slice();
    let same = replayed.len() == outcome.control.len()
        && replayed
            .iter()
            .zip(&outcome.control)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "replay of period {k}: first control differs from the executed one"
        ));
    }

    let start = Instant::now();
    let routing = RoutingPolicy::from_allocation(problem, &outcome.allocation);
    times.route = start.elapsed().as_secs_f64();
    if routing != outcome.routing {
        return Err(format!("replay of period {k}: routing differs"));
    }

    if let Some(mask) = alive {
        let start = Instant::now();
        let snapshot = RouterSnapshot::compile_masked(problem, &routing, mask, 0);
        times.compile = start.elapsed().as_secs_f64();
        black_box(snapshot);
    }
    Ok(times)
}

/// Exact per-episode tallies of a controller workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Decisions that returned `Ok`.
    pub decisions: u64,
    /// Interior-point iterations they reported.
    pub iterations: u64,
    /// Decisions resolved by a recovery solve.
    pub recoveries: u64,
    /// Allocations made inside the decisions.
    pub allocs: u64,
    /// Realized hosting + reconfiguration cost.
    pub cost: f64,
}

/// Books one wrapped controller step: its timing, its checks against the
/// capacity in force and the demand it observed, and — in traced runs —
/// its replay. Returns the outcome when the step succeeded.
pub fn account_decision(
    samples: &mut Samples,
    tally: &mut Tally,
    spec: &ControllerSpec,
    record: StepRecord,
    forecast_s: f64,
    alive: Option<&[bool]>,
) -> Option<StepOutcome> {
    let recovered = matches!(&record.result, Ok(o) if o.recovery.is_some());
    samples.decide(record.decide_s, recovered);
    samples.layer("predict.forecast", forecast_s * 1e3);
    let outcome = match record.result {
        Ok(outcome) => outcome,
        Err(msg) => {
            samples.checked(Err(msg));
            return None;
        }
    };
    if recovered {
        tally.recoveries += 1;
    }
    let problem = &spec.problem;
    let capacity = spec
        .schedule
        .as_ref()
        .and_then(|s| s.get(outcome.period))
        .map_or_else(|| problem.capacities().to_vec(), Clone::clone);
    let mut verdict = checks::placement(
        problem,
        &checks::unclamped(&record.prior, &outcome.control),
        &outcome.allocation,
        &outcome.routing,
        &capacity,
        &record.observed,
    );
    if let Some(before) = &record.before {
        match replay(spec, before, &outcome, alive) {
            Ok(t) => {
                samples.layer("core.assemble", t.assemble * 1e3);
                samples.layer("solver.solve", t.solve * 1e3);
                samples.layer("core.route", t.route * 1e3);
                let parts = forecast_s + t.assemble + t.preflight + t.solve + t.route;
                samples.layer("core.unattributed", (record.decide_s - parts) * 1e3);
                samples.add("preflight", t.preflight);
                samples.add("compile", t.compile);
            }
            Err(msg) => verdict = verdict.and(Err(msg)),
        }
    }
    samples.checked(verdict);
    tally.decisions += 1;
    tally.iterations += outcome.solver_iterations as u64;
    tally.allocs += record.allocs;
    tally.cost += outcome.step_cost.total();
    Some(outcome)
}

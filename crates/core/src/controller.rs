use crate::policy::guard::validate_observation;
use crate::policy::PlacementPolicy;
use crate::{
    Allocation, CoreError, Decision, Dspp, HorizonProblem, PeriodCost, RecoverySettings,
    RoutingPolicy,
};
use dspp_predict::Predictor;
use dspp_solver::IpmSettings;
use dspp_telemetry::json::{self, JsonValue};
use dspp_telemetry::Recorder;
use std::fmt::Write as _;
use std::time::Instant;

/// Tuning knobs of the MPC controller (Algorithm 1).
#[derive(Debug, Clone)]
pub struct MpcSettings {
    /// Prediction horizon `W` (the paper's `K` in Figures 6, 8–10).
    pub horizon: usize,
    /// Interior-point solver settings for each per-period solve.
    pub ipm: IpmSettings,
    /// Where the controller emits its metrics (`controller.*` and, through
    /// the traced solver calls, `solver.lq.*`). Disabled by default, which
    /// keeps every instrumented path a no-op; see `docs/OBSERVABILITY.md`.
    pub telemetry: Recorder,
    /// How the recovery solve prices unserved demand. Whenever the
    /// preflight or the strict solve certifies a horizon infeasible, the
    /// controller re-solves with slack on the demand/SLA rows and reports
    /// the shortfall instead of failing the step; only a failure of that
    /// relaxation reaches a supervisor as a [`CoreError::Solver`].
    pub recovery: RecoverySettings,
}

impl Default for MpcSettings {
    fn default() -> Self {
        MpcSettings {
            horizon: 5,
            ipm: IpmSettings::default(),
            telemetry: Recorder::disabled(),
            recovery: RecoverySettings::default(),
        }
    }
}

/// What a controller did in one control period.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The control period index `k` this step observed.
    pub period: usize,
    /// New allocation `x_{k+1} = x_k + u_k`.
    pub allocation: Allocation,
    /// Executed control `u_k`, per arc.
    pub control: Vec<f64>,
    /// Routing policy derived from the new allocation (eq. 13).
    pub routing: RoutingPolicy,
    /// Demand forecast the decision was based on, `[location][t]`.
    pub predicted_demand: Vec<Vec<f64>>,
    /// Planned cost of the whole horizon (the solver objective).
    pub planned_objective: f64,
    /// Cost of the executed step: hosting at `k+1` prices + reconfiguration.
    pub step_cost: PeriodCost,
    /// Interior-point iterations spent.
    pub solver_iterations: usize,
    /// `Some` when the strict horizon problem was infeasible and this step
    /// came from the recovery solve instead; carries the demand the
    /// executed placement cannot serve.
    pub recovery: Option<RecoveryInfo>,
    /// True when this step is a degraded hold-last-allocation fallback
    /// (the resilient wrapper exhausted its retries), not a solver
    /// decision. SLO monitors budget these per window.
    pub fallback: bool,
}

/// How much demand a recovered step sheds — the explicit SLA-violation
/// mass a monitor should attribute to this period.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInfo {
    /// Unserved demand per location in the executed period `k+1`, in
    /// demand units.
    pub shortfall: Vec<f64>,
    /// The executed period's shortfall converted to servers — comparable
    /// to the preflight's aggregate capacity deficit.
    pub resource_shortfall: f64,
    /// Per-period server shortfall over the whole planned horizon
    /// (index 0 is the executed period).
    pub horizon_resource_shortfall: Vec<f64>,
}

/// A controller's internal state frozen mid-run, for checkpoint/resume.
///
/// The snapshot is plain data (no trait objects): the period counter, the
/// current allocation's arc values, the observed-demand history per
/// location, and — for warm-started controllers — the shifted horizon
/// solution. Restoring it into a freshly built controller of the same
/// construction reproduces the interrupted run bit-for-bit, because every
/// solve in this workspace is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerCheckpoint {
    /// Period counter `k` (how many steps have executed).
    pub period: usize,
    /// Arc values of the current allocation `x_k`.
    pub allocation: Vec<f64>,
    /// Observed demand history, `[location][period]`. Empty for
    /// controllers that keep no history.
    pub history: Vec<Vec<f64>>,
    /// Warm-start inputs (the previous solution shifted one stage), per
    /// horizon stage; `None` when cold or not warm-started.
    pub warm_us: Option<Vec<Vec<f64>>>,
}

impl ControllerCheckpoint {
    /// Appends the checkpoint as one JSON object — the `controller_state`
    /// member of the sim and ingest checkpoint documents. Floats use the
    /// lossless [`json::push_f64`] encoding.
    pub fn push_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"period\":{},\"allocation\":", self.period);
        json::push_f64_array(out, &self.allocation);
        out.push_str(",\"history\":");
        json::push_f64_matrix(out, &self.history);
        out.push_str(",\"warm_us\":");
        json::push_f64_matrix_or_null(out, self.warm_us.as_deref());
        out.push('}');
    }

    /// Reads an object written by [`ControllerCheckpoint::push_json`].
    ///
    /// # Errors
    ///
    /// A message naming the missing or mistyped field.
    pub fn from_json_value(v: &JsonValue) -> Result<ControllerCheckpoint, String> {
        Ok(ControllerCheckpoint {
            period: json::field_usize(v, "period")?,
            allocation: json::field_with(v, "allocation", json::parse_f64_array)?,
            history: json::field_with(v, "history", json::parse_f64_matrix)?,
            warm_us: json::field_with(v, "warm_us", json::parse_f64_matrix_or_null)?,
        })
    }
}

/// The paper's Algorithm 1: Model Predictive Control for the DSPP.
///
/// At each period `k` the controller
/// 1. records the observed demand `D_k`,
/// 2. asks its [`Predictor`] for `D_{k+1|k} … D_{k+W|k}`,
/// 3. solves the horizon problem from the current state `x_k`,
/// 4. executes only the first control `u_{k|k}`, and
/// 5. refreshes the request routers' proportional weights (eq. 13).
///
/// See the crate-level example.
pub struct MpcController {
    problem: Dspp,
    predictor: Box<dyn Predictor>,
    price_predictor: Option<Box<dyn Predictor>>,
    settings: MpcSettings,
    state: Allocation,
    history: Vec<Vec<f64>>,
    period: usize,
    /// Previous horizon solution's inputs, shifted one stage — the warm
    /// start for the next solve.
    warm_us: Option<Vec<dspp_linalg::Vector>>,
    /// Time-varying capacity schedule `[period][dc]` installed by the
    /// infrastructure fault plane; `None` keeps the problem's nominal
    /// capacities (the fast path).
    capacity_schedule: Option<Vec<Vec<f64>>>,
}

impl std::fmt::Debug for MpcController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpcController")
            .field("period", &self.period)
            .field("horizon", &self.settings.horizon)
            .field("predictor", &self.predictor.name())
            .finish_non_exhaustive()
    }
}

impl MpcController {
    /// Creates a controller starting from the all-zero allocation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] for a zero horizon or invalid IPM
    /// settings.
    pub fn new(
        problem: Dspp,
        predictor: Box<dyn Predictor>,
        settings: MpcSettings,
    ) -> Result<Self, CoreError> {
        if settings.horizon == 0 {
            return Err(CoreError::InvalidSpec("horizon must be positive".into()));
        }
        settings.ipm.validate().map_err(CoreError::InvalidSpec)?;
        let state = Allocation::zeros(&problem);
        let history = vec![Vec::new(); problem.num_locations()];
        Ok(MpcController {
            problem,
            predictor,
            price_predictor: None,
            settings,
            state,
            history,
            period: 0,
            warm_us: None,
            capacity_schedule: None,
        })
    }

    /// Installs a time-varying capacity schedule `[period][dc]`: the
    /// horizon stage deciding the allocation for period `k + t` is
    /// constrained by `schedule[k + t]` (periods past the schedule's end
    /// fall back to nominal capacity). This is how the fault plane's
    /// datacenter outages and degradations reach the solver — the
    /// preflight → recovery ladder then sheds exactly the deficit the
    /// lost capacity creates.
    pub fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        self.capacity_schedule = Some(schedule);
    }

    /// Forecasts future prices with the given predictor instead of reading
    /// them from the problem's posted traces.
    ///
    /// By default the controller treats the problem's price traces as
    /// *posted* (known in advance — the common cloud-billing situation).
    /// With a price predictor, only prices up to the current period are
    /// observed and the future is forecast, exactly as the paper's
    /// analysis-and-prediction module does for spot-market prices. This is
    /// what makes long horizons risky in the Figure 9 experiment.
    pub fn with_price_predictor(mut self, predictor: Box<dyn Predictor>) -> Self {
        self.price_predictor = Some(predictor);
        self
    }

    /// The current period index.
    pub fn period(&self) -> usize {
        self.period
    }

    /// The configured horizon.
    pub fn horizon(&self) -> usize {
        self.settings.horizon
    }

    /// Freezes the controller's full mutable state. See
    /// [`PlacementPolicy::checkpoint`].
    pub fn checkpoint(&self) -> ControllerCheckpoint {
        ControllerCheckpoint {
            period: self.period,
            allocation: self.state.arc_values().to_vec(),
            history: self.history.clone(),
            warm_us: self
                .warm_us
                .as_ref()
                .map(|us| us.iter().map(|u| u.as_slice().to_vec()).collect()),
        }
    }

    /// Restores state frozen by [`MpcController::checkpoint`]. The
    /// controller must have been built with the same problem, predictor
    /// and settings for the resumed run to be meaningful.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when any dimension of the
    /// snapshot disagrees with this controller's problem or horizon.
    pub fn restore(&mut self, ck: &ControllerCheckpoint) -> Result<(), CoreError> {
        let ne = self.problem.num_arcs();
        let nv = self.problem.num_locations();
        if ck.allocation.len() != ne {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint allocation has {} arcs, problem has {ne}",
                ck.allocation.len()
            )));
        }
        if ck.history.len() != nv {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint history has {} locations, problem has {nv}",
                ck.history.len()
            )));
        }
        if let Some(us) = &ck.warm_us {
            if us.len() != self.settings.horizon || us.iter().any(|u| u.len() != ne) {
                return Err(CoreError::InvalidSpec(format!(
                    "checkpoint warm start must be {} vectors of {ne} arcs",
                    self.settings.horizon
                )));
            }
        }
        self.period = ck.period;
        self.state = Allocation::from_arc_values(&self.problem, ck.allocation.clone());
        self.history = ck.history.clone();
        self.warm_us = ck
            .warm_us
            .as_ref()
            .map(|us| us.iter().map(|u| u.clone().into()).collect());
        Ok(())
    }

    /// One MPC step. See [`PlacementPolicy::step`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidSpec`] if `observed_demand` has the wrong
    ///   length or a negative/non-finite entry.
    /// * [`CoreError::PredictorShape`] if the predictor misbehaves.
    /// * [`CoreError::Solver`] if the horizon problem cannot be solved.
    pub fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        validate_observation(&self.problem, observed_demand)?;
        for (v, &d) in observed_demand.iter().enumerate() {
            self.history[v].push(d);
        }
        let result = self.solve_step();
        if result.is_err() {
            // Roll the observation back so a supervisor can retry the same
            // period (or acknowledge a fallback via `note_fallback`)
            // without duplicating history entries.
            for h in &mut self.history {
                h.pop();
            }
        }
        result
    }

    /// The solve half of [`MpcController::step`]: input validation has
    /// passed and the observation is already appended to the history.
    fn solve_step(&mut self) -> Result<StepOutcome, CoreError> {
        let telemetry = self.settings.telemetry.clone();
        let mut span = telemetry.tracer().span("controller.step");
        span.attr("period", self.period);
        span.attr("horizon", self.settings.horizon);
        span.attr("warm_start", self.warm_us.is_some());
        let t_step = telemetry.is_enabled().then(Instant::now);
        let nv = self.problem.num_locations();
        let w = self.settings.horizon;
        let forecast = self.predictor.forecast_all(&self.history, w);
        if forecast.len() != nv || forecast.iter().any(|f| f.len() != w) {
            return Err(CoreError::PredictorShape(format!(
                "expected {nv} series of {w} steps"
            )));
        }
        for (v, series) in forecast.iter().enumerate() {
            if series.iter().any(|d| !(d.is_finite() && *d >= 0.0)) {
                return Err(CoreError::PredictorShape(format!(
                    "series {v} contains negative or non-finite forecasts"
                )));
            }
        }

        // Prices for periods k+1 .. k+W: posted traces by default, or a
        // forecast from observed history when a price predictor is set.
        let prices: Vec<Vec<f64>> = match &self.price_predictor {
            None => (0..self.problem.num_dcs())
                .map(|l| {
                    (1..=w)
                        .map(|t| self.problem.price(l, self.period + t))
                        .collect()
                })
                .collect(),
            Some(pp) => {
                let price_history: Vec<Vec<f64>> = (0..self.problem.num_dcs())
                    .map(|l| {
                        (0..=self.period)
                            .map(|t| self.problem.price(l, t))
                            .collect()
                    })
                    .collect();
                let forecast = pp.forecast_all(&price_history, w);
                if forecast.len() != self.problem.num_dcs() || forecast.iter().any(|f| f.len() != w)
                {
                    return Err(CoreError::PredictorShape(
                        "price predictor returned wrong shape".into(),
                    ));
                }
                forecast
            }
        };

        // Stage t decides the allocation for period k + t: constrain it
        // with that period's scheduled capacity when a fault-plane
        // schedule is installed.
        let stage_caps: Option<Vec<Vec<f64>>> = self.capacity_schedule.as_ref().map(|schedule| {
            (0..w)
                .map(|t| match schedule.get(self.period + t) {
                    Some(row) => row.clone(),
                    None => self.problem.capacities().to_vec(),
                })
                .collect()
        });
        let horizon = HorizonProblem::build_full(
            &self.problem,
            &self.state,
            &forecast,
            &prices,
            stage_caps.as_deref(),
            None,
        )?;
        telemetry.incr(
            if self.warm_us.is_some() {
                "controller.warm_start.hit"
            } else {
                "controller.warm_start.miss"
            },
            1,
        );
        let t_solve = telemetry.is_enabled().then(Instant::now);
        let decision = horizon.solve_or_recover(
            &self.settings.ipm,
            &self.settings.recovery,
            self.warm_us.as_deref(),
            None,
            &telemetry,
        )?;
        let (sol, recovery_info) = match decision {
            Decision::Strict(sol) => (sol, None),
            Decision::Recovered {
                outcome: out,
                preflight_deficit,
            } => {
                if preflight_deficit {
                    telemetry.incr("controller.preflight_infeasible", 1);
                }
                telemetry.incr("controller.recovery_solves", 1);
                telemetry.observe("controller.sla_shortfall", out.resource_shortfall[0]);
                if span.is_enabled() {
                    span.attr("recovered", true);
                    span.attr("sla_shortfall", out.resource_shortfall[0]);
                }
                let info = RecoveryInfo {
                    shortfall: out.demand_slack[0].clone(),
                    resource_shortfall: out.resource_shortfall[0],
                    horizon_resource_shortfall: out.resource_shortfall.clone(),
                };
                (out.solution, Some(info))
            }
        };
        if let Some(t) = t_solve {
            telemetry.observe_duration("controller.solve_seconds", t.elapsed());
        }
        // Next period's warm start: this solution shifted by one stage.
        let mut shifted: Vec<dspp_linalg::Vector> = sol.us[1..].to_vec();
        shifted.push(dspp_linalg::Vector::zeros(self.problem.num_arcs()));
        self.warm_us = Some(shifted);

        if span.is_enabled() {
            span.attr("solver_iterations", sol.iterations);
            span.attr("planned_objective", sol.objective);
        }

        let u: Vec<f64> = sol.us[0].as_slice().to_vec();
        let mut new_values = self.state.arc_values().to_vec();
        for (xv, du) in new_values.iter_mut().zip(&u) {
            // Clamp the tiny negative values interior-point solutions carry.
            *xv = (*xv + du).max(0.0);
        }
        let allocation = Allocation::from_arc_values(&self.problem, new_values);
        let routing = RoutingPolicy::from_allocation(&self.problem, &allocation);
        let step_cost = PeriodCost::compute(&self.problem, &allocation, &u, self.period + 1);

        self.state = allocation.clone();
        self.period += 1;

        if telemetry.is_enabled() {
            telemetry.incr("controller.steps", 1);
            telemetry.gauge("controller.horizon", w as f64);
            telemetry.observe(
                "controller.applied_u_l1",
                u.iter().map(|v| v.abs()).sum::<f64>(),
            );
            if let Some(t) = t_step {
                telemetry.observe_duration("controller.step_seconds", t.elapsed());
            }
        }
        if span.is_enabled() {
            span.attr("applied_u_l1", u.iter().map(|v| v.abs()).sum::<f64>());
            span.attr("step_cost", step_cost.total());
        }

        Ok(StepOutcome {
            period: self.period - 1,
            allocation,
            control: u,
            routing,
            predicted_demand: forecast,
            planned_objective: sol.objective,
            step_cost,
            solver_iterations: sol.iterations,
            recovery: recovery_info,
            fallback: false,
        })
    }
}

impl PlacementPolicy for MpcController {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        MpcController::step(self, observed_demand)
    }

    fn allocation(&self) -> &Allocation {
        &self.state
    }

    fn problem(&self) -> &Dspp {
        &self.problem
    }

    fn name(&self) -> &str {
        "mpc"
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.settings.telemetry = telemetry;
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        Some(MpcController::checkpoint(self))
    }

    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        MpcController::restore(self, checkpoint)
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        // The observation was real even though the solve was skipped, and
        // wall-clock time moved on: record both so the next solve predicts
        // from the full history and prices the right period. The previous
        // shifted solution no longer matches the state, so drop it.
        if observed_demand.len() == self.history.len() {
            for (v, &d) in observed_demand.iter().enumerate() {
                self.history[v].push(d);
            }
        }
        self.period += 1;
        self.warm_us = None;
    }

    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        MpcController::set_capacity_schedule(self, schedule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsppBuilder;
    use dspp_predict::{LastValue, OraclePredictor};

    fn problem() -> Dspp {
        priced_problem(1.0)
    }

    /// One data center serving one location, hosting priced at `price`.
    fn priced_problem(price: f64) -> Dspp {
        DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![0.02])
            .price_trace(0, vec![price])
            .build()
            .unwrap()
    }

    /// `c` moved to the allocation `x0`, as a resumed run would start.
    fn starting_from(mut c: MpcController, x0: &Allocation) -> MpcController {
        let mut ck = c.checkpoint();
        ck.allocation = x0.arc_values().to_vec();
        c.restore(&ck).unwrap();
        c
    }

    #[test]
    fn tracks_demand_with_oracle() {
        let demand = vec![vec![40.0, 80.0, 120.0, 80.0, 40.0, 40.0]];
        let mut c = MpcController::new(
            problem(),
            Box::new(OraclePredictor::new(demand.clone())),
            MpcSettings {
                horizon: 3,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let a = problem().arc_coeff(0);
        let mut allocations = Vec::new();
        for (k, &d) in demand[0].iter().enumerate().take(5) {
            let out = c.step(&[d]).unwrap();
            allocations.push(out.allocation.total());
            // Allocation must cover the next period's (oracle) demand.
            assert!(
                out.allocation.total() >= a * demand[0][k + 1] - 1e-4,
                "period {k}: {} < {}",
                out.allocation.total(),
                a * demand[0][k + 1]
            );
        }
        // Allocation rises into the peak and falls off it.
        assert!(allocations[1] > allocations[0]);
        assert!(allocations[4] < allocations[2]);
    }

    #[test]
    fn respects_capacity() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 1.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        // Demand requiring ≤ 1 server: fine, no recovery involved.
        let ok_demand = 0.9 / a;
        let mut c = MpcController::new(
            p.clone(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let out = c.step(&[ok_demand]).unwrap();
        assert!(out.allocation.total() <= 1.0 + 1e-6);
        assert!(out.recovery.is_none());
        // Demand requiring 2 servers against capacity 1: the default
        // controller recovers, keeps the placement within capacity, and
        // reports the missing server as shortfall.
        let mut c = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let out = c.step(&[2.0 / a]).unwrap();
        assert!(out.allocation.total() <= 1.0 + 1e-6);
        let info = out.recovery.expect("overloaded step must be recovered");
        assert!(
            (info.resource_shortfall - 1.0).abs() < 1e-5,
            "shortfall {} servers, expected 1",
            info.resource_shortfall
        );
        assert!((info.shortfall[0] - 1.0 / a).abs() < 1e-3 / a);
    }

    #[test]
    fn input_validation() {
        let mut c =
            MpcController::new(problem(), Box::new(LastValue), MpcSettings::default()).unwrap();
        assert!(c.step(&[1.0, 2.0]).is_err());
        assert!(c.step(&[-1.0]).is_err());
        assert!(c.step(&[f64::NAN]).is_err());
        // Valid input still works afterwards.
        assert!(c.step(&[10.0]).is_ok());
    }

    #[test]
    fn zero_horizon_rejected() {
        let err = MpcController::new(
            problem(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 0,
                ..MpcSettings::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
    }

    #[test]
    fn telemetry_counts_steps_and_warm_starts() {
        let telemetry = Recorder::enabled();
        let demand = vec![vec![40.0, 80.0, 120.0, 80.0, 40.0, 40.0]];
        let mut c = MpcController::new(
            problem(),
            Box::new(OraclePredictor::new(demand.clone())),
            MpcSettings {
                horizon: 3,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        for &d in demand[0].iter().take(4) {
            c.step(&[d]).unwrap();
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("controller.steps"), 4);
        // First period has no previous solution to shift; the rest do.
        assert_eq!(snap.counter("controller.warm_start.miss"), 1);
        assert_eq!(snap.counter("controller.warm_start.hit"), 3);
        assert_eq!(snap.gauge("controller.horizon"), Some(3.0));
        assert_eq!(snap.histogram("controller.step_seconds").unwrap().count, 4);
        assert_eq!(snap.histogram("controller.solve_seconds").unwrap().count, 4);
        assert_eq!(snap.histogram("controller.applied_u_l1").unwrap().count, 4);
        // The traced solver path reports through the same recorder.
        assert_eq!(snap.counter("solver.lq.solves"), 4);
        assert!(snap.histogram("solver.lq.iterations").unwrap().sum > 0.0);
    }

    #[test]
    fn recovery_emits_telemetry() {
        let telemetry = Recorder::enabled();
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 1.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let mut c = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        c.step(&[0.5 / a]).unwrap();
        c.step(&[3.0 / a]).unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("controller.steps"), 2);
        assert_eq!(snap.counter("controller.preflight_infeasible"), 1);
        assert_eq!(snap.counter("controller.recovery_solves"), 1);
        let shortfall = snap.histogram("controller.sla_shortfall").unwrap();
        assert_eq!(shortfall.count, 1);
        // 3 servers needed, 1 exists: 2 servers of shortfall recorded.
        assert!((shortfall.sum - 2.0).abs() < 1e-5, "sum {}", shortfall.sum);
    }

    #[test]
    fn controller_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        // One server of capacity: a cold first step and two warm ones fit,
        // then demand for three servers fails the preflight and the
        // recovery solve serves it short.
        let telemetry = Recorder::enabled();
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 1.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let mut c = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        for servers in [0.5, 0.6, 0.7, 3.0] {
            c.step(&[servers / a]).unwrap();
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("controller.warm_start.miss"), 1);
        assert_eq!(snap.counter("controller.warm_start.hit"), 3);
        assert_eq!(snap.counter("controller.recovery_solves"), 1);
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("controller."))
            .collect();
        // The rows of the `controller.*` table in OBSERVABILITY.md.
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `controller.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the controller.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|line| line.split('`').next())
            .collect();
        assert_eq!(
            emitted, documented,
            "emitted vs documented controller.* metrics"
        );
    }

    #[test]
    fn step_cost_accounts_hosting_and_reconfig() {
        let mut c = MpcController::new(
            problem(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let out = c.step(&[50.0]).unwrap();
        let x = out.allocation.total();
        let u = out.control[0];
        assert!((out.step_cost.hosting - x).abs() < 1e-9); // price 1.0
        assert!((out.step_cost.reconfiguration - 0.02 * u * u).abs() < 1e-9);
    }

    #[test]
    fn warm_start_matches_cold_start_solutions() {
        // Two identical controllers — one freshly constructed each period
        // (cold), one persistent (warm from period 1 on) — must produce the
        // same closed-loop allocations. Priced at one, each solve starts
        // its duals at the unit cap; priced at the paper instance's scale,
        // at the price itself.
        let demand = vec![vec![30.0, 60.0, 90.0, 70.0, 40.0, 30.0, 30.0]];
        for price in [1.0, 0.004] {
            let mut warm = MpcController::new(
                priced_problem(price),
                Box::new(OraclePredictor::new(demand.clone())),
                MpcSettings {
                    horizon: 4,
                    ..MpcSettings::default()
                },
            )
            .unwrap();
            let mut cold_state = Allocation::zeros(&priced_problem(price));
            for k in 0..5 {
                let out_warm = warm.step(&[demand[0][k]]).unwrap();
                // Cold reference: fresh controller seeded with the same
                // state and history.
                let mut cold = starting_from(
                    MpcController::new(
                        priced_problem(price),
                        Box::new(OraclePredictor::new(vec![demand[0][k..].to_vec()])),
                        MpcSettings {
                            horizon: 4,
                            ..MpcSettings::default()
                        },
                    )
                    .unwrap(),
                    &cold_state,
                );
                let out_cold = cold.step(&[demand[0][k]]).unwrap();
                let diff: f64 = out_warm
                    .allocation
                    .arc_values()
                    .iter()
                    .zip(out_cold.allocation.arc_values())
                    .map(|(a, b)| (a - b).abs())
                    .sum();
                assert!(
                    diff < 1e-4,
                    "price {price}, period {k}: warm/cold diverged by {diff}"
                );
                cold_state = out_cold.allocation;
            }
        }
    }

    #[test]
    fn price_predictor_changes_planning() {
        // A problem whose posted trace crashes to a price of 0.01 from
        // period 3 on; a persistence price-forecast cannot see that, so the
        // two controllers provision differently only through prices.
        let mk = |with_pred: bool| {
            let p = DsppBuilder::new(1, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010]])
                .reconfiguration_weights(vec![0.02])
                .price_trace(0, vec![5.0, 5.0, 5.0, 0.01, 0.01, 0.01])
                .build()
                .unwrap();
            let c = MpcController::new(
                p,
                Box::new(OraclePredictor::new(vec![vec![50.0; 6]])),
                MpcSettings {
                    horizon: 4,
                    ..MpcSettings::default()
                },
            )
            .unwrap();
            if with_pred {
                c.with_price_predictor(Box::new(LastValue))
            } else {
                c
            }
        };
        // Both must run; the posted-trace controller sees the future crash.
        let mut posted = mk(false);
        let mut forecast = mk(true);
        let a = posted.step(&[50.0]).unwrap();
        let b = forecast.step(&[50.0]).unwrap();
        // Identical demand, identical current state: allocations exist and
        // are positive either way.
        assert!(a.allocation.total() > 0.0);
        assert!(b.allocation.total() > 0.0);
    }

    #[test]
    fn checkpoint_resume_reproduces_uninterrupted_run() {
        let demand = vec![vec![30.0, 60.0, 90.0, 70.0, 40.0, 30.0, 30.0]];
        let mk = || {
            MpcController::new(
                problem(),
                Box::new(OraclePredictor::new(demand.clone())),
                MpcSettings {
                    horizon: 4,
                    ..MpcSettings::default()
                },
            )
            .unwrap()
        };
        let mut straight = mk();
        let mut interrupted = mk();
        for &d in &demand[0][..3] {
            let a = straight.step(&[d]).unwrap();
            let b = interrupted.step(&[d]).unwrap();
            assert_eq!(a.allocation, b.allocation);
        }
        // Freeze, rebuild from scratch, restore, and continue side by side.
        let ck = interrupted.checkpoint();
        let mut resumed = mk();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.period(), 3);
        for (k, &d) in demand[0].iter().enumerate().take(6).skip(3) {
            let a = straight.step(&[d]).unwrap();
            let b = resumed.step(&[d]).unwrap();
            assert_eq!(
                a.allocation, b.allocation,
                "period {k}: resumed run diverged"
            );
            assert_eq!(a.control, b.control);
            assert_eq!(a.step_cost, b.step_cost);
        }
    }

    #[test]
    fn restore_rejects_mismatched_checkpoint() {
        let mut c =
            MpcController::new(problem(), Box::new(LastValue), MpcSettings::default()).unwrap();
        let mut ck = c.checkpoint();
        ck.allocation.push(1.0);
        assert!(matches!(c.restore(&ck), Err(CoreError::InvalidSpec(_))));
        let mut ck = c.checkpoint();
        ck.history.clear();
        assert!(matches!(c.restore(&ck), Err(CoreError::InvalidSpec(_))));
        let mut ck = c.checkpoint();
        ck.warm_us = Some(vec![vec![0.0]; 3]); // horizon is 5
        assert!(matches!(c.restore(&ck), Err(CoreError::InvalidSpec(_))));
    }

    /// Forecasts the last observation, like `LastValue`, but returns NaN
    /// for a series whose last observation exceeds the limit: a predictor
    /// that fails on out-of-range input.
    struct FailsAbove(f64);

    impl Predictor for FailsAbove {
        fn forecast_all(&self, histories: &[Vec<f64>], horizon: usize) -> Vec<Vec<f64>> {
            histories
                .iter()
                .map(|h| {
                    let last = h.last().copied().unwrap_or(0.0);
                    vec![if last > self.0 { f64::NAN } else { last }; horizon]
                })
                .collect()
        }

        fn name(&self) -> &str {
            "fails-above"
        }
    }

    #[test]
    fn failed_step_rolls_back_history_and_fallback_advances_period() {
        // The second observation is one the predictor cannot forecast, so
        // the step fails after the observation was appended; the history
        // must not keep duplicate entries across retries, and
        // `note_fallback` must advance the clock.
        let p = problem();
        let a = p.arc_coeff(0);
        let mut c = MpcController::new(
            p,
            Box::new(FailsAbove(1.0 / a)),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        c.step(&[0.5 / a]).unwrap();
        let overload = 5.0 / a;
        for _ in 0..3 {
            assert!(c.step(&[overload]).is_err());
        }
        let ck = c.checkpoint();
        assert_eq!(
            ck.history[0].len(),
            1,
            "failed retries must not grow the history"
        );
        assert_eq!(ck.period, 1);
        PlacementPolicy::note_fallback(&mut c, &[overload]);
        let ck = c.checkpoint();
        assert_eq!(ck.history[0], vec![0.5 / a, overload]);
        assert_eq!(ck.period, 2);
        assert!(ck.warm_us.is_none(), "fallback must drop the warm start");
        // The controller keeps working after the fallback.
        assert!(c.step(&[0.5 / a]).is_ok());
    }

    #[test]
    fn capacity_schedule_constrains_and_releases_the_solve() {
        // Capacity 4 servers, demand needing 2: feasible nominally. An
        // outage window (scheduled capacity 0.5) for periods 1..3 forces
        // recovery with a 1.5-server deficit; the window closing restores
        // strict feasibility.
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 4.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let demand = 2.0 / a;
        let mut c = MpcController::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        MpcController::set_capacity_schedule(
            &mut c,
            vec![vec![4.0], vec![0.5], vec![0.5], vec![4.0]],
        );
        // Period 0 executes at nominal capacity, though the lookahead
        // already sees the window at stage 1: the executed-period
        // shortfall must be zero either way.
        let out = c.step(&[demand]).unwrap();
        if let Some(info) = &out.recovery {
            assert!(info.resource_shortfall < 1e-5, "period 0 executes nominal");
        }
        for k in 1..3 {
            let out = c.step(&[demand]).unwrap();
            let info = out
                .recovery
                .unwrap_or_else(|| panic!("period {k} must recover"));
            assert!(
                (info.resource_shortfall - 1.5).abs() < 1e-5,
                "period {k}: shortfall {} servers, expected 1.5",
                info.resource_shortfall
            );
            assert!(out.allocation.total() <= 0.5 + 1e-6);
        }
        // Window closed (and periods past the schedule fall back to
        // nominal): strict solves resume.
        for _ in 3..6 {
            let out = c.step(&[demand]).unwrap();
            assert!(out.recovery.is_none());
        }
    }

    #[test]
    fn longer_horizon_smooths_controls() {
        // Spiky demand; compare max |u| for W=1 vs W=6 — the paper's
        // Figure 6 effect.
        let demand: Vec<f64> = (0..12)
            .map(|k| if k % 4 == 2 { 120.0 } else { 20.0 })
            .collect();
        let truth = vec![demand.clone()];
        let run = |w: usize| {
            let mut c = MpcController::new(
                DsppBuilder::new(1, 1)
                    .service_rate(100.0)
                    .sla_latency(0.060)
                    .latency_rows(vec![vec![0.010]])
                    .reconfiguration_weights(vec![1.0])
                    .price_trace(0, vec![0.05])
                    .build()
                    .unwrap(),
                Box::new(OraclePredictor::new(truth.clone())),
                MpcSettings {
                    horizon: w,
                    ..MpcSettings::default()
                },
            )
            .unwrap();
            let mut max_u: f64 = 0.0;
            for &d in demand.iter().take(11) {
                let out = c.step(&[d]).unwrap();
                max_u = max_u.max(out.control.iter().fold(0.0f64, |m, &u| m.max(u.abs())));
            }
            max_u
        };
        let sharp = run(1);
        let smooth = run(6);
        assert!(
            smooth < sharp,
            "W=6 max|u| {smooth} should be below W=1 {sharp}"
        );
    }
}

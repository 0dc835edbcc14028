use crate::{evaluate_sla, Monitor, SimCheckpoint, SlaReport};
use dspp_core::{CoreError, CostLedger, PlacementPolicy};
use dspp_telemetry::{Recorder, SloEngine, SloSample, SloTransition};
use std::time::Instant;

/// One period of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPeriod {
    /// Period index `k` (the allocation recorded here served period `k+1`).
    pub period: usize,
    /// Demand the controller observed at `k`.
    pub observed_demand: Vec<f64>,
    /// Demand realized in period `k+1` (what the new allocation faced).
    pub realized_demand: Vec<f64>,
    /// Servers per data center after the step.
    pub per_dc: Vec<f64>,
    /// Total servers after the step.
    pub total_servers: f64,
    /// Executed reconfiguration magnitude `‖u‖₁`.
    pub reconfig_magnitude: f64,
    /// Hosting + reconfiguration cost of the step.
    pub cost: dspp_core::PeriodCost,
    /// Analytic SLA evaluation against the realized demand.
    pub sla: SlaReport,
    /// Demand (in server units) the controller knowingly left unserved
    /// because the period was infeasible and a recovery solve ran; `0.0`
    /// for strict-feasible periods.
    pub sla_shortfall: f64,
}

/// Result of a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Per-period records (length `K − 1` for a `K`-period trace).
    pub periods: Vec<SimPeriod>,
    /// Accumulated cost ledger (the objective `J`).
    pub ledger: CostLedger,
    /// Name of the controller that produced the run.
    pub controller: String,
}

impl SimReport {
    /// Periods in which some loaded arc violated the SLA.
    pub fn violation_periods(&self) -> usize {
        self.periods
            .iter()
            .filter(|p| p.sla.violated_arcs > 0)
            .count()
    }

    /// Periods resolved by a recovery (soft-constraint) solve rather than
    /// the strict horizon QP.
    pub fn recovery_periods(&self) -> usize {
        self.periods
            .iter()
            .filter(|p| p.sla_shortfall > 0.0)
            .count()
    }

    /// Total server-units of demand left unserved across the run by
    /// recovery solves.
    pub fn total_sla_shortfall(&self) -> f64 {
        self.periods.iter().map(|p| p.sla_shortfall).sum()
    }

    /// Total servers per period.
    pub fn total_series(&self) -> Vec<f64> {
        self.periods.iter().map(|p| p.total_servers).collect()
    }

    /// Largest single-period reconfiguration seen.
    pub fn max_reconfig(&self) -> f64 {
        self.periods
            .iter()
            .map(|p| p.reconfig_magnitude)
            .fold(0.0, f64::max)
    }
}

/// The closed-loop (fluid) simulator: controller vs. realized demand trace.
///
/// At period `k` the controller observes `demand[·][k]`, decides the
/// allocation for `k+1`, and the simulator scores that allocation against
/// the demand *actually realized* at `k+1` — so prediction errors show up
/// as SLA violations and excess cost, exactly as in the paper's
/// experiments.
pub struct ClosedLoopSim {
    controller: Box<dyn PlacementPolicy>,
    demand: Vec<Vec<f64>>,
    telemetry: Recorder,
    /// Next period index `k` to execute (`0 ..= total_steps()`).
    cursor: usize,
    /// Per-period records executed so far.
    periods: Vec<SimPeriod>,
    ledger: CostLedger,
    /// Demand anomaly monitor (Figure 2's monitoring module): only driven
    /// when telemetry is on — the controller's own predictor guard runs
    /// its own monitor regardless.
    monitor: Option<Monitor>,
    /// SLO/burn-rate engine fed one sample per executed period; absent in
    /// plain figure runs so deterministic outputs stay byte-identical.
    slos: Option<SloEngine>,
}

impl ClosedLoopSim {
    /// Creates a simulation over the `[location][period]` demand trace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the trace shape does not match
    /// the controller's problem or has fewer than two periods.
    pub fn new(
        controller: Box<dyn PlacementPolicy>,
        demand: Vec<Vec<f64>>,
    ) -> Result<Self, CoreError> {
        let nv = controller.problem().num_locations();
        if demand.len() != nv {
            return Err(CoreError::InvalidSpec(format!(
                "demand has {} locations, problem has {nv}",
                demand.len()
            )));
        }
        let periods = demand.first().map_or(0, Vec::len);
        if periods < 2 {
            return Err(CoreError::InvalidSpec(
                "need at least two demand periods".into(),
            ));
        }
        if demand.iter().any(|d| d.len() != periods) {
            return Err(CoreError::InvalidSpec("ragged demand trace".into()));
        }
        Ok(ClosedLoopSim {
            controller,
            demand,
            telemetry: Recorder::disabled(),
            cursor: 0,
            periods: Vec::with_capacity(periods - 1),
            ledger: CostLedger::new(),
            monitor: None,
            slos: None,
        })
    }

    /// Emits `sim.*` metrics (periods, step latency, SLA violations,
    /// anomaly flags, reconfiguration magnitudes) to `telemetry` during
    /// stepping. Disabled by default; see `docs/OBSERVABILITY.md`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.monitor = telemetry
            .is_enabled()
            .then(|| Monitor::new(self.demand.len(), 0.3, 4.0));
        self.telemetry = telemetry;
        self
    }

    /// Attaches an SLO/burn-rate engine: every executed period feeds it
    /// one [`SloSample`] (step latency, SLA-shortfall mass, fallback and
    /// recovery flags), and alert transitions surface via
    /// [`slo_transitions`](ClosedLoopSim::slo_transitions). A checkpoint
    /// restore on the same sim keeps the engine's windows intact — no
    /// period is replayed.
    pub fn with_slos(mut self, engine: SloEngine) -> Self {
        self.slos = Some(engine);
        self
    }

    /// The attached SLO engine, when [`with_slos`](ClosedLoopSim::with_slos)
    /// was used.
    pub fn slo_engine(&self) -> Option<&SloEngine> {
        self.slos.as_ref()
    }

    /// Alert transitions the SLO engine has emitted so far (empty without
    /// an attached engine).
    pub fn slo_transitions(&self) -> &[SloTransition] {
        self.slos.as_ref().map_or(&[], SloEngine::transitions)
    }

    /// Number of executable steps: `K − 1` for a `K`-period trace.
    pub fn total_steps(&self) -> usize {
        self.demand[0].len() - 1
    }

    /// The next period index to execute (equals [`total_steps`] when the
    /// run is finished).
    ///
    /// [`total_steps`]: ClosedLoopSim::total_steps
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// True once every period of the trace has been executed.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.total_steps()
    }

    /// The periods executed so far.
    pub fn periods(&self) -> &[SimPeriod] {
        &self.periods
    }

    /// The controller being driven.
    pub fn controller(&self) -> &dyn PlacementPolicy {
        self.controller.as_ref()
    }

    /// Executes one period of the closed loop: the controller observes
    /// `demand[·][cursor]`, decides the allocation for `cursor + 1`, and
    /// the simulator scores it against the realized demand. Returns
    /// `false` when the trace was already exhausted (no work done).
    ///
    /// # Errors
    ///
    /// Propagates the controller failure; the simulation state is
    /// unchanged on error, so a supervisor may retry or abandon the run.
    pub fn step(&mut self) -> Result<bool, CoreError> {
        if self.is_done() {
            return Ok(false);
        }
        let k = self.cursor;
        let telemetry = self.telemetry.clone();
        // Top-level timeline span: controller and solver spans opened
        // inside `step` nest under it.
        let mut period_span = telemetry.tracer().span("sim.period");
        period_span.attr("period", k);
        let observed: Vec<f64> = self.demand.iter().map(|d| d[k]).collect();
        let realized: Vec<f64> = self.demand.iter().map(|d| d[k + 1]).collect();
        let t_step = (telemetry.is_enabled() || self.slos.is_some()).then(Instant::now);
        let outcome = self.controller.step(&observed)?;
        let problem = self.controller.problem();
        let sla = evaluate_sla(problem, &outcome.allocation, &outcome.routing, &realized);
        let per_dc = outcome.allocation.per_dc(problem);
        let step_cost = outcome.step_cost;
        self.ledger.push(step_cost);
        let reconfig_magnitude: f64 = outcome.control.iter().map(|u| u.abs()).sum();
        // Shortfall the recovery solve knowingly left unserved this period
        // (server units). Strict-feasible steps carry no recovery record.
        let sla_shortfall = outcome
            .recovery
            .as_ref()
            .map_or(0.0, |r| r.resource_shortfall);
        if let Some(engine) = self.slos.as_mut() {
            engine.observe(&SloSample {
                period: k as u64,
                step_latency_seconds: t_step.map_or(0.0, |t| t.elapsed().as_secs_f64()),
                sla_shortfall,
                fallback: outcome.fallback,
                recovery: sla_shortfall > 0.0,
            });
        }
        if let Some(t) = t_step.filter(|_| telemetry.is_enabled()) {
            telemetry.incr("sim.periods", 1);
            telemetry.observe_duration("sim.step_seconds", t.elapsed());
            telemetry.observe("sim.reconfig_l1", reconfig_magnitude);
            // A recovered period counts as SLA-violation mass even when the
            // analytic check happens to pass against realized demand: the
            // controller planned to leave demand unserved.
            if sla.violated_arcs > 0 || sla_shortfall > 0.0 {
                telemetry.incr("sim.sla_violation_periods", 1);
            }
            if sla_shortfall > 0.0 {
                telemetry.incr("sim.recovery_periods", 1);
                telemetry.observe("sim.sla_shortfall", sla_shortfall);
            }
            if let Some(mon) = self.monitor.as_mut() {
                let alarms = mon.observe(&observed);
                telemetry.incr("sim.anomaly_flags", alarms.len() as u64);
            }
        }
        if period_span.is_enabled() {
            period_span.attr("reconfig_l1", reconfig_magnitude);
            period_span.attr("sla_violated_arcs", sla.violated_arcs);
            period_span.attr("step_cost", step_cost.total());
            period_span.attr("total_servers", outcome.allocation.total());
            if sla_shortfall > 0.0 {
                period_span.attr("sla_shortfall", sla_shortfall);
            }
        }
        self.periods.push(SimPeriod {
            period: k,
            observed_demand: observed,
            realized_demand: realized,
            per_dc,
            total_servers: outcome.allocation.total(),
            reconfig_magnitude,
            cost: step_cost,
            sla,
            sla_shortfall,
        });
        self.cursor += 1;
        Ok(true)
    }

    /// Steps until the cursor reaches `k` (clamped to the trace length).
    /// Useful to run to a checkpoint boundary and stop.
    ///
    /// # Errors
    ///
    /// Propagates the first controller failure.
    pub fn run_until(&mut self, k: usize) -> Result<(), CoreError> {
        while self.cursor < k.min(self.total_steps()) {
            self.step()?;
        }
        Ok(())
    }

    /// The report of everything executed so far. Cheap to call mid-run:
    /// monitors can inspect partial results without consuming the sim.
    pub fn report(&self) -> SimReport {
        SimReport {
            periods: self.periods.clone(),
            ledger: self.ledger.clone(),
            controller: self.controller.name().to_string(),
        }
    }

    /// Runs the remainder of the trace and returns the final report.
    ///
    /// # Errors
    ///
    /// Propagates the first controller failure.
    pub fn run(mut self) -> Result<SimReport, CoreError> {
        while self.step()? {}
        Ok(self.report())
    }

    /// Freezes the run into a [`SimCheckpoint`] that can be serialized
    /// with [`SimCheckpoint::to_json`] and later fed to
    /// [`ClosedLoopSim::restore`] on a freshly built simulation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the controller does not
    /// support checkpointing (its `checkpoint()` returns `None`).
    pub fn checkpoint(&self) -> Result<SimCheckpoint, CoreError> {
        let controller_state = self.controller.checkpoint().ok_or_else(|| {
            CoreError::InvalidSpec(format!(
                "controller {:?} does not support checkpoint/resume",
                self.controller.name()
            ))
        })?;
        Ok(SimCheckpoint {
            schema_version: crate::CHECKPOINT_SCHEMA_VERSION,
            controller: self.controller.name().to_string(),
            cursor: self.cursor,
            periods: self.periods.clone(),
            controller_state,
        })
    }

    /// Restores a checkpoint into this (freshly built) simulation: the
    /// controller state, cursor, executed periods, and cost ledger are
    /// all rewound to the moment the checkpoint was taken, after which
    /// [`ClosedLoopSim::step`] continues exactly where the original run
    /// left off.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if the checkpoint belongs to a
    /// different controller, does not fit this trace, is internally
    /// inconsistent, or the controller rejects its state.
    pub fn restore(&mut self, ck: &SimCheckpoint) -> Result<(), CoreError> {
        if ck.controller != self.controller.name() {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint was taken from controller {:?}, this sim drives {:?}",
                ck.controller,
                self.controller.name()
            )));
        }
        if ck.cursor > self.total_steps() {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint cursor {} exceeds trace steps {}",
                ck.cursor,
                self.total_steps()
            )));
        }
        if ck.periods.len() != ck.cursor {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint records {} periods but cursor is {}",
                ck.periods.len(),
                ck.cursor
            )));
        }
        let nv = self.demand.len();
        if ck.periods.iter().any(|p| p.observed_demand.len() != nv) {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint periods do not match trace with {nv} locations"
            )));
        }
        self.controller.restore(&ck.controller_state)?;
        self.cursor = ck.cursor;
        self.periods = ck.periods.clone();
        self.ledger = CostLedger::new();
        for p in &self.periods {
            self.ledger.push(p.cost);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::{LastValue, OraclePredictor};

    fn problem() -> dspp_core::Dspp {
        DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![0.02])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap()
    }

    fn mpc(horizon: usize, truth: Vec<Vec<f64>>) -> Box<MpcController> {
        Box::new(
            MpcController::new(
                problem(),
                Box::new(OraclePredictor::new(truth)),
                MpcSettings {
                    horizon,
                    ..MpcSettings::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn oracle_run_is_sla_compliant() {
        let demand = vec![vec![40.0, 60.0, 90.0, 120.0, 90.0, 60.0, 40.0]];
        let sim = ClosedLoopSim::new(mpc(3, demand.clone()), demand).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.periods.len(), 6);
        assert_eq!(report.violation_periods(), 0, "oracle MPC must meet SLA");
        assert!(report.ledger.total() > 0.0);
        assert_eq!(report.controller, "mpc");
    }

    #[test]
    fn persistence_prediction_violates_on_surge() {
        // Demand doubles instantly; a last-value predictor under-provisions
        // the surge period.
        let demand = vec![vec![50.0, 50.0, 140.0, 140.0, 140.0]];
        let c = MpcController::new(
            problem(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let report = ClosedLoopSim::new(Box::new(c), demand)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            report.violation_periods() >= 1,
            "surge must catch persistence out"
        );
    }

    #[test]
    fn report_series_shapes() {
        let demand = vec![vec![40.0, 60.0, 80.0, 60.0]];
        let report = ClosedLoopSim::new(mpc(2, demand.clone()), demand)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.periods.len(), 3);
        assert!(report.periods.iter().all(|p| p.per_dc.len() == 1));
        assert_eq!(report.total_series().len(), 3);
        assert!(report.max_reconfig() > 0.0);
    }

    #[test]
    fn telemetry_counts_periods_and_violations() {
        let demand = vec![vec![50.0, 50.0, 140.0, 140.0, 140.0]];
        let telemetry = dspp_telemetry::Recorder::enabled();
        let c = MpcController::new(
            problem(),
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let report = ClosedLoopSim::new(Box::new(c), demand)
            .unwrap()
            .with_telemetry(telemetry.clone())
            .run()
            .unwrap();
        let snap = telemetry.snapshot().unwrap();
        // One sample per period, across sim and controller layers alike.
        assert_eq!(snap.counter("sim.periods") as usize, report.periods.len());
        assert_eq!(
            snap.counter("controller.steps") as usize,
            report.periods.len()
        );
        let steps = snap.histogram("sim.step_seconds").unwrap();
        assert_eq!(steps.count as usize, report.periods.len());
        let reconfig = snap.histogram("sim.reconfig_l1").unwrap();
        assert_eq!(reconfig.count as usize, report.periods.len());
        assert_eq!(
            snap.counter("sim.sla_violation_periods") as usize,
            report.violation_periods()
        );
        // Nested solver metrics flow into the same recorder.
        assert!(snap.histogram("solver.lq.iterations").unwrap().sum > 0.0);
    }

    /// The 1×1 problem with a hard capacity: `a = 1/80`, so demand above
    /// `80 · cap` is infeasible and forces a recovery solve.
    fn capped_problem(cap: f64) -> dspp_core::Dspp {
        DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![0.02])
            .price_trace(0, vec![1.0])
            .capacity(0, cap)
            .build()
            .unwrap()
    }

    #[test]
    fn recovery_periods_are_recorded_with_shortfall_telemetry() {
        // Demand 95 needs 95/80 ≈ 1.1875 servers against a capacity of
        // 1.0 — strict-infeasible, so the controller's recovery rung must
        // resolve those periods and the sim must record the shortfall.
        let demand = vec![vec![40.0, 55.0, 95.0, 95.0, 55.0, 40.0]];
        let telemetry = dspp_telemetry::Recorder::enabled();
        let c = MpcController::new(
            capped_problem(1.0),
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let report = ClosedLoopSim::new(Box::new(c), demand)
            .unwrap()
            .with_telemetry(telemetry.clone())
            .run()
            .unwrap();
        assert!(
            report.recovery_periods() >= 1,
            "surge must trigger recovery"
        );
        // Shortfall equals the capacity deficit: 95/80 − 1.0 per period.
        let deficit = 95.0 / 80.0 - 1.0;
        for p in report.periods.iter().filter(|p| p.sla_shortfall > 0.0) {
            assert!((p.sla_shortfall - deficit).abs() < 1e-6, "{p:?}");
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(
            snap.counter("sim.recovery_periods") as usize,
            report.recovery_periods()
        );
        let shortfall = snap.histogram("sim.sla_shortfall").unwrap();
        assert_eq!(shortfall.count as usize, report.recovery_periods());
        assert!((shortfall.sum - report.total_sla_shortfall()).abs() < 1e-9);
        // Recovered periods count as SLA-violation mass.
        assert!(snap.counter("sim.sla_violation_periods") >= report.recovery_periods() as u64);
    }

    /// Every `sim.*` metric a run emits is a row of the `sim.*` table in
    /// `docs/OBSERVABILITY.md`, and every row is emitted: a calm baseline
    /// arms the EWMA monitor, then a jump past capacity trips it and
    /// forces a recovery period.
    #[test]
    fn sim_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        let mut demand = vec![vec![40.0; 12]];
        demand[0].extend([95.0, 95.0, 40.0]);
        let telemetry = dspp_telemetry::Recorder::enabled();
        let c = MpcController::new(
            capped_problem(1.0),
            Box::new(LastValue),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let report = ClosedLoopSim::new(Box::new(c), demand)
            .unwrap()
            .with_telemetry(telemetry.clone())
            .run()
            .unwrap();
        assert!(report.recovery_periods() >= 1, "the jump must recover");
        let snap = telemetry.snapshot().unwrap();
        assert!(
            snap.counter("sim.anomaly_flags") >= 1,
            "the jump must alarm"
        );
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("sim."))
            .collect();
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `sim.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the sim.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|line| line.split('`').next())
            .collect();
        assert_eq!(emitted, documented, "emitted vs documented sim.* metrics");
    }

    #[test]
    fn slo_engine_fires_and_resolves_on_sustained_shortfall() {
        // Four consecutive infeasible periods breach the sla_shortfall
        // SLO's burn windows; the calm tail must be long enough for the
        // short window (4 periods) to fully drain before the alert can
        // log `resolve_periods` consecutive clear evaluations.
        let demand = vec![vec![
            40.0, 55.0, 95.0, 95.0, 95.0, 95.0, 55.0, 40.0, 40.0, 40.0, 40.0, 40.0,
        ]];
        let telemetry = dspp_telemetry::Recorder::enabled();
        let c = MpcController::new(
            capped_problem(1.0),
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                telemetry: telemetry.clone(),
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let mut sim = ClosedLoopSim::new(Box::new(c), demand)
            .unwrap()
            .with_telemetry(telemetry.clone())
            .with_slos(dspp_telemetry::SloEngine::with_defaults(telemetry.clone()));
        while sim.step().unwrap() {}
        let engine = sim.slo_engine().unwrap();
        assert_eq!(engine.evaluations() as usize, sim.periods().len());
        let fired: Vec<_> = sim
            .slo_transitions()
            .iter()
            .filter(|t| t.slo == "sla_shortfall")
            .map(|t| t.to)
            .collect();
        assert!(
            fired.contains(&dspp_telemetry::AlertState::Firing),
            "sustained shortfall must page: {:?}",
            sim.slo_transitions()
        );
        assert!(fired.contains(&dspp_telemetry::AlertState::Resolved));
        let snap = telemetry.snapshot().unwrap();
        assert!(snap.counter("slo.firing") >= 1);
        assert!(snap.counter("slo.resolved") >= 1);
        assert_eq!(snap.counter("slo.evaluations"), engine.evaluations());
    }

    #[test]
    fn checkpoint_resumes_through_a_recovery_period() {
        let demand = vec![vec![40.0, 55.0, 95.0, 95.0, 55.0, 40.0]];
        let capped = |horizon| {
            Box::new(
                MpcController::new(
                    capped_problem(1.0),
                    Box::new(LastValue),
                    MpcSettings {
                        horizon,
                        ..MpcSettings::default()
                    },
                )
                .unwrap(),
            )
        };
        let straight = ClosedLoopSim::new(capped(3), demand.clone())
            .unwrap()
            .run()
            .unwrap();
        assert!(straight.recovery_periods() >= 1);
        // Checkpoint right after the first recovery-mode period.
        let boundary = straight
            .periods
            .iter()
            .position(|p| p.sla_shortfall > 0.0)
            .unwrap()
            + 1;
        let mut first = ClosedLoopSim::new(capped(3), demand.clone()).unwrap();
        first.run_until(boundary).unwrap();
        let ck = first.checkpoint().unwrap();
        let ck = crate::SimCheckpoint::from_json(&ck.to_json()).unwrap();
        drop(first);
        let mut resumed = ClosedLoopSim::new(capped(3), demand).unwrap();
        resumed.restore(&ck).unwrap();
        assert!(resumed.periods()[boundary - 1].sla_shortfall > 0.0);
        let report = resumed.run().unwrap();
        assert_eq!(report, straight, "resume through recovery must be exact");
    }

    #[test]
    fn checkpoint_then_resume_reproduces_uninterrupted_report() {
        let demand = vec![vec![40.0, 60.0, 90.0, 120.0, 90.0, 60.0, 40.0]];
        let straight = ClosedLoopSim::new(mpc(3, demand.clone()), demand.clone())
            .unwrap()
            .run()
            .unwrap();

        // Run to period 3, freeze, and round-trip through JSON.
        let mut first = ClosedLoopSim::new(mpc(3, demand.clone()), demand.clone()).unwrap();
        first.run_until(3).unwrap();
        assert_eq!(first.cursor(), 3);
        assert!(!first.is_done());
        let ck = first.checkpoint().unwrap();
        let ck = crate::SimCheckpoint::from_json(&ck.to_json()).unwrap();
        drop(first);

        // Resume in a freshly built simulation.
        let mut resumed = ClosedLoopSim::new(mpc(3, demand.clone()), demand).unwrap();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.cursor(), 3);
        assert_eq!(resumed.periods().len(), 3);
        let report = resumed.run().unwrap();
        assert_eq!(report, straight, "resume must be bit-exact");
    }

    #[test]
    fn restore_rejects_foreign_checkpoints() {
        let demand = vec![vec![40.0, 60.0, 90.0, 120.0]];
        let mut sim = ClosedLoopSim::new(mpc(2, demand.clone()), demand.clone()).unwrap();
        sim.run_until(2).unwrap();
        let good = sim.checkpoint().unwrap();

        // Wrong controller name.
        let mut bad = good.clone();
        bad.controller = "other".into();
        let mut fresh = ClosedLoopSim::new(mpc(2, demand.clone()), demand.clone()).unwrap();
        assert!(fresh.restore(&bad).is_err());

        // Cursor beyond the trace.
        let mut bad = good.clone();
        bad.cursor = 99;
        assert!(fresh.restore(&bad).is_err());

        // Periods/cursor mismatch.
        let mut bad = good.clone();
        bad.periods.pop();
        assert!(fresh.restore(&bad).is_err());

        // The unmodified checkpoint restores fine.
        assert!(fresh.restore(&good).is_ok());
    }

    #[test]
    fn validation_of_trace_shape() {
        let demand_bad = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
        assert!(ClosedLoopSim::new(mpc(2, vec![vec![1.0, 2.0]]), demand_bad).is_err());
        assert!(ClosedLoopSim::new(mpc(2, vec![vec![1.0]]), vec![vec![1.0]]).is_err());
        assert!(ClosedLoopSim::new(mpc(2, vec![vec![1.0, 2.0]]), vec![vec![1.0, 2.0]]).is_ok());
    }
}

//! Scenario specifications and the engine that executes them.
//!
//! A [`ScenarioSpec`] bundles everything one closed-loop run needs beyond
//! the controller itself: the demand trace, a [`FaultPlan`], a
//! [`RetryPolicy`], and an optional checkpoint drill. [`run_scenario`]
//! executes one spec; [`run_scenarios`] fans a batch out across a
//! [`ScenarioPool`] and returns outcomes in submission order.

use std::sync::Arc;

use dspp_core::{CoreError, PlacementPolicy};
use dspp_sim::{ClosedLoopSim, SimCheckpoint, SimReport};
use dspp_telemetry::{Recorder, SloEngine, SloSpec, SloTransition};

use crate::{
    FaultPlan, FaultingController, ResilientController, RetryPolicy, RuntimeError, ScenarioPool,
};

/// Everything one closed-loop scenario needs beyond its controller.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario label (job label on the pool, name in reports).
    pub name: String,
    /// `[location][period]` demand trace. Demand-spike faults are applied
    /// to a copy at run time; price shocks must be applied by the caller
    /// to the price traces *before* building the problem (a [`Dspp`]'s
    /// posted prices are immutable), via [`FaultPlan::apply_to_prices`].
    ///
    /// [`Dspp`]: dspp_core::Dspp
    pub demand: Vec<Vec<f64>>,
    /// Adversities injected into the run.
    pub faults: FaultPlan,
    /// Retry/fallback behavior on solver failures.
    pub retry: RetryPolicy,
    /// When `Some(k)`, the engine runs to period `k`, freezes a
    /// [`SimCheckpoint`], round-trips it through JSON, restores it, and
    /// continues — a live drill of the persistence path on every run.
    pub checkpoint_at: Option<usize>,
    /// SLO specs evaluated against every executed period. Empty (the
    /// default) means no engine is attached and the run behaves exactly
    /// as before this field existed.
    pub slos: Vec<SloSpec>,
}

impl ScenarioSpec {
    /// A plain scenario: no faults, default retry policy, no checkpoint.
    pub fn new(name: impl Into<String>, demand: Vec<Vec<f64>>) -> Self {
        ScenarioSpec {
            name: name.into(),
            demand,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            checkpoint_at: None,
            slos: Vec::new(),
        }
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry/fallback policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables the checkpoint/restore drill at period `k`.
    pub fn with_checkpoint_at(mut self, k: usize) -> Self {
        self.checkpoint_at = Some(k);
        self
    }

    /// Attaches SLO specs; the run evaluates them every period and the
    /// outcome reports the alert transitions.
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }
}

/// What one executed scenario produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The spec's name.
    pub name: String,
    /// The closed-loop report (full length even under injected faults —
    /// that is the graceful-degradation guarantee).
    pub report: SimReport,
    /// Periods absorbed by holding the placement (`u = 0`).
    pub fallback_periods: u64,
    /// Solve retries attempted.
    pub retries: u64,
    /// Failed solve attempts observed (injected or organic).
    pub solver_failures: u64,
    /// Solver failures injected by the fault plan.
    pub injected_faults: u64,
    /// Periods resolved by a recovery (soft-constraint) solve instead of
    /// the strict horizon QP — the degradation rung *above* holding the
    /// last-known-good placement.
    pub recovery_periods: u64,
    /// Total server-units of demand the recovery solves left unserved.
    pub sla_shortfall: f64,
    /// Alert transitions emitted by the SLO engine (empty when the spec
    /// carried no SLOs).
    pub slo_transitions: Vec<SloTransition>,
}

/// Executes one scenario: applies demand faults, stacks the fault and
/// degradation wrappers around `controller`, optionally drills the
/// checkpoint path, and runs the trace to completion.
///
/// # Errors
///
/// Returns [`CoreError`] when the scenario is malformed (trace/problem
/// shape mismatch) or the run fails beyond what the retry policy and
/// fallback budget absorb.
pub fn run_scenario(
    controller: Box<dyn PlacementPolicy>,
    spec: &ScenarioSpec,
    telemetry: &Recorder,
) -> Result<ScenarioOutcome, CoreError> {
    let mut span = telemetry.tracer().span("runtime.scenario");
    span.attr("name", spec.name.clone());
    let mut demand = spec.demand.clone();
    spec.faults.apply_to_demand(&mut demand);

    let mut controller = controller;
    let periods = demand.first().map(Vec::len).unwrap_or(0);
    if let Some(schedule) = spec.faults.capacity_schedule(controller.problem(), periods) {
        controller.set_capacity_schedule(schedule);
    }
    // Wire the controller itself into the run's recorder: its
    // `controller.step` spans (period, step_cost, recovered, ...) are
    // what `dspp-analyze` attributes critical paths and MTTR from.
    controller.attach_telemetry(telemetry.clone());
    let faulting =
        FaultingController::new(controller, spec.faults.clone()).with_telemetry(telemetry.clone());
    let fault_stats = faulting.stats();
    let resilient = ResilientController::new(Box::new(faulting), spec.retry.clone())
        .with_telemetry(telemetry.clone());
    let degrade_stats = resilient.stats();

    let mut sim =
        ClosedLoopSim::new(Box::new(resilient), demand)?.with_telemetry(telemetry.clone());
    if !spec.slos.is_empty() {
        sim = sim.with_slos(SloEngine::new(spec.slos.clone(), telemetry.clone()));
    }
    if let Some(k) = spec.checkpoint_at {
        sim.run_until(k)?;
        let ck = sim.checkpoint()?;
        let parsed = SimCheckpoint::from_json(&ck.to_json()).map_err(CoreError::InvalidSpec)?;
        sim.restore(&parsed)?;
        telemetry.incr("runtime.checkpoints", 1);
    }
    while sim.step()? {}
    let slo_transitions = sim.slo_transitions().to_vec();
    let report = sim.report();

    let recovery_periods = report.recovery_periods() as u64;
    let sla_shortfall = report.total_sla_shortfall();
    if span.is_enabled() {
        span.attr("periods", report.periods.len());
        span.attr("fallbacks", degrade_stats.fallbacks());
        span.attr("recovery_periods", recovery_periods);
        span.attr("total_cost", report.ledger.total());
    }
    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        report,
        fallback_periods: degrade_stats.fallbacks(),
        retries: degrade_stats.retries(),
        solver_failures: degrade_stats.solver_failures(),
        injected_faults: fault_stats.injected(),
        recovery_periods,
        sla_shortfall,
        slo_transitions,
    })
}

/// Runs a batch of scenarios on `pool`, building each scenario's
/// controller inside its worker via `factory`. Results come back in
/// submission order; a panicking or failing scenario occupies its slot as
/// an error without affecting siblings.
pub fn run_scenarios<F>(
    pool: &ScenarioPool,
    specs: Vec<ScenarioSpec>,
    factory: F,
    telemetry: &Recorder,
) -> Vec<Result<ScenarioOutcome, RuntimeError>>
where
    F: Fn(&ScenarioSpec) -> Result<Box<dyn PlacementPolicy>, CoreError> + Send + Sync + 'static,
{
    let factory = Arc::new(factory);
    let jobs: Vec<(String, _)> = specs
        .into_iter()
        .map(|spec| {
            let factory = Arc::clone(&factory);
            let telemetry = telemetry.clone();
            let label = spec.name.clone();
            let job = move || -> Result<ScenarioOutcome, CoreError> {
                let controller = factory(&spec)?;
                run_scenario(controller, &spec, &telemetry)
            };
            (label, job)
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .map(|slot| match slot {
            Ok(Ok(outcome)) => Ok(outcome),
            Ok(Err(e)) => Err(RuntimeError::Core(e)),
            Err(e) => Err(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::LastValue;

    fn demand() -> Vec<Vec<f64>> {
        vec![vec![40.0, 55.0, 70.0, 85.0, 70.0, 55.0, 40.0, 40.0]]
    }

    fn mpc() -> Box<dyn PlacementPolicy> {
        let problem = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .reconfiguration_weights(vec![0.02])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        Box::new(
            MpcController::new(
                problem,
                Box::new(LastValue),
                MpcSettings {
                    horizon: 3,
                    ..MpcSettings::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn plain_scenario_matches_direct_simulation() {
        let direct = ClosedLoopSim::new(mpc(), demand()).unwrap().run().unwrap();
        let spec = ScenarioSpec::new("plain", demand());
        let outcome = run_scenario(mpc(), &spec, &Recorder::disabled()).unwrap();
        assert_eq!(outcome.report, direct);
        assert_eq!(outcome.fallback_periods, 0);
        assert_eq!(outcome.injected_faults, 0);
    }

    #[test]
    fn checkpoint_drill_does_not_change_the_report() {
        let plain = run_scenario(
            mpc(),
            &ScenarioSpec::new("plain", demand()),
            &Recorder::disabled(),
        )
        .unwrap();
        let drilled = run_scenario(
            mpc(),
            &ScenarioSpec::new("drilled", demand()).with_checkpoint_at(3),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(drilled.report.periods, plain.report.periods);
        assert_eq!(drilled.report.ledger, plain.report.ledger);
    }

    #[test]
    fn injected_outage_completes_with_fallbacks() {
        let telemetry = Recorder::enabled();
        let spec =
            ScenarioSpec::new("outage", demand()).with_faults(FaultPlan::new().solver_outage(2, 2));
        let outcome = run_scenario(mpc(), &spec, &telemetry).unwrap();
        // Full-length report despite two dead periods.
        assert_eq!(outcome.report.periods.len(), demand()[0].len() - 1);
        assert_eq!(outcome.fallback_periods, 2);
        assert!(outcome.injected_faults >= 2);
        // The held periods executed u = 0.
        assert_eq!(outcome.report.periods[2].reconfig_magnitude, 0.0);
        assert_eq!(outcome.report.periods[3].reconfig_magnitude, 0.0);
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("runtime.fallback"), 2);
    }

    #[test]
    fn outage_scenario_pages_the_fallback_slo_and_resolves() {
        use dspp_telemetry::AlertState;
        let telemetry = Recorder::enabled();
        let spec = ScenarioSpec::new("outage-slo", demand())
            .with_faults(FaultPlan::new().solver_outage(2, 2))
            .with_slos(SloSpec::default_set());
        let outcome = run_scenario(mpc(), &spec, &telemetry).unwrap();
        assert_eq!(outcome.fallback_periods, 2);
        let states: Vec<(u64, AlertState)> = outcome
            .slo_transitions
            .iter()
            .filter(|t| t.slo == "fallback_budget")
            .map(|t| (t.period, t.to))
            .collect();
        assert_eq!(
            states,
            vec![
                (2, AlertState::Pending),
                (3, AlertState::Firing),
                (6, AlertState::Resolved),
            ],
            "all: {:?}",
            outcome.slo_transitions
        );
        assert!(telemetry.snapshot().unwrap().counter("slo.firing") >= 1);
    }

    #[test]
    fn plain_scenario_with_slos_stays_quiet() {
        let spec = ScenarioSpec::new("quiet", demand()).with_slos(SloSpec::default_set());
        let outcome = run_scenario(mpc(), &spec, &Recorder::disabled()).unwrap();
        let noisy: Vec<_> = outcome
            .slo_transitions
            .iter()
            // The latency SLO depends on wall clock; everything else must
            // stay silent on a healthy run.
            .filter(|t| t.slo != "step_latency_p99")
            .collect();
        assert!(noisy.is_empty(), "healthy run paged: {noisy:?}");
    }

    #[test]
    fn infeasible_surge_is_resolved_by_recovery_not_fallback() {
        // Capacity 1.0 with a = 1/80: demand 95 needs ≈ 1.1875 servers.
        // The recovery rung — not last-known-good — must absorb it.
        let capped = || -> Box<dyn PlacementPolicy> {
            let problem = DsppBuilder::new(1, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010]])
                .reconfiguration_weights(vec![0.02])
                .price_trace(0, vec![1.0])
                .capacity(0, 1.0)
                .build()
                .unwrap();
            Box::new(
                MpcController::new(
                    problem,
                    Box::new(LastValue),
                    MpcSettings {
                        horizon: 3,
                        ..MpcSettings::default()
                    },
                )
                .unwrap(),
            )
        };
        let trace = vec![vec![40.0, 55.0, 95.0, 95.0, 55.0, 40.0]];
        let spec = ScenarioSpec::new("infeasible-surge", trace).with_checkpoint_at(4);
        let outcome = run_scenario(capped(), &spec, &Recorder::disabled()).unwrap();
        assert!(outcome.recovery_periods >= 1, "{outcome:?}");
        assert_eq!(outcome.fallback_periods, 0, "recovery must beat LKG");
        assert_eq!(outcome.solver_failures, 0);
        let deficit = 95.0 / 80.0 - 1.0;
        assert!(
            (outcome.sla_shortfall - deficit * outcome.recovery_periods as f64).abs() < 1e-6,
            "{outcome:?}"
        );
    }

    #[test]
    fn dc_outage_sheds_the_analytic_deficit_and_pages_the_outage_slo() {
        use dspp_telemetry::AlertState;
        // Two 2-server DCs, one city, equal latencies: demand 240 needs
        // exactly 3 servers (a = 1/80). Losing DC 1 for two periods
        // leaves a 1-server deficit per period, which the recovery rung
        // must shed exactly — no fallbacks, books balanced.
        let mk = || -> Box<dyn PlacementPolicy> {
            let problem = DsppBuilder::new(2, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010], vec![0.010]])
                .capacity(0, 2.0)
                .capacity(1, 2.0)
                .price_trace(0, vec![1.0])
                .price_trace(1, vec![1.0])
                .build()
                .unwrap();
            Box::new(
                MpcController::new(
                    problem,
                    Box::new(LastValue),
                    MpcSettings {
                        horizon: 3,
                        ..MpcSettings::default()
                    },
                )
                .unwrap(),
            )
        };
        let telemetry = Recorder::enabled();
        let trace = vec![vec![240.0; 8]];
        let spec = ScenarioSpec::new("dc-outage", trace)
            .with_faults(FaultPlan::new().dc_outage(1, 2, 2))
            .with_slos(vec![SloSpec::dc_outage()]);
        let outcome = run_scenario(mk(), &spec, &telemetry).unwrap();
        assert_eq!(outcome.report.periods.len(), 7, "run must complete");
        assert_eq!(outcome.fallback_periods, 0, "recovery must absorb it");
        assert!(outcome.recovery_periods >= 2);
        // Two outage periods × (3 required − 2 surviving) servers.
        assert!(
            (outcome.sla_shortfall - 2.0).abs() < 1e-5,
            "shortfall {} servers, expected 2",
            outcome.sla_shortfall
        );
        let states: Vec<(u64, AlertState)> = outcome
            .slo_transitions
            .iter()
            .filter(|t| t.slo == "dc_outage")
            .map(|t| (t.period, t.to))
            .collect();
        assert_eq!(
            states,
            vec![
                (2, AlertState::Pending),
                (3, AlertState::Firing),
                (6, AlertState::Resolved),
            ],
            "all: {:?}",
            outcome.slo_transitions
        );
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("faults.dc_down_periods"), 2);
        assert_eq!(snap.counter("faults.dc_outage_onsets"), 1);
    }

    #[test]
    fn pool_batch_returns_outcomes_in_submission_order() {
        let pool = ScenarioPool::new(3);
        let specs = vec![
            ScenarioSpec::new("s0", demand()),
            ScenarioSpec::new("s1", demand()).with_checkpoint_at(2),
            ScenarioSpec::new("s2", demand()).with_faults(FaultPlan::new().solver_outage(1, 1)),
        ];
        let results = run_scenarios(&pool, specs, |_spec| Ok(mpc()), &Recorder::disabled());
        assert_eq!(results.len(), 3);
        let names: Vec<&str> = results
            .iter()
            .map(|r| r.as_ref().unwrap().name.as_str())
            .collect();
        assert_eq!(names, vec!["s0", "s1", "s2"]);
        // All three ran the full trace; s0 and s1 agree exactly.
        assert_eq!(
            results[0].as_ref().unwrap().report.periods,
            results[1].as_ref().unwrap().report.periods
        );
        assert_eq!(results[2].as_ref().unwrap().fallback_periods, 1);
    }

    #[test]
    fn factory_errors_surface_as_core_errors() {
        let pool = ScenarioPool::new(2);
        let specs = vec![ScenarioSpec::new("broken", demand())];
        let results = run_scenarios(
            &pool,
            specs,
            |_spec| Err(CoreError::InvalidSpec("no controller".into())),
            &Recorder::disabled(),
        );
        assert!(matches!(&results[0], Err(RuntimeError::Core(_))));
    }

    #[test]
    fn runtime_metric_catalogue_matches_the_docs() {
        use std::collections::BTreeSet;
        // A two-worker batch: a solver outage that retries and falls back,
        // a checkpoint drill, and a scenario whose controller factory
        // panics.
        let telemetry = Recorder::enabled();
        let pool = ScenarioPool::new(2).with_telemetry(telemetry.clone());
        let specs = vec![
            ScenarioSpec::new("outage", demand()).with_faults(FaultPlan::new().solver_outage(2, 1)),
            ScenarioSpec::new("drilled", demand()).with_checkpoint_at(3),
            ScenarioSpec::new("panics", demand()),
        ];
        let factory = |spec: &ScenarioSpec| {
            if spec.name == "panics" {
                panic!("controller factory exploded");
            }
            Ok(mpc())
        };
        let outcomes = run_scenarios(&pool, specs, factory, &telemetry);
        let outage = outcomes[0].as_ref().unwrap();
        assert_eq!((outage.retries, outage.fallback_periods), (2, 1));
        assert!(outcomes[1].is_ok());
        assert!(matches!(outcomes[2], Err(RuntimeError::JobPanicked { .. })));
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("runtime.checkpoints"), 1);
        assert_eq!(snap.counter("runtime.job_panics"), 1);
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("runtime."))
            .collect();
        // The rows of the `runtime.*` table in OBSERVABILITY.md.
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `runtime.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the runtime.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let documented: BTreeSet<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `"))
            .filter_map(|line| line.split('`').next())
            .collect();
        assert_eq!(
            emitted, documented,
            "emitted vs documented runtime.* metrics"
        );
    }
}

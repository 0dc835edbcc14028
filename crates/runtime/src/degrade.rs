//! Graceful degradation: retry, then hold the last-known-good placement.
//!
//! [`ResilientController`] wraps any [`PlacementPolicy`]. When the
//! inner controller's step fails with a solver error, it retries at once,
//! up to [`RetryPolicy::max_retries`] times (the inner `MpcController`
//! rolls its history back on failure, so retries are idempotent). If
//! every attempt fails it *degrades* instead of crashing the run: it
//! keeps the current allocation for one more period (`u = 0`),
//! re-derives the routing split from it, bills that placement at the
//! upcoming period's posted prices, and tells the inner controller via
//! [`PlacementPolicy::note_fallback`] so its period counter and
//! demand history stay aligned with wall clock.
//!
//! Every decision is visible in telemetry: `runtime.solver_failures`,
//! `runtime.retries`, `runtime.fallback` counters, and a
//! `runtime.fallback` event under the current `sim.period` span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dspp_core::{
    Allocation, ControllerCheckpoint, CoreError, Dspp, PeriodCost, PlacementPolicy, RoutingPolicy,
    StepOutcome,
};
use dspp_telemetry::{AttrValue, Recorder};

/// How a [`ResilientController`] reacts to solver failures. Retries run
/// back to back, with no wait between attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure before falling back.
    pub max_retries: usize,
    /// Consecutive fallback periods tolerated before the error is
    /// propagated after all. Guards against silently riding out an
    /// entire trace on a stale placement.
    pub max_consecutive_fallbacks: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            max_consecutive_fallbacks: 8,
        }
    }
}

/// Shared counters exposing what a [`ResilientController`] had to do.
#[derive(Debug, Clone, Default)]
pub struct DegradeStats {
    solver_failures: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
    fallbacks: Arc<AtomicU64>,
}

impl DegradeStats {
    /// Failed solve attempts observed (initial attempts and retries).
    pub fn solver_failures(&self) -> u64 {
        self.solver_failures.load(Ordering::Relaxed)
    }

    /// Retry attempts made.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Periods absorbed by holding the placement (`u = 0`).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }
}

/// A supervisor wrapping any controller with bounded retry and
/// last-known-good fallback. See the module docs.
pub struct ResilientController {
    inner: Box<dyn PlacementPolicy>,
    policy: RetryPolicy,
    telemetry: Recorder,
    period: usize,
    consecutive_fallbacks: usize,
    stats: DegradeStats,
}

impl ResilientController {
    /// Wraps `inner` with the given policy.
    pub fn new(inner: Box<dyn PlacementPolicy>, policy: RetryPolicy) -> Self {
        ResilientController {
            inner,
            policy,
            telemetry: Recorder::disabled(),
            period: 0,
            consecutive_fallbacks: 0,
            stats: DegradeStats::default(),
        }
    }

    /// Emits `runtime.*` counters and fallback events to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A cloneable handle onto the retry/fallback counters — keep one
    /// before boxing the controller into a simulation.
    pub fn stats(&self) -> DegradeStats {
        self.stats.clone()
    }

    /// Synthesizes the degraded outcome: hold the placement for one
    /// period, recompute routing from it, bill at posted prices.
    fn fallback_outcome(&self, observed_demand: &[f64]) -> StepOutcome {
        let problem = self.inner.problem();
        let allocation: Allocation = self.inner.allocation().clone();
        let control = vec![0.0; problem.num_arcs()];
        let routing = RoutingPolicy::from_allocation(problem, &allocation);
        let step_cost = PeriodCost::compute(problem, &allocation, &control, self.period + 1);
        // A degraded period plans nothing beyond itself: persist the
        // observation as the one-step "forecast" and report the held
        // placement's cost as the plan.
        let predicted_demand: Vec<Vec<f64>> = observed_demand.iter().map(|&d| vec![d]).collect();
        StepOutcome {
            period: self.period,
            allocation,
            control,
            routing,
            predicted_demand,
            planned_objective: step_cost.total(),
            step_cost,
            solver_iterations: 0,
            recovery: None,
            fallback: true,
        }
    }
}

impl PlacementPolicy for ResilientController {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        let mut attempt = 0usize;
        let last_error = loop {
            match self.inner.step(observed_demand) {
                Ok(outcome) => {
                    self.period += 1;
                    self.consecutive_fallbacks = 0;
                    return Ok(outcome);
                }
                Err(CoreError::Solver(e)) => {
                    self.stats.solver_failures.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.incr("runtime.solver_failures", 1);
                    if attempt < self.policy.max_retries {
                        attempt += 1;
                        self.stats.retries.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.incr("runtime.retries", 1);
                        continue;
                    }
                    break e;
                }
                // Anything but a solver failure (shape errors, invalid
                // specs) is a bug in the scenario, not an outage: surface
                // it immediately.
                Err(other) => return Err(other),
            }
        };
        if self.consecutive_fallbacks >= self.policy.max_consecutive_fallbacks {
            self.telemetry.tracer().event_with(
                "runtime.fallback_budget_exhausted",
                [
                    ("severity", AttrValue::Str("error".into())),
                    ("period", AttrValue::UInt(self.period as u64)),
                    (
                        "consecutive",
                        AttrValue::UInt(self.consecutive_fallbacks as u64),
                    ),
                ],
            );
            return Err(CoreError::Solver(last_error));
        }
        let outcome = self.fallback_outcome(observed_demand);
        self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
        self.telemetry.incr("runtime.fallback", 1);
        self.telemetry.tracer().event_with(
            "runtime.fallback",
            [
                ("severity", AttrValue::Str("warning".into())),
                ("period", AttrValue::UInt(self.period as u64)),
                ("error", AttrValue::Str(last_error.to_string())),
                ("attempts", AttrValue::UInt(attempt as u64 + 1)),
                ("held_servers", AttrValue::Float(outcome.allocation.total())),
            ],
        );
        self.inner.note_fallback(observed_demand);
        self.period += 1;
        self.consecutive_fallbacks += 1;
        Ok(outcome)
    }

    fn allocation(&self) -> &Allocation {
        self.inner.allocation()
    }

    fn problem(&self) -> &Dspp {
        self.inner.problem()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.inner.attach_telemetry(telemetry);
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        self.inner.restore(checkpoint)?;
        self.period = checkpoint.period;
        self.consecutive_fallbacks = 0;
        Ok(())
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        self.inner.note_fallback(observed_demand);
        self.period += 1;
    }

    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        self.inner.set_capacity_schedule(schedule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, FaultingController};
    use dspp_core::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::LastValue;

    fn mpc() -> Box<MpcController> {
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
    fn outage_triggers_retries_then_fallback_with_held_placement() {
        let telemetry = Recorder::enabled();
        let faulty = FaultingController::new(mpc(), FaultPlan::new().solver_outage(1, 1))
            .with_telemetry(telemetry.clone());
        let fault_stats = faulty.stats();
        let mut c = ResilientController::new(
            Box::new(faulty),
            RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
        )
        .with_telemetry(telemetry.clone());
        let stats = c.stats();

        let healthy = c.step(&[50.0]).unwrap();
        assert!(healthy.allocation.total() > 0.0);

        // Period 1 is an outage: 1 attempt + 2 retries all fail, then the
        // placement is held with u = 0.
        let degraded = c.step(&[60.0]).unwrap();
        assert_eq!(degraded.period, 1);
        assert_eq!(degraded.allocation, healthy.allocation);
        assert!(degraded.control.iter().all(|&u| u == 0.0));
        assert_eq!(degraded.solver_iterations, 0);
        assert!((degraded.step_cost.hosting - healthy.allocation.total()).abs() < 1e-12);
        assert_eq!(degraded.step_cost.reconfiguration, 0.0);
        assert_eq!(fault_stats.injected(), 3);
        assert_eq!(stats.solver_failures(), 3);
        assert_eq!(stats.retries(), 2);
        assert_eq!(stats.fallbacks(), 1);

        // Period 2 is healthy again and the controller recovered: demand
        // history includes the fallback period's observation.
        let recovered = c.step(&[60.0]).unwrap();
        assert_eq!(recovered.period, 2);
        assert!(recovered.allocation.total() > 0.0);

        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("runtime.fallback"), 1);
        assert_eq!(snap.counter("runtime.retries"), 2);
        assert_eq!(snap.counter("runtime.solver_failures"), 3);
        assert_eq!(snap.counter("runtime.injected_faults"), 3);
    }

    #[test]
    fn non_solver_errors_propagate_immediately() {
        let mut c = ResilientController::new(mpc(), RetryPolicy::default());
        let err = c.step(&[-1.0]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)));
        assert_eq!(c.stats().retries(), 0);
        assert_eq!(c.stats().fallbacks(), 0);
    }

    #[test]
    fn fallback_budget_bounds_consecutive_degradation() {
        // Outage longer than the budget: the run must eventually error
        // rather than ride the stale placement forever.
        let faulty = FaultingController::new(mpc(), FaultPlan::new().solver_outage(1, 10));
        let mut c = ResilientController::new(
            Box::new(faulty),
            RetryPolicy {
                max_retries: 0,
                max_consecutive_fallbacks: 2,
            },
        );
        c.step(&[50.0]).unwrap();
        assert!(c.step(&[50.0]).is_ok(), "fallback 1");
        assert!(c.step(&[50.0]).is_ok(), "fallback 2");
        let err = c.step(&[50.0]).unwrap_err();
        assert!(matches!(err, CoreError::Solver(_)));
    }

    #[test]
    fn checkpoint_passes_through_the_wrapper_stack() {
        let faulty = FaultingController::new(mpc(), FaultPlan::new());
        let mut c = ResilientController::new(Box::new(faulty), RetryPolicy::default());
        c.step(&[40.0]).unwrap();
        c.step(&[50.0]).unwrap();
        let ck = PlacementPolicy::checkpoint(&c).unwrap();
        assert_eq!(ck.period, 2);

        let faulty = FaultingController::new(mpc(), FaultPlan::new());
        let mut fresh = ResilientController::new(Box::new(faulty), RetryPolicy::default());
        fresh.restore(&ck).unwrap();
        let a = c.step(&[60.0]).unwrap();
        let b = fresh.step(&[60.0]).unwrap();
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.control, b.control);
    }
}

//! Timing decorators on the program's two trait seams.
//!
//! [`TimedPolicy`] wraps a [`PlacementPolicy`] and records, per step, the
//! wall time of the inner `step`, the allocations it made, and a copy of
//! its outcome. [`TimedPredictor`] wraps a [`Predictor`] and records the
//! wall time of every `forecast_all`. The closed loops own the decorated
//! objects; the benchmark reads the records through shared handles after
//! each period.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dspp_core::policy::PlacementPolicy;
use dspp_core::{Allocation, ControllerCheckpoint, CoreError, Dspp, StepOutcome};
use dspp_predict::Predictor;
use dspp_telemetry::Recorder;

use crate::alloc_count;

/// What one wrapped `step` did.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Wall time of the inner `step`, seconds.
    pub decide_s: f64,
    /// Allocations made by the process during the inner `step` (the loops
    /// call `step` with no other thread running).
    pub allocs: u64,
    /// The demand the policy observed.
    pub observed: Vec<f64>,
    /// The policy's allocation just before the step, per arc: with the
    /// step's control it gives the executed allocation before the policy
    /// clamps it at 0.
    pub prior: Vec<f64>,
    /// The outcome, or the error's message.
    pub result: Result<StepOutcome, String>,
    /// The policy's state just before the step; captured only when
    /// [`StepLog::capture_state`] is set (traced runs), since the copy is
    /// not free.
    pub before: Option<ControllerCheckpoint>,
}

/// Records of the steps not yet drained by the benchmark.
#[derive(Debug, Default)]
pub struct StepLog {
    /// Pending records, oldest first.
    pub records: Vec<StepRecord>,
    /// Whether to capture the pre-step checkpoint for the traced replay.
    pub capture_state: bool,
}

/// Shared handle to a [`StepLog`].
pub type SharedStepLog = Rc<RefCell<StepLog>>;

/// A [`PlacementPolicy`] decorator that times each `step`.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    log: SharedStepLog,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn PlacementPolicy>, log: SharedStepLog) -> Self {
        TimedPolicy { inner, log }
    }
}

impl PlacementPolicy for TimedPolicy {
    fn initial_placement(&self) -> Allocation {
        self.inner.initial_placement()
    }

    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        let before = if self.log.borrow().capture_state {
            self.inner.checkpoint()
        } else {
            None
        };
        let prior = self.inner.allocation().arc_values().to_vec();
        let allocs_before = alloc_count::allocations();
        let start = Instant::now();
        let result = self.inner.step(observed_demand);
        let decide_s = start.elapsed().as_secs_f64();
        let allocs = alloc_count::allocations() - allocs_before;
        self.log.borrow_mut().records.push(StepRecord {
            decide_s,
            allocs,
            observed: observed_demand.to_vec(),
            prior,
            result: match &result {
                Ok(outcome) => Ok(outcome.clone()),
                Err(e) => Err(e.to_string()),
            },
            before,
        });
        result
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
        self.inner.restore(checkpoint)
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        self.inner.note_fallback(observed_demand);
    }

    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        self.inner.set_capacity_schedule(schedule);
    }
}

/// Shared list of `forecast_all` wall times, seconds.
pub type SharedForecastLog = Arc<Mutex<Vec<f64>>>;

/// A [`Predictor`] decorator that times each `forecast_all`.
pub struct TimedPredictor {
    inner: Box<dyn Predictor>,
    log: SharedForecastLog,
}

impl TimedPredictor {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Predictor>, log: SharedForecastLog) -> Self {
        TimedPredictor { inner, log }
    }
}

impl Predictor for TimedPredictor {
    fn forecast_all(&self, histories: &[Vec<f64>], horizon: usize) -> Vec<Vec<f64>> {
        let start = Instant::now();
        let out = self.inner.forecast_all(histories, horizon);
        let elapsed = start.elapsed().as_secs_f64();
        self.log
            .lock()
            .expect("forecast log holder never panics while holding it")
            .push(elapsed);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Takes every pending forecast time and returns their sum, seconds.
pub fn drain_forecast_seconds(log: &SharedForecastLog) -> f64 {
    let mut times = log
        .lock()
        .expect("forecast log holder never panics while holding it");
    let total = times.iter().sum();
    times.clear();
    total
}

//! `dspp-runtime`: a parallel scenario-execution engine for the DSPP
//! workspace.
//!
//! The experiments and bench crates run many independent closed-loop
//! simulations (every figure of the paper's evaluation is one or more
//! [`dspp_sim::ClosedLoopSim`] runs). This crate turns that pattern into
//! an engine with three production-grade properties:
//!
//! * **Parallelism** — [`ScenarioPool`] drains a queue of labelled jobs
//!   across a fixed set of worker threads (std threads + channels, no
//!   external executor) and returns results in submission order, so
//!   parallel output is byte-identical to sequential.
//! * **Checkpoint/resume** — [`run_scenario`] can drill the persistence
//!   path mid-run: freeze a [`dspp_sim::SimCheckpoint`], round-trip it
//!   through JSON, restore, and continue. Deterministic solves make the
//!   resumed run bit-exact.
//! * **Fault injection and graceful degradation** — a [`FaultPlan`]
//!   schedules solver outages, flash-crowd demand spikes and price
//!   shocks; [`ResilientController`] absorbs solver failures with
//!   bounded retries and falls back to the last-known-good
//!   placement (`u = 0`), keeping the run alive and the books honest
//!   (`runtime.fallback` counters and events in telemetry).
//!
//! See `docs/OBSERVABILITY.md` ("Runtime: pools, checkpoints, fault
//! drills") for how the `runtime.*` metrics and spans fit the rest of
//! the observability story.
//!
//! # Examples
//!
//! ```
//! use dspp_core::{DsppBuilder, MpcController, MpcSettings};
//! use dspp_predict::LastValue;
//! use dspp_runtime::{run_scenarios, FaultPlan, ScenarioPool, ScenarioSpec};
//! use dspp_telemetry::Recorder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let demand = vec![vec![40.0, 60.0, 80.0, 60.0, 40.0]];
//! let specs = vec![
//!     ScenarioSpec::new("baseline", demand.clone()),
//!     ScenarioSpec::new("outage", demand.clone())
//!         .with_faults(FaultPlan::new().solver_outage(1, 1)),
//! ];
//! let pool = ScenarioPool::new(2);
//! let results = run_scenarios(
//!     &pool,
//!     specs,
//!     |_spec| {
//!         let problem = DsppBuilder::new(1, 1)
//!             .service_rate(100.0)
//!             .sla_latency(0.060)
//!             .latency_rows(vec![vec![0.010]])
//!             .price_trace(0, vec![1.0])
//!             .build()?;
//!         let mpc = MpcController::new(
//!             problem,
//!             Box::new(LastValue),
//!             MpcSettings { horizon: 3, ..MpcSettings::default() },
//!         )?;
//!         Ok(Box::new(mpc) as Box<_>)
//!     },
//!     &Recorder::disabled(),
//! );
//! let outage = results[1].as_ref().unwrap();
//! assert_eq!(outage.report.periods.len(), 4, "run survived the outage");
//! assert_eq!(outage.fallback_periods, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degrade;
mod fault;
mod pool;
mod scenario;
mod soak;
mod store;

pub use degrade::{DegradeStats, ResilientController, RetryPolicy};
pub use fault::{Fault, FaultPlan, FaultStats, FaultingController};
pub use pool::ScenarioPool;
pub use scenario::{run_scenario, run_scenarios, ScenarioOutcome, ScenarioSpec};
pub use soak::{run_soak, SoakReport, SoakSpec};
pub use store::{CheckpointStore, LoadedCheckpoint, StoreError};

/// Errors surfaced by the runtime engine.
#[derive(Debug)]
pub enum RuntimeError {
    /// A pool job panicked; the panic was contained to its slot.
    JobPanicked {
        /// The job's label.
        label: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A scenario failed with a core error (malformed spec, or a failure
    /// beyond what the retry policy and fallback budget absorb).
    Core(dspp_core::CoreError),
    /// A streaming soak drill failed inside the ingest front end.
    Ingest(dspp_ingest::IngestError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::JobPanicked { label, message } => {
                write!(f, "job {label:?} panicked: {message}")
            }
            RuntimeError::Core(e) => write!(f, "scenario failed: {e}"),
            RuntimeError::Ingest(e) => write!(f, "soak drill failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Core(e) => Some(e),
            RuntimeError::Ingest(e) => Some(e),
            RuntimeError::JobPanicked { .. } => None,
        }
    }
}

impl From<dspp_core::CoreError> for RuntimeError {
    fn from(e: dspp_core::CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

impl From<dspp_ingest::IngestError> for RuntimeError {
    fn from(e: dspp_ingest::IngestError) -> Self {
        RuntimeError::Ingest(e)
    }
}

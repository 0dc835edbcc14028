//! Closed-loop simulation for the `dspp` workspace.
//!
//! [`ClosedLoopSim`] is the *fluid* simulator behind every figure of the
//! paper's evaluation: it feeds a realized demand trace into any
//! [`dspp_core::PlacementPolicy`] period by period, applies the returned
//! allocation and routing, evaluates the M/M/1 SLA model analytically
//! ([`evaluate_sla`]), and accounts costs (`H_k`, `G_k`). The
//! request-level discrete-event simulator that checks that analytic model
//! lives beside its only caller, the `des_validates_fluid` integration
//! test.
//!
//! [`Monitor`] is the paper's monitoring module (architecture Figure 2):
//! online EWMA statistics and flash-crowd/price-spike anomaly flags.
//!
//! # Examples
//!
//! ```
//! use dspp_core::{DsppBuilder, MpcController, MpcSettings};
//! use dspp_predict::LastValue;
//! use dspp_sim::ClosedLoopSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = DsppBuilder::new(1, 1)
//!     .service_rate(100.0)
//!     .sla_latency(0.060)
//!     .latency_rows(vec![vec![0.010]])
//!     .price_trace(0, vec![1.0])
//!     .build()?;
//! let controller = MpcController::new(
//!     problem,
//!     Box::new(LastValue),
//!     MpcSettings { horizon: 3, ..MpcSettings::default() },
//! )?;
//! let demand = vec![vec![40.0, 50.0, 60.0, 50.0, 40.0]];
//! let report = ClosedLoopSim::new(Box::new(controller), demand)?.run()?;
//! assert_eq!(report.periods.len(), 4);
//! assert!(report.ledger.total() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod closed_loop;
mod fluid;
mod monitor;

pub use checkpoint::{SimCheckpoint, CHECKPOINT_SCHEMA_VERSION};
pub use closed_loop::{ClosedLoopSim, SimPeriod, SimReport};
pub use fluid::{evaluate_sla, SlaReport};
pub use monitor::Monitor;

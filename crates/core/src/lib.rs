//! The Dynamic Service Placement Problem (DSPP) and its MPC controller —
//! the primary contribution of Zhang et al., ICDCS 2012.
//!
//! A service provider leases servers across geographically distributed data
//! centers. Every control period it chooses, per data center `l` and client
//! location `v`, how many servers `x^{lv}` to run, paying
//! `p_k^l` per server-period plus a quadratic reconfiguration penalty
//! `c^l (u^{lv})²` on changes, subject to:
//!
//! * **SLA latency**: an M/M/1 queueing bound turns the latency target
//!   `d̄` into the linear coefficient `a^{lv} = 1/(μ − 1/(d̄ − d_{lv}))`
//!   so that serving rate `σ` needs `x ≥ a·σ` servers ([`SlaSpec`]).
//! * **Demand**: `Σ_l x^{lv}/a^{lv} ≥ D_k^v` for every location.
//! * **Capacity**: `Σ_v x^{lv} ≤ C^l` for every data center.
//!
//! The crate models the problem ([`Dspp`], [`DsppBuilder`]), assembles the
//! horizon-truncated linear-quadratic program ([`HorizonProblem`]), and
//! implements the paper's Algorithm 1 ([`MpcController`]): predict demand
//! over a window, solve, execute only the first control, repeat. Request
//! routers split demand proportionally to `x^{lv}/a^{lv}` (eq. 13,
//! [`RoutingPolicy`]).
//!
//! Placement strategies are pluggable: every controller implements the
//! [`PlacementPolicy`] trait. [`MpcController`] is the reference policy,
//! next to a suite of simple baselines ([`StaticCheapestDc`],
//! [`ReactiveThreshold`], [`ProportionalGreedy`]) —
//! see `docs/POLICIES.md` for the handbook and the measured
//! simple-vs-optimal gap.
//!
//! # Examples
//!
//! ```
//! use dspp_core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy};
//! use dspp_predict::OraclePredictor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let demand = vec![vec![40.0, 60.0, 80.0, 60.0, 40.0, 20.0]];
//! let problem = DsppBuilder::new(1, 1)
//!     .service_rate(100.0)
//!     .network_latency(0, 0, 0.005)
//!     .sla_latency(0.055)
//!     .capacity(0, 100.0)
//!     .price_trace(0, vec![1.0; 6])
//!     .reconfiguration_weight(0, 0.5)
//!     .build()?;
//! let mut controller = MpcController::new(
//!     problem,
//!     Box::new(OraclePredictor::new(demand.clone())),
//!     MpcSettings { horizon: 3, ..MpcSettings::default() },
//! )?;
//! let outcome = controller.step(&[demand[0][0]])?;
//! assert!(outcome.allocation.total() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod allocation;
mod controller;
mod cost;
mod error;
mod horizon;
mod integer;
pub mod policy;
mod problem;
mod router;
mod sla;

pub use allocation::Allocation;
pub use controller::{ControllerCheckpoint, MpcController, MpcSettings, RecoveryInfo, StepOutcome};
pub use cost::{CostLedger, PeriodCost};
pub use error::CoreError;
pub use horizon::{Decision, HorizonPart, HorizonProblem, RecoveryOutcome, RecoverySettings};
pub use integer::{integerize, IntegerizingController};
pub use policy::{
    PlacementPolicy, ProportionalGreedy, ReactiveThreshold, StaticCheapestDc, UtilizationBands,
};
pub use problem::{Dspp, DsppBuilder};
pub use router::RoutingPolicy;
pub use sla::SlaSpec;

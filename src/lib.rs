//! # dspp — Dynamic Service Placement in Geographically Distributed Clouds
//!
//! A full reproduction of Zhang, Zhu, Zhani & Boutaba,
//! *"Dynamic Service Placement in Geographically Distributed Clouds"*,
//! ICDCS 2012: a Model-Predictive-Control service-placement controller, a
//! multi-provider resource-competition game, and every substrate the paper's
//! evaluation needs (a structured QP solver, a city database with
//! great-circle latencies, workload generators, regional electricity
//! pricing, demand prediction, and a closed-loop simulator).
//!
//! This crate is a facade that re-exports the workspace crates under stable
//! module names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`linalg`] | `dspp-linalg` | dense vectors/matrices, Cholesky (single and lane-batched), QR, Schur-complement workspace |
//! | [`solver`] | `dspp-solver` | structured KKT interior point (every placement solve), recovery relaxation, feasibility preflight |
//! | [`topology`] | `dspp-topology` | US cities and DC sites, great-circle latency matrix |
//! | [`workload`] | `dspp-workload` | diurnal Poisson demand, flash crowds |
//! | [`pricing`] | `dspp-pricing` | regional electricity markets, VM power |
//! | [`predict`] | `dspp-predict` | AR(p), seasonal-naive, oracle predictors |
//! | [`core`] | `dspp-core` | DSPP model, MPC controller, request router |
//! | [`game`] | `dspp-game` | best-response Algorithm 2, SWP, ε-Nash gaps |
//! | [`sim`] | `dspp-sim` | fluid closed loop, analytic M/M/1 SLA evaluation, EWMA monitor |
//! | [`ingest`] | `dspp-ingest` | streaming front end: event generators, snapshot routing, shard tallies sealed into per-period demand |
//! | [`telemetry`] | `dspp-telemetry` | counters/gauges/histograms, snapshots (`docs/OBSERVABILITY.md`) |
//!
//! # Quickstart
//!
//! ```
//! use dspp::core::{DsppBuilder, MpcController, MpcSettings};
//! use dspp::predict::OraclePredictor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One data center, one client location, 6 control periods.
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

pub use dspp_core as core;
pub use dspp_game as game;
pub use dspp_ingest as ingest;
pub use dspp_linalg as linalg;
pub use dspp_predict as predict;
pub use dspp_pricing as pricing;
pub use dspp_runtime as runtime;
pub use dspp_sim as sim;
pub use dspp_solver as solver;
pub use dspp_telemetry as telemetry;
pub use dspp_topology as topology;
pub use dspp_workload as workload;

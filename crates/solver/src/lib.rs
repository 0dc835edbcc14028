//! The structured interior-point solver behind every DSPP horizon solve.
//!
//! The ICDCS'12 dynamic service placement problem (DSPP) is a
//! linear-quadratic program solved repeatedly inside a model-predictive
//! control loop, and its multi-provider extension needs the *dual variables*
//! of the data-center capacity constraints (Algorithm 2 of the paper). The
//! Rust ecosystem has no mature QP solver that exposes all of this, so this
//! crate implements one from scratch:
//!
//! * [`StructuredLq`] — the DSPP horizon problem and nothing more: hosting
//!   prices, one reconfiguration diagonal, demand and capacity rows (each
//!   arc's non-negativity row is implicit).
//! * [`solve_structured`] — a primal–dual interior-point method (Mehrotra
//!   predictor–corrector) whose Newton systems are condensed onto per-arc
//!   chains and a small dense capacity Schur complement, so the cost per
//!   iteration is near-linear in arcs. It handles the always-feasible
//!   recovery relaxation ([`solve_structured_relaxed_traced`]) and
//!   zero-capacity (dead data center) slots natively.
//! * [`preflight_structured`] — the aggregate per-period feasibility
//!   check run before a solve.
//! * [`WarmStartTracker`] — warm-start bookkeeping across MPC periods.
//!
//! Every solve returns primal *and* dual solutions; the game crate reads
//! the capacity-row multipliers out of [`LqSolution::stage_duals`].
//!
//! The dense solvers this path is checked against — a dense QP interior
//! point and a Riccati LQ interior point, with the dense expansion of a
//! [`StructuredLq`] and its recovery relaxation — live in the test-only
//! `dspp-oracle` crate, so no production build carries them.
//!
//! # Examples
//!
//! One data center, two locations, a two-period horizon: buy enough
//! capacity to cover each location's demand floor.
//!
//! ```
//! use dspp_linalg::Vector;
//! use dspp_solver::{solve_structured, CouplingRow, IpmSettings, SolveStatus, StructuredLq};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Rows per slot: demand `−x_e ≤ −2` per location, then the capacity
//! // row `x_0 + x_1 ≤ 10`; every arc's `−x_e ≤ 0` is implicit.
//! let demand = (0..2).map(|e| CouplingRow { entries: vec![(e, -1.0)] }).collect();
//! let capacity = vec![CouplingRow { entries: vec![(0, 1.0), (1, 1.0)] }];
//! let rhs = Vector::from(vec![-2.0, -2.0, 10.0]);
//! let w = 2;
//! let problem = StructuredLq::new(
//!     Vector::zeros(2),                      // x_0
//!     vec![Vector::from(vec![1.0, 3.0]); w], // hosting prices per slot
//!     Vector::filled(2, 0.2),                // reconfiguration diagonal
//!     demand,
//!     capacity,
//!     vec![rhs; w],
//! )?;
//! let sol = solve_structured(&problem, &IpmSettings::default())?;
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert!(sol.xs[w][0] >= 2.0 - 1e-6 && sol.xs[w][1] >= 2.0 - 1e-6);
//! assert!(sol.stage_duals[w][0] > 0.0); // the demand floor binds
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod feasibility;
mod settings;
mod skkt;
mod solution;
mod structured;
mod warm;

pub use error::SolverError;
pub use feasibility::{preflight_structured, FeasibilityReport, PeriodFeasibility};
pub use settings::IpmSettings;
pub use skkt::{solve_structured, solve_structured_relaxed_traced, solve_structured_warm_traced};
pub use solution::{LqSolution, RelaxedSolution, SoftSpec, SolveStatus};
pub use structured::{CouplingRow, StructuredLq};
pub use warm::WarmStartTracker;

//! Convex quadratic-programming solvers for the `dspp` workspace.
//!
//! The ICDCS'12 dynamic service placement problem (DSPP) is a
//! linear-quadratic program solved repeatedly inside a model-predictive
//! control loop, and its multi-provider extension needs the *dual variables*
//! of the data-center capacity constraints (Algorithm 2 of the paper). The
//! Rust ecosystem has no mature QP solver that exposes all of this, so this
//! crate implements them from scratch:
//!
//! * [`StructuredLq`] / [`solve_structured`] — the production path for every
//!   DSPP horizon: a primal–dual interior-point method (Mehrotra
//!   predictor–corrector) whose Newton systems are condensed onto per-arc
//!   chains and a small dense capacity Schur complement, so the cost per
//!   iteration is near-linear in arcs. It handles input box bounds
//!   (reconfiguration rate limits), the always-feasible recovery
//!   relaxation ([`solve_structured_relaxed_traced`]) and zero-capacity
//!   (dead data center) slots natively.
//! * [`QpProblem`] / [`solve_qp`] — a dense interior-point method for
//!   `min ½xᵀPx + qᵀx  s.t.  Ax = b, Gx ≤ h`. Newton systems are solved by
//!   Cholesky (no equalities) or by a regularized quasi-definite LDLᵀ
//!   (with equalities).
//! * [`LqProblem`] / [`solve_lq`] — the same interior-point method for
//!   general *stage-structured* problems `x_{k+1} = A_k x_k + B_k u_k + c_k`
//!   with stage costs and stage constraints, each Newton step solved by a
//!   Riccati backward recursion (`O(N·n³)` per iteration).
//!
//! All solvers return full primal *and* dual solutions; the game crate
//! reads the capacity-row multipliers out of [`LqSolution::stage_duals`].
//!
//! The dense solvers are the oracles: [`StructuredLq::to_lq`] expands a
//! structured problem, [`relax_lq_slots`] builds the dense recovery
//! relaxation, and [`flatten_lq`] converts a stage-structured problem into
//! the equivalent dense QP. The test suites solve DSPP horizons every way
//! and require the answers to agree, so the independent implementations
//! cross-validate each other.
//!
//! # Examples
//!
//! Minimize `(x₀−1)² + (x₁−2)²` subject to `x₀ + x₁ ≤ 2`:
//!
//! ```
//! use dspp_linalg::{Matrix, Vector};
//! use dspp_solver::{solve_qp, IpmSettings, QpProblem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Matrix::from_diag(&Vector::from(vec![2.0, 2.0]));
//! let q = Vector::from(vec![-2.0, -4.0]);
//! let g = Matrix::from_rows(&[&[1.0, 1.0]])?;
//! let h = Vector::from(vec![2.0]);
//! let problem = QpProblem::new(p, q)?.with_inequalities(g, h)?;
//! let sol = solve_qp(&problem, &IpmSettings::default())?;
//! assert!((sol.x[0] - 0.5).abs() < 1e-6);
//! assert!((sol.x[1] - 1.5).abs() < 1e-6);
//! assert!(sol.z[0] > 0.0); // the constraint is active
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod feasibility;
mod flatten;
mod ipm;
mod lq;
mod lq_common;
mod lq_ipm;
mod qp;
mod relax;
mod riccati;
mod settings;
mod skkt;
mod structured;
mod warm;

pub use error::SolverError;
pub use feasibility::{preflight_structured, FeasibilityReport, LqRowLayout, PeriodFeasibility};
pub use flatten::flatten_lq;
pub use ipm::{solve_qp, solve_qp_traced};
pub use lq::{LqProblem, LqSolution, LqStage, LqTerminal};
pub use lq_ipm::{solve_lq, solve_lq_traced, solve_lq_warm, solve_lq_warm_traced};
pub use qp::{QpProblem, QpSolution, SolveStatus};
pub use relax::{relax_lq, relax_lq_slots, RelaxedLq, RelaxedSolution, SoftSpec};
pub use settings::IpmSettings;
pub use skkt::{
    solve_structured, solve_structured_relaxed_traced, solve_structured_warm,
    solve_structured_warm_traced,
};
pub use structured::{CouplingRow, DiagRow, StructuredLq};
pub use warm::WarmStartTracker;

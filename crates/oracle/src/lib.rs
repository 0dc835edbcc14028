//! Dense oracles for the structured solver in `dspp-solver`.
//!
//! Every DSPP horizon is solved in production by
//! [`dspp_solver::solve_structured`]. This test-only crate holds the
//! independent dense implementations the test suites and the
//! solver-scaling sweep check it against; no production crate depends on
//! it.
//!
//! * [`expand`] writes a [`StructuredLq`](dspp_solver::StructuredLq) out as
//!   the equivalent dense stage-structured [`LqProblem`].
//! * [`solve_lq`] solves an [`LqProblem`] with a primal–dual interior-point
//!   method whose Newton steps come from a Riccati backward recursion
//!   (`O(N·n³)` per iteration).
//! * [`relax_lq`] builds the dense recovery relaxation: every constrained
//!   slot but stage 0 gains slack on its leading rows.
//!   [`RelaxedLq::solve`] solves it with the structured path's gap test,
//!   scaled by the strict objective.
//! * [`flatten_lq`] turns an [`LqProblem`] into the equivalent dense
//!   [`QpProblem`], and [`solve_qp`] solves it with a dense Mehrotra
//!   interior point (Cholesky, or a regularized quasi-definite `LDLᵀ`
//!   with equalities).
//!
//! The oracles run cold and untraced. They reuse only `dspp-solver`'s
//! types (settings, errors, solutions), never its interior-point logic,
//! so a bug in a production helper cannot certify itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod expand;
mod flatten;
mod ipm;
mod ldlt;
mod lq;
mod lq_ipm;
mod qp;
mod relax;
mod riccati;

/// Static regularization on the Newton system's diagonal, boosted after
/// a failed factorization; the structured solver's value, kept here so
/// the oracles stay an independent reference.
const REGULARIZATION: f64 = 1e-9;
/// Fraction-to-boundary factor of every interior-point step.
const STEP_FRACTION: f64 = 0.99;
/// Cold-start slack and dual margin.
const INIT_MARGIN: f64 = 1.0;

pub use expand::expand;
pub use flatten::{flatten_lq, FlattenedLq};
pub use ipm::solve_qp;
pub use lq::{LqProblem, LqStage, LqTerminal};
pub use lq_ipm::solve_lq;
pub use qp::{QpProblem, QpSolution};
pub use relax::{relax_lq, RelaxedLq};

//! Dense linear-algebra substrate for the `dspp` workspace.
//!
//! This crate provides exactly the numerical kernels the rest of the
//! reproduction needs — no more, no less:
//!
//! * [`Vector`] and [`Matrix`]: dense, row-major, `f64` containers with the
//!   arithmetic used by interior-point solvers (`axpy`, dot products,
//!   matrix–vector and matrix–matrix products, norms).
//! * [`Cholesky`]: factorization of symmetric positive-definite matrices,
//!   used for the Newton systems of the QP solvers.
//! * [`CholeskyLanes`]: [`LANES`] small SPD matrices of one dimension
//!   factored, inverted and solved side by side, each lane bit-identical
//!   to [`Cholesky`] on its matrix alone — the location blocks of the
//!   structured KKT path.
//! * [`SchurComplement`]: a dense Schur-system workspace for the
//!   structure-exploiting KKT path every placement solve takes. It tests
//!   each pivot against its own row's scale
//!   ([`Cholesky::refactor_rowwise`]), because barrier-scaled blocks span
//!   many decades on one diagonal.
//! * [`Ldlt`]: an `LDLᵀ` factorization for symmetric *quasi-definite*
//!   matrices (with static regularization), used for augmented KKT systems.
//! * [`Qr`]: Householder QR for least-squares problems (AR model fitting).
//!
//! # Examples
//!
//! ```
//! use dspp_linalg::{Matrix, Vector, Cholesky};
//!
//! # fn main() -> Result<(), dspp_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = Cholesky::factor(&a)?;
//! let x = chol.solve(&Vector::from(vec![1.0, 2.0]));
//! let r = &a.matvec(&x) - &Vector::from(vec![1.0, 2.0]);
//! assert!(r.norm_inf() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod lanes;
mod ldlt;
mod matrix;
#[cfg(test)]
mod oracle;
mod qr;
mod schur;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lanes::{CholeskyLanes, Lanes, LANES};
pub use ldlt::Ldlt;
pub use matrix::Matrix;
pub use qr::Qr;
pub use schur::SchurComplement;
pub use vector::Vector;

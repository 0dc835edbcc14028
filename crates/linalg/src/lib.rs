//! Dense linear-algebra substrate for the `dspp` workspace.
//!
//! This crate provides exactly the numerical kernels the production solve
//! path and AR model fitting run — the dense products the test-only
//! oracles need live in `dspp-oracle`:
//!
//! * [`Vector`] and [`Matrix`]: dense, row-major, `f64` containers.
//!   `Vector` carries the BLAS-1 operations of the interior-point loop
//!   (`axpy`, dot products, norms).
//! * [`Cholesky`]: factorization of symmetric positive-definite matrices
//!   into reusable storage.
//! * [`CholeskyLanes`]: [`LANES`] small banded SPD matrices of one
//!   dimension and bandwidth factored, inverted (by Takahashi's
//!   recurrence) and solved side by side, skipping everything outside the
//!   band; each lane's factor and solves equal [`Cholesky`] on its matrix
//!   alone (bit for bit at the full band) — the location blocks of the
//!   structured KKT path.
//! * [`SchurComplement`]: a dense Schur-system workspace for the
//!   structure-exploiting KKT path every placement solve takes. It tests
//!   each pivot against its own row's scale
//!   ([`Cholesky::refactor_rowwise`]), because barrier-scaled blocks span
//!   many decades on one diagonal.
//! * [`Qr`]: Householder QR for least-squares problems (AR model fitting).
//!
//! # Examples
//!
//! ```
//! use dspp_linalg::{Cholesky, Matrix, Vector};
//!
//! # fn main() -> Result<(), dspp_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let mut chol = Cholesky::unfactored(2);
//! chol.refactor(&a, 0.0)?;
//! let b = Vector::from(vec![1.0, 2.0]);
//! let mut x = b.clone();
//! chol.solve_in_place(&mut x);
//! for i in 0..2 {
//!     let ax = Vector::from(a.row(i)).dot(&x);
//!     assert!((ax - b[i]).abs() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod error;
mod lanes;
mod matrix;
#[cfg(test)]
mod oracle;
mod qr;
mod schur;
mod vector;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lanes::{CholeskyLanes, Lanes, LANES};
pub use matrix::Matrix;
pub use qr::Qr;
pub use schur::SchurComplement;
pub use vector::Vector;

//! Dense Schur-complement workspace for coupling-row elimination.
//!
//! Block elimination of a structured KKT system leaves one small dense
//! system over the coupling rows (the Schur complement). This type owns
//! that system's storage — an accumulation matrix, its Cholesky factor,
//! and a validity flag — so a solver can rebuild and refactor it every
//! interior-point iteration without allocating.

use crate::{Cholesky, LinalgError, Matrix, Vector};

/// Workspace for a dense symmetric positive-definite Schur system:
/// accumulate `S` in place, factor it, and solve.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{SchurComplement, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let mut s = SchurComplement::new(2);
/// s.add_diag_entry(0, 2.0);
/// s.add_diag_entry(1, 2.0);
/// s.matrix_mut()[(1, 0)] = 1.0; // the factorization reads the lower triangle
/// s.refactor(0.0)?;
/// let mut x = Vector::from(vec![3.0, 3.0]);
/// s.solve_in_place(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SchurComplement {
    /// The accumulated Schur matrix `S`.
    mat: Matrix,
    /// Cholesky factor of the last successful [`SchurComplement::refactor`].
    chol: Cholesky,
    valid: bool,
}

impl SchurComplement {
    /// Allocates a `dim × dim` Schur workspace, initially all zeros and
    /// unfactored.
    pub fn new(dim: usize) -> Self {
        SchurComplement {
            mat: Matrix::zeros(dim, dim),
            chol: Cholesky::unfactored(dim),
            valid: false,
        }
    }

    /// Dimension of the Schur system.
    pub fn dim(&self) -> usize {
        self.mat.rows()
    }

    /// Whether the last [`SchurComplement::refactor`] succeeded.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Zeroes the accumulation matrix (start of a new assembly) and marks
    /// the factor stale.
    pub fn reset(&mut self) {
        self.valid = false;
        let n = self.mat.rows();
        for i in 0..n {
            for j in 0..n {
                self.mat[(i, j)] = 0.0;
            }
        }
    }

    /// Mutable access to the accumulation matrix for custom assembly loops.
    /// [`SchurComplement::refactor`] reads only its lower triangle, so a
    /// loop may assemble that alone.
    pub fn matrix_mut(&mut self) -> &mut Matrix {
        self.valid = false;
        &mut self.mat
    }

    /// Adds `v` to the diagonal entry `i`.
    pub fn add_diag_entry(&mut self, i: usize, v: f64) {
        self.valid = false;
        self.mat[(i, i)] += v;
    }

    /// Fraction of structurally nonzero entries in the assembled `S` (1.0
    /// for a fully dense system, 0.0 for an empty one) — exported as the
    /// `solver.lq.schur_fill` gauge. Counted on the lower triangle, the
    /// part the factorization reads, with each off-diagonal nonzero
    /// standing for its mirror too. Scans the matrix on every call, so a
    /// solver reads it only when it reports the gauge.
    pub fn fill_ratio(&self) -> f64 {
        let n = self.mat.rows();
        let nnz: usize = (0..n)
            .map(|i| {
                let row = &self.mat.row(i)[..=i];
                2 * row[..i].iter().filter(|&&v| v != 0.0).count() + usize::from(row[i] != 0.0)
            })
            .sum();
        nnz as f64 / (n * n).max(1) as f64
    }

    /// Factors the accumulated matrix (plus `reg · I`), testing each pivot
    /// against its own row's scale ([`Cholesky::refactor_rowwise`]): the
    /// inverse barrier weights on the diagonal of a capacity Schur system
    /// span as many decades as the weights themselves.
    ///
    /// On error the factor is unspecified; [`SchurComplement::is_valid`]
    /// reports `false` and [`SchurComplement::solve_in_place`] panics until
    /// a later refactor succeeds. The accumulation matrix itself is
    /// untouched, so a caller can retry with more regularization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if the accumulated system is
    /// not PD (within tolerance) — for a correctly assembled Schur
    /// complement of an SPD system this indicates severe ill-conditioning.
    pub fn refactor(&mut self, reg: f64) -> Result<(), LinalgError> {
        self.valid = false;
        self.chol.refactor_rowwise(&self.mat, reg)?;
        self.valid = true;
        Ok(())
    }

    /// Solves `S x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics if the last refactor failed (or never ran) or `b` has the
    /// wrong length.
    pub fn solve_in_place(&self, b: &mut Vector) {
        assert!(self.valid, "schur solve: system is not factored");
        self.chol.solve_in_place(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_factor_solve_roundtrip() {
        let mut s = SchurComplement::new(3);
        for i in 0..3 {
            s.add_diag_entry(i, 4.0);
        }
        s.matrix_mut()[(1, 2)] = 0.5;
        s.matrix_mut()[(2, 1)] = 0.5;
        s.refactor(0.0).unwrap();
        assert!(s.is_valid());
        // S = [[4,0,0],[0,4,.5],[0,.5,4]].
        let a = Matrix::from_rows(&[&[4.0, 0.0, 0.0], &[0.0, 4.0, 0.5], &[0.0, 0.5, 4.0]]).unwrap();
        let x_true = Vector::from(vec![1.0, -2.0, 0.5]);
        let mut b = crate::oracle::matvec(&a, &x_true);
        s.solve_in_place(&mut b);
        assert!((&b - &x_true).norm_inf() < 1e-12);
        // 3 diag + 2 off-diag nonzeros out of 9.
        assert!((s.fill_ratio() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_accumulation() {
        let mut s = SchurComplement::new(2);
        s.add_diag_entry(0, 1.0);
        s.add_diag_entry(1, 1.0);
        s.refactor(0.0).unwrap();
        s.reset();
        assert!(!s.is_valid());
        // After reset the matrix is zero: only reg makes it factorable.
        assert!(s.refactor(0.0).is_err());
        assert!(!s.is_valid());
        s.refactor(1.0).unwrap();
        let mut b = Vector::from(vec![2.0, 3.0]);
        s.solve_in_place(&mut b);
        assert!((b[0] - 2.0).abs() < 1e-12 && (b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_system_is_trivially_ok() {
        let mut s = SchurComplement::new(0);
        s.reset();
        s.refactor(0.0).unwrap();
        let mut b = Vector::zeros(0);
        s.solve_in_place(&mut b);
        assert_eq!(s.fill_ratio(), 0.0);
    }
}

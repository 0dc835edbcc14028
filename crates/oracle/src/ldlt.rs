//! `LDLᵀ` factorization for the dense QP oracle's augmented KKT systems.

use dspp_linalg::{LinalgError, Matrix, Vector};

/// `LDLᵀ` factorization (without pivoting) of a symmetric matrix.
///
/// Unlike [`Cholesky`](dspp_linalg::Cholesky), the diagonal `D` may contain negative entries,
/// so this factorization handles the symmetric *quasi-definite* KKT matrices
/// that arise when a QP has equality constraints:
///
/// ```text
/// [ P + GᵀWG + δI    Aᵀ   ]
/// [ A              -δI    ]
/// ```
///
/// Quasi-definite matrices are strongly factorizable without pivoting
/// (Vanderbei, 1995); the static regularization `±δ` supplied by the caller
/// keeps the pivots away from zero.
///
/// Only the lower triangle of the input is read.
#[derive(Debug, Clone)]
pub(crate) struct Ldlt {
    /// Unit lower-triangular factor (diagonal implicitly 1).
    l: Matrix,
    /// Diagonal of `D`.
    d: Vector,
}

impl Ldlt {
    /// Factors a symmetric matrix as `L D Lᵀ`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero. Callers
    ///   factoring KKT systems should regularize first (see the type docs).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch(format!(
                "ldlt: matrix is {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let mut l = Matrix::identity(n);
        let mut d = Vector::zeros(n);
        for j in 0..n {
            let mut dj = a[(j, j)];
            // Track the magnitude of the terms entering the pivot so the
            // singularity test is local to this row: KKT matrices mix scales
            // across rows (barrier weights can reach 1e14 while primal blocks
            // stay O(1)), so a global matrix-norm tolerance would flag
            // perfectly healthy pivots.
            let mut mag = a[(j, j)].abs();
            for k in 0..j {
                let ljk = l[(j, k)];
                let term = ljk * ljk * d[k];
                dj -= term;
                mag += term.abs();
            }
            if dj.abs() <= mag.max(1.0) * 1e-14 {
                return Err(LinalgError::Singular { pivot: j });
            }
            d[j] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)] * d[k];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Ldlt { l, d })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.d.len()
    }

    /// Solves `A x = b`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Vector {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut Vector) {
        let n = self.dim();
        assert_eq!(b.len(), n, "ldlt solve: rhs length {}", b.len());
        // L y = b (unit diagonal).
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            for (k, lik) in row.iter().enumerate().take(i) {
                s -= lik * b[k];
            }
            b[i] = s;
        }
        // D z = y.
        for i in 0..n {
            b[i] /= self.d[i];
        }
        // Lᵀ x = z.
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * b[k];
            }
            b[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Number of negative pivots (the matrix's negative inertia): for a
    /// well-posed KKT system, the number of equality constraints.
    fn negative_pivots(f: &Ldlt) -> usize {
        f.d.iter().filter(|&&x| x < 0.0).count()
    }

    #[test]
    fn factors_indefinite_kkt_matrix() {
        // [P Aᵀ; A -δ] with P = 2, A = 1, δ = 0.5.
        let k = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -0.5]]).unwrap();
        let f = Ldlt::factor(&k).unwrap();
        assert_eq!(negative_pivots(&f), 1);
        let b = Vector::from(vec![1.0, 2.0]);
        let x = f.solve(&b);
        assert!((&k.matvec(&x) - &b).norm_inf() < 1e-12);
    }

    #[test]
    fn agrees_with_cholesky_on_spd_input() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let ld = Ldlt::factor(&a).unwrap();
        assert_eq!(negative_pivots(&ld), 0);
        let ch = dspp_linalg::Cholesky::factor(&a).unwrap();
        let b = Vector::from(vec![1.0, -2.0, 3.0]);
        assert!((&ld.solve(&b) - &ch.solve(&b)).norm_inf() < 1e-10);
    }

    #[test]
    fn rejects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(matches!(
            Ldlt::factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(Ldlt::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn reconstruction_matches_input() {
        let k =
            Matrix::from_rows(&[&[3.0, 1.0, 2.0], &[1.0, 4.0, 0.0], &[2.0, 0.0, -1.5]]).unwrap();
        let f = Ldlt::factor(&k).unwrap();
        // Rebuild L D Lᵀ and compare.
        let l = f.l.clone();
        let d = Matrix::from_diag(&f.d);
        let rebuilt = l.matmul(&d).matmul(&l.transpose());
        assert!((&rebuilt - &k).norm_inf() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_quasi_definite_kkt_solves(
            p in 0.5f64..10.0,
            a1 in -5.0f64..5.0,
            a2 in -5.0f64..5.0,
            delta in 0.01f64..1.0,
        ) {
            // 3x3 KKT: 2 primal (diag p), 1 equality row [a1 a2].
            let k = Matrix::from_rows(&[
                &[p, 0.0, a1],
                &[0.0, p, a2],
                &[a1, a2, -delta],
            ]).unwrap();
            let f = Ldlt::factor(&k).unwrap();
            prop_assert_eq!(negative_pivots(&f), 1);
            let b = Vector::from(vec![1.0, 2.0, 3.0]);
            let x = f.solve(&b);
            prop_assert!((&k.matvec(&x) - &b).norm_inf() < 1e-8);
        }
    }
}

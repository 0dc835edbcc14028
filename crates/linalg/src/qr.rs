use crate::{LinalgError, Matrix, Vector};

/// Householder QR factorization of a tall (or square) matrix, `A = Q R`.
///
/// The primary consumer is least-squares fitting (AR model estimation in
/// `dspp-predict`): QR avoids squaring the condition number the way the
/// normal equations do.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Qr, Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// // Fit y = 2x + 1 exactly.
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]])?;
/// let y = Vector::from(vec![1.0, 3.0, 5.0]);
/// let beta = Qr::factor(&a)?.least_squares(&y)?;
/// assert!((beta[0] - 2.0).abs() < 1e-10 && (beta[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factors: R in the upper triangle, Householder vectors below.
    qr: Matrix,
    /// Scalar `beta` coefficients of the Householder reflectors.
    betas: Vec<f64>,
}

impl Qr {
    /// Factors a matrix with `rows >= cols`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the matrix is wider than
    /// it is tall.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LinalgError::DimensionMismatch(format!(
                "qr: matrix is {m}x{n}; need rows >= cols"
            )));
        }
        let mut qr = a.clone();
        let mut betas = Vec::with_capacity(n);
        for j in 0..n {
            // Householder vector for column j, rows j..m.
            let mut norm = 0.0;
            for i in j..m {
                norm += qr[(i, j)] * qr[(i, j)];
            }
            let norm = norm.sqrt();
            if norm == 0.0 {
                betas.push(0.0);
                continue;
            }
            let alpha = if qr[(j, j)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(j, j)] - alpha;
            // v = [v0, a_{j+1,j}, ..., a_{m-1,j}]; beta = 2 / (vᵀv)
            let mut vtv = v0 * v0;
            for i in (j + 1)..m {
                vtv += qr[(i, j)] * qr[(i, j)];
            }
            let beta = if vtv == 0.0 { 0.0 } else { 2.0 / vtv };
            // Apply reflector to remaining columns.
            for k in (j + 1)..n {
                let mut dot = v0 * qr[(j, k)];
                for i in (j + 1)..m {
                    dot += qr[(i, j)] * qr[(i, k)];
                }
                let s = beta * dot;
                qr[(j, k)] -= s * v0;
                for i in (j + 1)..m {
                    let vij = qr[(i, j)];
                    qr[(i, k)] -= s * vij;
                }
            }
            qr[(j, j)] = alpha;
            // Store v (below the diagonal); v0 is stored scaled into betas via
            // normalizing v so that its first entry is 1: v_i' = v_i / v0.
            if v0 != 0.0 {
                for i in (j + 1)..m {
                    qr[(i, j)] /= v0;
                }
                betas.push(beta * v0 * v0);
            } else {
                for i in (j + 1)..m {
                    qr[(i, j)] = 0.0;
                }
                betas.push(0.0);
            }
        }
        Ok(Qr { qr, betas })
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.qr.rows()
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.qr.cols()
    }

    /// Applies `Qᵀ` to a vector in place.
    fn apply_qt(&self, y: &mut Vector) {
        let (m, n) = (self.rows(), self.cols());
        for j in 0..n {
            let beta = self.betas[j];
            if beta == 0.0 {
                continue;
            }
            // v = [1, qr[j+1..m, j]]
            let mut dot = y[j];
            for i in (j + 1)..m {
                dot += self.qr[(i, j)] * y[i];
            }
            let s = beta * dot;
            y[j] -= s;
            for i in (j + 1)..m {
                y[i] -= s * self.qr[(i, j)];
            }
        }
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RankDeficient`] if a diagonal entry of `R` is
    /// numerically zero.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows()`.
    pub fn least_squares(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let (m, n) = (self.rows(), self.cols());
        assert_eq!(b.len(), m, "least_squares: rhs length {}", b.len());
        let mut y = b.clone();
        self.apply_qt(&mut y);
        let tol = self.qr.norm_inf().max(1.0) * 1e-12;
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.qr[(i, k)] * x[k];
            }
            let rii = self.qr[(i, i)];
            if rii.abs() <= tol {
                return Err(LinalgError::RankDeficient { column: i });
            }
            x[i] = s / rii;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{matvec, matvec_t};
    use proptest::prelude::*;

    /// A `rows × cols` matrix from row-major entries.
    fn from_entries(cols: usize, entries: &[f64]) -> Matrix {
        Matrix::from_rows(&entries.chunks(cols).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn exact_fit_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let xtrue = Vector::from(vec![1.0, -1.0]);
        let b = matvec(&a, &xtrue);
        let x = Qr::factor(&a).unwrap().least_squares(&b).unwrap();
        assert!((&x - &xtrue).norm_inf() < 1e-10);
    }

    #[test]
    fn overdetermined_fit_minimizes_residual() {
        // y = 3x - 2 with symmetric noise that cancels at the LS solution.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]).unwrap();
        let y = Vector::from(vec![-2.0 + 0.1, 1.0 - 0.1, 4.0 + 0.1, 7.0 - 0.1]);
        let beta = Qr::factor(&a).unwrap().least_squares(&y).unwrap();
        // Residual must be orthogonal to the column space.
        let r = &matvec(&a, &beta) - &y;
        let at_r = matvec_t(&a, &r);
        assert!(at_r.norm_inf() < 1e-10);
    }

    #[test]
    fn rejects_wide_matrix() {
        assert!(Qr::factor(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn detects_rank_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]).unwrap();
        let err = Qr::factor(&a)
            .unwrap()
            .least_squares(&Vector::filled(3, 1.0));
        assert!(matches!(err, Err(LinalgError::RankDeficient { .. })));
    }

    #[test]
    fn zero_column_is_rank_deficient_not_panic() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0], &[0.0, 3.0]]).unwrap();
        let res = Qr::factor(&a)
            .unwrap()
            .least_squares(&Vector::filled(3, 1.0));
        assert!(matches!(res, Err(LinalgError::RankDeficient { .. })));
    }

    proptest! {
        #[test]
        fn prop_consistent_system_recovers_solution(
            entries in prop::collection::vec(-5.0f64..5.0, 12),
            x0 in -5.0f64..5.0,
            x1 in -5.0f64..5.0,
            x2 in -5.0f64..5.0,
        ) {
            let mut a = from_entries(3, &entries);
            // Boost diagonal to keep the column space well conditioned.
            for i in 0..3 { a[(i, i)] += 8.0; }
            let xtrue = Vector::from(vec![x0, x1, x2]);
            let b = matvec(&a, &xtrue);
            let x = Qr::factor(&a).unwrap().least_squares(&b).unwrap();
            prop_assert!((&x - &xtrue).norm_inf() < 1e-7);
        }

        #[test]
        fn prop_residual_orthogonal_to_columns(
            entries in prop::collection::vec(-3.0f64..3.0, 10),
            rhs in prop::collection::vec(-3.0f64..3.0, 5),
        ) {
            let mut a = from_entries(2, &entries);
            a[(0,0)] += 5.0;
            a[(1,1)] += 5.0;
            let b = Vector::from(rhs);
            let x = Qr::factor(&a).unwrap().least_squares(&b).unwrap();
            let r = &matvec(&a, &x) - &b;
            prop_assert!(matvec_t(&a, &r).norm_inf() < 1e-8);
        }
    }
}

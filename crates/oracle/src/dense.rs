//! The dense kernels only the oracles run: products, Gram matrices, block
//! assembly and one-shot Cholesky solves, as extension traits on
//! `dspp-linalg`'s containers so the oracle code keeps method syntax.
//! Production solves never call them; `dspp-linalg` keeps only what the
//! structured path and AR fitting run.

use dspp_linalg::{Cholesky, LinalgError, Matrix, Vector};

/// Dense BLAS-2/3 style products and assembly on [`Matrix`]. Shape
/// mismatches are programming errors and panic.
pub(crate) trait MatrixOps {
    /// The `n × n` identity.
    fn identity(n: usize) -> Matrix;
    /// The square matrix with `diag` on its diagonal.
    fn from_diag(diag: &Vector) -> Matrix;
    /// Copies column `j` into `out`.
    fn col_into(&self, j: usize, out: &mut Vector);
    /// The transpose.
    fn transpose(&self) -> Matrix;
    /// Writes the transpose into `out`.
    fn transpose_into(&self, out: &mut Matrix);
    /// `A x`.
    fn matvec(&self, x: &Vector) -> Vector;
    /// Writes `A x` into `out`.
    fn matvec_into(&self, x: &Vector, out: &mut Vector);
    /// `out += alpha · A x`.
    fn matvec_acc(&self, alpha: f64, x: &Vector, out: &mut Vector);
    /// `Aᵀ x`.
    fn matvec_t(&self, x: &Vector) -> Vector;
    /// `out += alpha · Aᵀ x`.
    fn matvec_t_acc(&self, alpha: f64, x: &Vector, out: &mut Vector);
    /// Writes `A B` into `out`.
    fn matmul_into(&self, other: &Matrix, out: &mut Matrix);
    /// `out += alpha · A B`.
    fn matmul_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix);
    /// `out += alpha · Aᵀ B`, without materializing the transpose.
    fn matmul_t_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix);
    /// `Aᵀ diag(w) A`.
    fn weighted_gram(&self, w: &Vector) -> Matrix;
    /// `out += Aᵀ diag(w) A`.
    fn weighted_gram_acc(&self, w: &Vector, out: &mut Matrix);
    /// Writes `Aᵀ diag(w) B` into `out`.
    fn weighted_product_into(&self, w: &Vector, other: &Matrix, out: &mut Matrix);
    /// `self += alpha · other`.
    fn add_scaled(&mut self, alpha: f64, other: &Matrix);
    /// Averages the matrix with its transpose.
    fn symmetrize(&mut self);
    /// `self` stacked on top of `other`.
    fn vstack(&self, other: &Matrix) -> Matrix;
    /// Writes `block` with its top-left corner at `(r0, c0)`.
    fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix);
    /// Overwrites every entry with `other`'s.
    fn copy_from(&mut self, other: &Matrix);
    /// Whether every entry is finite.
    fn is_finite(&self) -> bool;
}

impl MatrixOps for Matrix {
    fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    fn from_diag(diag: &Vector) -> Matrix {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    fn col_into(&self, j: usize, out: &mut Vector) {
        assert!(
            j < self.cols(),
            "col {j} out of bounds ({} cols)",
            self.cols()
        );
        assert_eq!(out.len(), self.rows(), "col_into: output length");
        for i in 0..self.rows() {
            out[i] = self[(i, j)];
        }
    }

    fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols(), self.rows());
        self.transpose_into(&mut t);
        t
    }

    fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows(), out.cols()),
            (self.cols(), self.rows()),
            "transpose_into: output shape"
        );
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    fn matvec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows());
        self.matvec_into(x, &mut y);
        y
    }

    fn matvec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.cols(),
            "matvec_into: matrix is {}x{} but vector has length {}",
            self.rows(),
            self.cols(),
            x.len()
        );
        assert_eq!(out.len(), self.rows(), "matvec_into: output length");
        for i in 0..self.rows() {
            let mut acc = 0.0;
            for (a, b) in self.row(i).iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out[i] = acc;
        }
    }

    fn matvec_acc(&self, alpha: f64, x: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), self.cols(), "matvec_acc: vector length");
        assert_eq!(out.len(), self.rows(), "matvec_acc: output length");
        for i in 0..self.rows() {
            let mut acc = 0.0;
            for (a, b) in self.row(i).iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out[i] += alpha * acc;
        }
    }

    fn matvec_t(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.cols());
        self.matvec_t_acc(1.0, x, &mut y);
        y
    }

    fn matvec_t_acc(&self, alpha: f64, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.rows(),
            "matvec_t_acc: matrix is {}x{} but vector has length {}",
            self.rows(),
            self.cols(),
            x.len()
        );
        assert_eq!(out.len(), self.cols(), "matvec_t_acc: output length");
        for i in 0..self.rows() {
            let xi = alpha * x[i];
            if xi == 0.0 {
                continue;
            }
            for (j, a) in self.row(i).iter().enumerate() {
                out[j] += a * xi;
            }
        }
    }

    fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows(), other.cols()),
            "matmul_into: output shape"
        );
        for i in 0..out.rows() {
            out.row_mut(i).fill(0.0);
        }
        self.matmul_acc(1.0, other, out);
    }

    fn matmul_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul_acc: {}x{} times {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert_eq!(
            (out.rows(), out.cols()),
            (self.rows(), other.cols()),
            "matmul_acc: output shape"
        );
        for i in 0..self.rows() {
            for k in 0..self.cols() {
                let aik = alpha * self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for (o, b) in out.row_mut(i).iter_mut().zip(other.row(k)) {
                    *o += aik * b;
                }
            }
        }
    }

    fn matmul_t_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_t_acc: {}x{} transposed times {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        assert_eq!(
            (out.rows(), out.cols()),
            (self.cols(), other.cols()),
            "matmul_t_acc: output shape"
        );
        for k in 0..self.rows() {
            let brow = other.row(k);
            for (i, &a) in self.row(k).iter().enumerate() {
                let s = alpha * a;
                if s == 0.0 {
                    continue;
                }
                for (o, b) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += s * b;
                }
            }
        }
    }

    fn weighted_gram(&self, w: &Vector) -> Matrix {
        assert_eq!(
            w.len(),
            self.rows(),
            "weighted_gram: weight length mismatch"
        );
        let n = self.cols();
        let mut out = Matrix::zeros(n, n);
        for k in 0..self.rows() {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let row = self.row(k);
            for i in 0..n {
                let s = wk * row[i];
                if s == 0.0 {
                    continue;
                }
                for j in i..n {
                    out[(i, j)] += s * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    fn weighted_gram_acc(&self, w: &Vector, out: &mut Matrix) {
        assert_eq!(w.len(), self.rows(), "weighted_gram_acc: weight length");
        assert_eq!(
            (out.rows(), out.cols()),
            (self.cols(), self.cols()),
            "weighted_gram_acc: output shape"
        );
        for k in 0..self.rows() {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let row = self.row(k);
            for (i, &a) in row.iter().enumerate() {
                let s = wk * a;
                if s == 0.0 {
                    continue;
                }
                for (o, b) in out.row_mut(i).iter_mut().zip(row) {
                    *o += s * b;
                }
            }
        }
    }

    fn weighted_product_into(&self, w: &Vector, other: &Matrix, out: &mut Matrix) {
        assert_eq!(w.len(), self.rows(), "weighted_product_into: weight length");
        assert_eq!(
            self.rows(),
            other.rows(),
            "weighted_product_into: row mismatch"
        );
        assert_eq!(
            (out.rows(), out.cols()),
            (self.cols(), other.cols()),
            "weighted_product_into: output shape"
        );
        for i in 0..out.rows() {
            out.row_mut(i).fill(0.0);
        }
        for k in 0..self.rows() {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let brow = other.row(k);
            for (i, &a) in self.row(k).iter().enumerate() {
                let s = wk * a;
                if s == 0.0 {
                    continue;
                }
                for (o, b) in out.row_mut(i).iter_mut().zip(brow) {
                    *o += s * b;
                }
            }
        }
    }

    fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(
            (self.rows(), self.cols()),
            (other.rows(), other.cols()),
            "add_scaled: shape mismatch"
        );
        for i in 0..self.rows() {
            for (a, b) in self.row_mut(i).iter_mut().zip(other.row(i)) {
                *a += alpha * b;
            }
        }
    }

    fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows() {
            for j in (i + 1)..self.cols() {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "vstack: {} vs {} columns",
            self.cols(),
            other.cols()
        );
        let mut out = Matrix::zeros(self.rows() + other.rows(), self.cols());
        out.set_block(0, 0, self);
        out.set_block(self.rows(), 0, other);
        out
    }

    fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows() <= self.rows() && c0 + block.cols() <= self.cols(),
            "set_block: block {}x{} at ({r0},{c0}) exceeds {}x{}",
            block.rows(),
            block.cols(),
            self.rows(),
            self.cols()
        );
        for i in 0..block.rows() {
            self.row_mut(r0 + i)[c0..c0 + block.cols()].copy_from_slice(block.row(i));
        }
    }

    fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows(), self.cols()),
            (other.rows(), other.cols()),
            "copy_from: shape mismatch"
        );
        self.set_block(0, 0, other);
    }

    fn is_finite(&self) -> bool {
        (0..self.rows()).all(|i| self.row(i).iter().all(|x| x.is_finite()))
    }
}

/// One-shot factor-and-solve on [`Cholesky`], for oracles that factor a
/// fresh matrix instead of reusing a workspace.
pub(crate) trait CholeskyOps {
    /// Factors `a + reg · I` into fresh storage.
    fn factor_regularized(a: &Matrix, reg: f64) -> Result<Cholesky, LinalgError>;
    /// Solves `A x = b`.
    fn solve(&self, b: &Vector) -> Vector;
}

impl CholeskyOps for Cholesky {
    fn factor_regularized(a: &Matrix, reg: f64) -> Result<Cholesky, LinalgError> {
        let mut chol = Cholesky::unfactored(a.rows());
        chol.refactor(a, reg)?;
        Ok(chol)
    }

    fn solve(&self, b: &Vector) -> Vector {
        let mut x = b.clone();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    /// A `rows × cols` matrix from row-major entries.
    fn from_entries(cols: usize, entries: &[f64]) -> Matrix {
        Matrix::from_rows(&entries.chunks(cols).collect::<Vec<_>>()).unwrap()
    }

    /// `A B`.
    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        a.matmul_into(b, &mut out);
        out
    }

    /// `a − b`, entrywise.
    fn diff(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = a.clone();
        out.add_scaled(-1.0, b);
        out
    }

    #[test]
    fn constructors() {
        let i = Matrix::identity(2);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diag(&Vector::from(vec![2.0, 3.0]));
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn matvec_and_transpose() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let x = Vector::from(vec![1.0, -1.0]);
        assert_eq!(a.matvec(&x).as_slice(), &[-1.0, -1.0, -1.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (2, 3));
        assert_eq!(t[(0, 2)], 5.0);
        let y = Vector::from(vec![1.0, 1.0, 1.0]);
        assert_eq!(a.matvec_t(&y).as_slice(), t.matvec(&y).as_slice());
    }

    #[test]
    fn matmul_against_known_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(matmul(&a, &b), mat(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn weighted_gram_matches_explicit_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]);
        let w = Vector::from(vec![2.0, 0.5, 3.0]);
        let g = a.weighted_gram(&w);
        let explicit = matmul(&matmul(&a.transpose(), &Matrix::from_diag(&w)), &a);
        assert!(diff(&g, &explicit).norm_inf() < 1e-12);
    }

    #[test]
    fn weighted_product_matches_explicit_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[1.0], &[2.0]]);
        let w = Vector::from(vec![0.5, 2.0]);
        let mut p = mat(&[&[9.0], &[9.0]]);
        a.weighted_product_into(&w, &b, &mut p);
        let explicit = matmul(&matmul(&a.transpose(), &Matrix::from_diag(&w)), &b);
        assert!(diff(&p, &explicit).norm_inf() < 1e-12);
    }

    #[test]
    fn block_and_stack_operations() {
        let mut m = Matrix::zeros(3, 3);
        m.set_block(1, 1, &Matrix::identity(2));
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(0, 0)], 0.0);
        let a = Matrix::identity(2);
        let s = a.vstack(&a);
        assert_eq!((s.rows(), s.cols()), (4, 2));
        assert_eq!(s[(3, 1)], 1.0);
        let res = std::panic::catch_unwind(|| a.vstack(&Matrix::zeros(1, 3)));
        assert!(res.is_err(), "vstack must reject a column mismatch");
    }

    #[test]
    fn symmetrize_averages_with_the_transpose() {
        let mut m = mat(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m, mat(&[&[1.0, 3.0], &[3.0, 1.0]]));
    }

    #[test]
    fn col_access() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut c = Vector::zeros(2);
        a.col_into(1, &mut c);
        assert_eq!(c.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn in_place_kernels_match_allocating_counterparts() {
        let a = mat(&[&[1.0, 2.0, -1.0], &[0.5, -3.0, 2.0]]);
        let b = mat(&[&[2.0, 1.0], &[0.0, -1.0], &[1.5, 0.5]]);
        let x = Vector::from(vec![1.0, -2.0, 0.5]);
        let y = Vector::from(vec![2.0, 3.0]);
        let w = Vector::from(vec![0.5, 2.0]);

        let mut out = Vector::from(vec![9.0, 9.0]);
        a.matvec_into(&x, &mut out);
        assert_eq!(out, a.matvec(&x));
        a.matvec_acc(2.0, &x, &mut out);
        let mut x2 = x.clone();
        x2.scale(2.0);
        assert_eq!(out, &a.matvec(&x) + &a.matvec(&x2));

        let mut out_t = Vector::zeros(3);
        a.matvec_t_acc(1.0, &y, &mut out_t);
        assert_eq!(out_t, a.matvec_t(&y));
        a.matvec_t_acc(-1.0, &y, &mut out_t);
        assert!(out_t.norm_inf() < 1e-12);

        let mut prod = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut prod);
        a.matmul_acc(1.0, &b, &mut prod);
        let mut twice = matmul(&a, &b);
        twice.add_scaled(1.0, &matmul(&a, &b));
        assert_eq!(prod, twice);

        let mut tprod = Matrix::zeros(3, 3);
        let explicit = matmul(&a.transpose(), &b.transpose());
        a.matmul_t_acc(1.0, &b.transpose(), &mut tprod);
        assert!(diff(&tprod, &explicit).norm_inf() < 1e-12);

        let mut gram = Matrix::zeros(3, 3);
        a.weighted_gram_acc(&w, &mut gram);
        assert!(diff(&gram, &a.weighted_gram(&w)).norm_inf() < 1e-12);
        a.weighted_gram_acc(&w, &mut gram);
        let mut twice = a.weighted_gram(&w);
        twice.add_scaled(1.0, &a.weighted_gram(&w));
        assert!(diff(&gram, &twice).norm_inf() < 1e-12);

        let mut wp = Matrix::zeros(3, 3);
        a.weighted_product_into(&w, &b.transpose(), &mut wp);
        let explicit = matmul(
            &matmul(&a.transpose(), &Matrix::from_diag(&w)),
            &b.transpose(),
        );
        assert!(diff(&wp, &explicit).norm_inf() < 1e-12);

        let mut t = Matrix::zeros(3, 2);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut copy = Matrix::zeros(2, 3);
        copy.copy_from(&a);
        assert_eq!(copy, a);
        copy[(1, 2)] = f64::NAN;
        assert!(a.is_finite() && !copy.is_finite());
    }

    #[test]
    fn factor_solves_and_regularization_rescues_a_singular_matrix() {
        let a = mat(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let b = Vector::from(vec![10.0, 8.0]);
        let x = Cholesky::factor_regularized(&a, 0.0).unwrap().solve(&b);
        assert!((&a.matvec(&x) - &b).norm_inf() < 1e-12);
        assert!(matches!(
            Cholesky::factor_regularized(&Matrix::zeros(2, 3), 0.0),
            Err(LinalgError::DimensionMismatch(_))
        ));
        let singular = mat(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor_regularized(&singular, 0.0).is_err());
        assert!(Cholesky::factor_regularized(&singular, 1e-6).is_ok());
    }

    proptest! {
        #[test]
        fn prop_transpose_is_involution(
            entries in prop::collection::vec(-100.0f64..100.0, 12)
        ) {
            let a = from_entries(4, &entries);
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matvec_linear(
            entries in prop::collection::vec(-10.0f64..10.0, 6),
            x in prop::collection::vec(-10.0f64..10.0, 3),
            alpha in -5.0f64..5.0,
        ) {
            let a = from_entries(3, &entries);
            let x = Vector::from(x);
            let mut scaled = x.clone();
            scaled.scale(alpha);
            let lhs = a.matvec(&scaled);
            let mut rhs = a.matvec(&x);
            rhs.scale(alpha);
            prop_assert!((&lhs - &rhs).norm_inf() < 1e-9);
        }
    }
}

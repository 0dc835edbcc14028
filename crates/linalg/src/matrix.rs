use crate::{LinalgError, Vector};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// The matrix is a plain container plus the BLAS-2/3 style products the
/// solvers need. Structural errors (building a matrix from ragged rows) are
/// reported through [`LinalgError`]; shape mismatches in arithmetic are
/// programming errors and panic.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let y = a.matvec(&Vector::from(vec![1.0, 1.0]));
/// assert_eq!(y.as_slice(), &[3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn from_diag(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the rows have differing
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::DimensionMismatch(format!(
                    "from_rows: row 0 has {ncols} columns but row {i} has {}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "from_vec: {rows}x{cols} needs {} entries, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// All entries, flat and row-major: for kernels that update rows from
    /// one another.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copies column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copies column `j` into `out` (allocation-free [`Matrix::col`]).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols` or `out.len() != rows`.
    pub fn col_into(&self, j: usize, out: &mut Vector) {
        assert!(j < self.cols, "col {j} out of bounds ({} cols)", self.cols);
        assert_eq!(out.len(), self.rows, "col_into: output length");
        for i in 0..self.rows {
            out[i] = self[(i, j)];
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into `out` (allocation-free
    /// [`Matrix::transpose`]).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose_into: output shape"
        );
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Overwrites every entry with a copy of `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from: shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.rows);
        self.matvec_into(x, &mut y);
        y
    }

    /// Writes `A x` into `out` (allocation-free [`Matrix::matvec`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec_into: matrix is {}x{} but vector has length {}",
            self.rows,
            self.cols,
            x.len()
        );
        assert_eq!(out.len(), self.rows, "matvec_into: output length");
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out[i] = acc;
        }
    }

    /// Accumulates `out += alpha · A x` (gemv-style, allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_acc(&self, alpha: f64, x: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), self.cols, "matvec_acc: vector length");
        assert_eq!(out.len(), self.rows, "matvec_acc: output length");
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += a * b;
            }
            out[i] += alpha * acc;
        }
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.cols);
        self.matvec_t_acc(1.0, x, &mut y);
        y
    }

    /// Writes `Aᵀ x` into `out` (allocation-free [`Matrix::matvec_t`]).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn matvec_t_into(&self, x: &Vector, out: &mut Vector) {
        out.fill(0.0);
        self.matvec_t_acc(1.0, x, out);
    }

    /// Accumulates `out += alpha · Aᵀ x` (gemv-style, allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `out.len() != cols`.
    pub fn matvec_t_acc(&self, alpha: f64, x: &Vector, out: &mut Vector) {
        assert_eq!(
            x.len(),
            self.rows,
            "matvec_t_acc: matrix is {}x{} but vector has length {}",
            self.rows,
            self.cols,
            x.len()
        );
        assert_eq!(out.len(), self.cols, "matvec_t_acc: output length");
        for i in 0..self.rows {
            let xi = alpha * x[i];
            if xi == 0.0 {
                continue;
            }
            let row = self.row(i);
            for (j, a) in row.iter().enumerate() {
                out[j] += a * xi;
            }
        }
    }

    /// Matrix–matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Writes `A B` into `out` (allocation-free [`Matrix::matmul`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible or `out` is not
    /// `rows × other.cols`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into: output shape"
        );
        out.data.fill(0.0);
        self.matmul_acc(1.0, other, out);
    }

    /// Accumulates `out += alpha · A B` (gemm-style, allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn matmul_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_acc: {}x{} times {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_acc: output shape"
        );
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = alpha * self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
    }

    /// Accumulates `out += alpha · Aᵀ B` without materializing the
    /// transpose (the `HᵀK` / `BᵀPB` pattern of the Riccati recursion).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn matmul_t_acc(&self, alpha: f64, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_t_acc: {}x{} transposed times {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_t_acc: output shape"
        );
        for k in 0..self.rows {
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                let s = alpha * a;
                if s == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += s * b;
                }
            }
        }
    }

    /// Computes `AᵀA` directly (symmetric result, used by normal equations).
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for k in 0..self.rows {
            let row = self.row(k);
            for i in 0..self.cols {
                let aki = row[i];
                if aki == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out[(i, j)] += aki * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Computes `Aᵀ D A` where `D = diag(w)` (weighted Gram matrix).
    ///
    /// This is the workhorse of interior-point Newton systems.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows`.
    pub fn weighted_gram(&self, w: &Vector) -> Matrix {
        assert_eq!(w.len(), self.rows, "weighted_gram: weight length mismatch");
        let mut out = Matrix::zeros(self.cols, self.cols);
        for k in 0..self.rows {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let row = self.row(k);
            for i in 0..self.cols {
                let s = wk * row[i];
                if s == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out[(i, j)] += s * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// Accumulates `out += Aᵀ D A` where `D = diag(w)` (allocation-free
    /// [`Matrix::weighted_gram`] for the interior-point Hessian updates).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != rows` or `out` is not `cols × cols`.
    pub fn weighted_gram_acc(&self, w: &Vector, out: &mut Matrix) {
        assert_eq!(w.len(), self.rows, "weighted_gram_acc: weight length");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.cols),
            "weighted_gram_acc: output shape"
        );
        for k in 0..self.rows {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let row = self.row(k);
            for i in 0..self.cols {
                let s = wk * row[i];
                if s == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, a) in orow.iter_mut().zip(row) {
                    *o += s * a;
                }
            }
        }
    }

    /// Computes `Aᵀ D B` where `D = diag(w)`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn weighted_product(&self, w: &Vector, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.weighted_product_into(w, other, &mut out);
        out
    }

    /// Writes `Aᵀ D B` into `out` (allocation-free
    /// [`Matrix::weighted_product`]).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn weighted_product_into(&self, w: &Vector, other: &Matrix, out: &mut Matrix) {
        assert_eq!(w.len(), self.rows, "weighted_product_into: weight length");
        assert_eq!(self.rows, other.rows, "weighted_product_into: row mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "weighted_product_into: output shape"
        );
        out.data.fill(0.0);
        for k in 0..self.rows {
            let wk = w[k];
            if wk == 0.0 {
                continue;
            }
            let arow = self.row(k);
            let brow = other.row(k);
            for (i, &a) in arow.iter().enumerate() {
                let s = wk * a;
                if s == 0.0 {
                    continue;
                }
                let orow = out.row_mut(i);
                for (o, b) in orow.iter_mut().zip(brow) {
                    *o += s * b;
                }
            }
        }
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.rows, other.rows, "add_scaled: row mismatch");
        assert_eq!(self.cols, other.cols, "add_scaled: col mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Adds `alpha` to every diagonal entry (regularization helper).
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Enforces exact symmetry by averaging with the transpose.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Largest absolute entry (`0.0` for an empty matrix).
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "vstack: {} vs {} columns",
                self.cols, other.cols
            )));
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_block: block {}x{} at ({r0},{c0}) exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for i in 0..block.rows {
            let src = block.row(i);
            let dst = &mut self.row_mut(r0 + i)[c0..c0 + block.cols];
            dst.copy_from_slice(src);
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(1.0, rhs);
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        for x in &mut out.data {
            *x *= rhs;
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn constructors_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert!(!m.is_square());
        let i = Matrix::identity(2);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diag(&Vector::from(vec![2.0, 3.0]));
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch(_)));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
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
        let c = a.matmul(&b);
        assert_eq!(c, mat(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = mat(&[&[1.0, 2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        assert!((&g - &explicit).norm_inf() < 1e-12);
    }

    #[test]
    fn weighted_gram_matches_explicit_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]);
        let w = Vector::from(vec![2.0, 0.5, 3.0]);
        let g = a.weighted_gram(&w);
        let d = Matrix::from_diag(&w);
        let explicit = a.transpose().matmul(&d).matmul(&a);
        assert!((&g - &explicit).norm_inf() < 1e-12);
    }

    #[test]
    fn weighted_product_matches_explicit_product() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = mat(&[&[1.0], &[2.0]]);
        let w = Vector::from(vec![0.5, 2.0]);
        let p = a.weighted_product(&w, &b);
        let explicit = a.transpose().matmul(&Matrix::from_diag(&w)).matmul(&b);
        assert!((&p - &explicit).norm_inf() < 1e-12);
    }

    #[test]
    fn block_and_stack_operations() {
        let mut m = Matrix::zeros(3, 3);
        m.set_block(1, 1, &Matrix::identity(2));
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 1.0);
        assert_eq!(m[(0, 0)], 0.0);
        let a = Matrix::identity(2);
        let s = a.vstack(&a).unwrap();
        assert_eq!((s.rows(), s.cols()), (4, 2));
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn symmetrize_and_add_diag() {
        let mut m = mat(&[&[1.0, 2.0], &[4.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        m.add_diag(0.5);
        assert_eq!(m[(0, 0)], 1.5);
    }

    #[test]
    fn row_and_col_access() {
        let a = mat(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0).as_slice(), &[1.0, 3.0]);
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
        assert_eq!(out, &a.matvec(&x) + &a.matvec(&x.scaled(2.0)));

        let mut out_t = Vector::from(vec![9.0, 9.0, 9.0]);
        a.matvec_t_into(&y, &mut out_t);
        assert_eq!(out_t, a.matvec_t(&y));
        a.matvec_t_acc(-1.0, &y, &mut out_t);
        assert!(out_t.norm_inf() < 1e-12);

        let mut prod = Matrix::zeros(2, 2);
        a.matmul_into(&b, &mut prod);
        assert_eq!(prod, a.matmul(&b));
        a.matmul_acc(1.0, &b, &mut prod);
        assert_eq!(prod, &a.matmul(&b) + &a.matmul(&b));

        let mut tprod = Matrix::zeros(3, 3);
        let explicit = a.transpose().matmul(&b.transpose());
        a.matmul_t_acc(1.0, &b.transpose(), &mut tprod);
        assert!((&tprod - &explicit).norm_inf() < 1e-12);

        let mut gram = Matrix::zeros(3, 3);
        a.weighted_gram_acc(&w, &mut gram);
        assert!((&gram - &a.weighted_gram(&w)).norm_inf() < 1e-12);
        a.weighted_gram_acc(&w, &mut gram);
        assert!((&gram - &(&a.weighted_gram(&w) * 2.0)).norm_inf() < 1e-12);

        let mut wp = Matrix::zeros(3, 3);
        a.weighted_product_into(&w, &b.transpose(), &mut wp);
        assert!((&wp - &a.weighted_product(&w, &b.transpose())).norm_inf() < 1e-12);

        let mut t = Matrix::zeros(3, 2);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut copy = Matrix::zeros(2, 3);
        copy.copy_from(&a);
        assert_eq!(copy, a);
    }

    proptest! {
        #[test]
        fn prop_transpose_is_involution(
            entries in prop::collection::vec(-100.0f64..100.0, 12)
        ) {
            let a = Matrix::from_vec(3, 4, entries).unwrap();
            prop_assert_eq!(a.transpose().transpose(), a);
        }

        #[test]
        fn prop_matvec_linear(
            entries in prop::collection::vec(-10.0f64..10.0, 6),
            x in prop::collection::vec(-10.0f64..10.0, 3),
            alpha in -5.0f64..5.0,
        ) {
            let a = Matrix::from_vec(2, 3, entries).unwrap();
            let x = Vector::from(x);
            let lhs = a.matvec(&x.scaled(alpha));
            let rhs = a.matvec(&x).scaled(alpha);
            prop_assert!((&lhs - &rhs).norm_inf() < 1e-9);
        }

        #[test]
        fn prop_gram_is_psd_on_diagonal(
            entries in prop::collection::vec(-10.0f64..10.0, 8)
        ) {
            let a = Matrix::from_vec(4, 2, entries).unwrap();
            let g = a.gram();
            prop_assert!(g[(0, 0)] >= -1e-12);
            prop_assert!(g[(1, 1)] >= -1e-12);
            // Cauchy-Schwarz on the 2x2 Gram determinant.
            prop_assert!(g[(0, 0)] * g[(1, 1)] - g[(0, 1)] * g[(1, 0)] >= -1e-6);
        }
    }
}

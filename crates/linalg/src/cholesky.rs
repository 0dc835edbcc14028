use crate::{LinalgError, Matrix, Vector};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Only the lower triangle of the input is read, so callers may pass a matrix
/// whose upper triangle is stale.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let f = Cholesky::factor(&a)?;
/// let x = f.solve(&Vector::from(vec![3.0, 3.0]));
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: Matrix,
    /// Whether `l` holds a completed factorization. Cleared at the start of
    /// every [`Cholesky::refactor`] and set only on success, so a factor
    /// left half-written by a failed refactor can never be solved with.
    valid: bool,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (within a small relative tolerance).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor_regularized(a, 0.0)
    }

    /// Factors `a + reg * I`.
    ///
    /// Interior-point solvers use a small static regularization to keep the
    /// Newton system factorizable near the boundary of the feasible set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`].
    pub fn factor_regularized(a: &Matrix, reg: f64) -> Result<Self, LinalgError> {
        let mut chol = Cholesky {
            l: Matrix::zeros(a.rows(), a.rows()),
            valid: false,
        };
        chol.refactor(a, reg)?;
        Ok(chol)
    }

    /// Re-factors `a + reg * I` into this factorization's existing storage
    /// (allocation-free [`Cholesky::factor_regularized`] for solvers that
    /// factor a same-sized matrix every iteration).
    ///
    /// On error the stored factor is unspecified; [`Cholesky::is_valid`]
    /// reports `false` and the solve methods panic until a later `refactor`
    /// succeeds, so a half-written factor cannot silently poison a solve.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Cholesky::factor`], plus
    /// [`LinalgError::DimensionMismatch`] if `a`'s dimension differs from
    /// the existing factor's.
    pub fn refactor(&mut self, a: &Matrix, reg: f64) -> Result<(), LinalgError> {
        // Scale-aware tolerance for pivot positivity.
        let tol = a.norm_inf().max(reg).max(1.0) * 1e-14;
        self.refactor_with(a, reg, |_| tol)
    }

    /// [`Cholesky::refactor`] with a per-row pivot test: pivot `j` is
    /// accepted when it exceeds `1e-14 · (a_jj + reg)`, its own row's
    /// scale, instead of `1e-14 · ‖A‖∞`.
    ///
    /// This is the same test applied to the unit-diagonal equilibrated
    /// matrix `D^{-1/2} A D^{-1/2}`. Barrier-scaled KKT blocks are SPD (often
    /// diagonally dominant) with diagonals spanning fifteen decades; the
    /// global test rejects their small pivots as "not positive definite"
    /// although each is many orders of magnitude above its row's round-off.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::refactor`].
    pub fn refactor_rowwise(&mut self, a: &Matrix, reg: f64) -> Result<(), LinalgError> {
        self.refactor_with(a, reg, |ajj| ajj * 1e-14)
    }

    /// The factorization proper; `tol(a_jj + reg)` is the threshold pivot
    /// `j` must exceed.
    fn refactor_with(
        &mut self,
        a: &Matrix,
        reg: f64,
        tol: impl Fn(f64) -> f64,
    ) -> Result<(), LinalgError> {
        if !a.is_square() || a.rows() != self.l.rows() {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky refactor: matrix is {}x{}, factor is {}x{}",
                a.rows(),
                a.cols(),
                self.l.rows(),
                self.l.rows()
            )));
        }
        self.valid = false;
        let n = a.rows();
        let l = &mut self.l;
        for j in 0..n {
            let diag = a[(j, j)] + reg;
            let mut d = diag;
            for k in 0..j {
                let ljk = l[(j, k)];
                d -= ljk * ljk;
            }
            // Written as a negated comparison so a NaN pivot (e.g. from a
            // non-finite input entry) is rejected instead of flowing into
            // `sqrt` and silently poisoning the factor.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(d > tol(diag)) {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dsqrt = d.sqrt();
            l[(j, j)] = dsqrt;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dsqrt;
            }
        }
        // Upper triangle may hold entries from a previous factorization;
        // solves only read the lower triangle, but clear it so `l()` is a
        // genuine lower-triangular matrix.
        for j in 1..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
        }
        self.valid = true;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Whether the stored factor comes from a *successful* factorization.
    ///
    /// `false` exactly when the last [`Cholesky::refactor`] failed; retry
    /// loops that boost regularization must check this (or rely on the
    /// solve methods' panic) before reusing the factor.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
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
    /// Panics if `b.len() != dim()` or if the last refactor failed
    /// ([`Cholesky::is_valid`] is `false`).
    pub fn solve_in_place(&self, b: &mut Vector) {
        self.solve_slice_in_place(b.as_mut_slice());
    }

    /// [`Cholesky::solve_in_place`] on a raw slice, so callers holding a
    /// long concatenated vector (block-diagonal solves) can solve one block
    /// without copying it out.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()` or if the last refactor failed.
    pub fn solve_slice_in_place(&self, b: &mut [f64]) {
        assert!(
            self.valid,
            "cholesky solve: factor is invalid (last refactor failed); refactor before solving"
        );
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve: rhs length {}", b.len());
        // Forward: L y = b.
        for i in 0..n {
            let mut s = b[i];
            let row = self.l.row(i);
            for (k, lik) in row.iter().enumerate().take(i) {
                s -= lik * b[k];
            }
            b[i] = s / row[i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for (k, &bk) in b.iter().enumerate().take(n).skip(i + 1) {
                s -= self.l[(k, i)] * bk;
            }
            b[i] = s / self.l[(i, i)];
        }
    }

    /// Writes `A⁻¹` into `out`.
    ///
    /// Column `j` of the result is bit-for-bit what
    /// [`Cholesky::solve_in_place`] returns for the unit vector `e_j`:
    /// every entry sees the same operations in the same order. The
    /// substitutions of all columns run in lockstep, though — starting
    /// from `X = I`, row `i` of `X` is updated from the finished rows with
    /// one scalar of `L` across all columns at once — so the inner loop
    /// carries `dim` independent dependency chains instead of one.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `dim × dim` or if the last refactor failed.
    pub fn inverse_into(&self, out: &mut Matrix) {
        assert!(
            self.valid,
            "cholesky inverse: factor is invalid (last refactor failed); refactor before solving"
        );
        let n = self.dim();
        assert_eq!(
            (out.rows(), out.cols()),
            (n, n),
            "cholesky inverse: output shape"
        );
        // Forward, L Y = I: Y_i = (e_i − Σ_{k<i} L_ik Y_k) / L_ii. Row k
        // of Y is +0 past column k, and subtracting L_ik·(+0) leaves an
        // entry unchanged (an entry being reduced here is never −0), so
        // each update stops at column k and the division at column i.
        for i in 0..n {
            let l_row = self.l.row(i);
            let (done, x_i, _) = out.split_row_mut(i);
            x_i.fill(0.0);
            x_i[i] = 1.0;
            for (k, &lik) in l_row[..i].iter().enumerate() {
                let y_k = &done[k * n..=k * n + k];
                for (x, &y) in x_i.iter_mut().zip(y_k) {
                    *x -= lik * y;
                }
            }
            let lii = l_row[i];
            for x in &mut x_i[..=i] {
                *x /= lii;
            }
        }
        // Backward, Lᵀ X = Y: X_i = (Y_i − Σ_{k>i} L_ki X_k) / L_ii.
        for i in (0..n).rev() {
            let (_, x_i, later) = out.split_row_mut(i);
            for (x_k, k) in later.chunks_exact(n).zip(i + 1..n) {
                let lki = self.l[(k, i)];
                for (x, &y) in x_i.iter_mut().zip(x_k) {
                    *x -= lki * y;
                }
            }
            let lii = self.l[(i, i)];
            for x in x_i.iter_mut() {
                *x /= lii;
            }
        }
    }

    /// Log-determinant of `A` (sum of `2 ln L_jj`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|j| 2.0 * self.l[(j, j)].ln()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // Build a random SPD matrix as BᵀB + n·I with a cheap LCG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = next();
            }
        }
        let mut a = b.gram();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_and_solve_small_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f = Cholesky::factor(&a).unwrap();
        let b = Vector::from(vec![10.0, 8.0]);
        let x = f.solve(&b);
        let r = &a.matvec(&x) - &b;
        assert!(r.norm_inf() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn regularization_rescues_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        assert!(Cholesky::factor_regularized(&a, 1e-6).is_ok());
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f_clean = Cholesky::factor(&a).unwrap();
        a[(0, 1)] = 999.0; // poison upper triangle
        let f_poisoned = Cholesky::factor(&a).unwrap();
        assert_eq!(f_clean.l(), f_poisoned.l());
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = spd(5, 11);
        let b = spd(5, 29);
        let mut f = Cholesky::factor(&a).unwrap();
        f.refactor(&b, 0.0).unwrap();
        let fresh = Cholesky::factor(&b).unwrap();
        assert_eq!(f.l(), fresh.l());
        // Dimension changes are rejected, as is a non-PD refactor.
        assert!(f.refactor(&spd(4, 3), 0.0).is_err());
        let indef = Matrix::from_rows(&[&[1.0; 5]; 5].map(|r| &r[..])).unwrap();
        assert!(f.refactor(&indef, 0.0).is_err());
    }

    #[test]
    fn nan_input_is_rejected_not_silently_factored() {
        // Regression: `d <= tol` is false for a NaN pivot, so a non-finite
        // entry used to flow into sqrt and produce an all-NaN factor while
        // refactor reported success.
        let mut a = spd(3, 17);
        a[(1, 1)] = f64::NAN;
        let mut f = Cholesky::factor(&spd(3, 5)).unwrap();
        assert!(matches!(
            f.refactor(&a, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(!f.is_valid());
        // Fresh factorization of NaN data must fail the same way.
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn failed_refactor_invalidates_until_recovery() {
        let good = spd(4, 23);
        let mut f = Cholesky::factor(&good).unwrap();
        assert!(f.is_valid());
        let indef = Matrix::from_rows(&[&[1.0; 4]; 4].map(|r| &r[..])).unwrap();
        assert!(f.refactor(&indef, 0.0).is_err());
        assert!(!f.is_valid());
        // Solving with the invalidated factor panics instead of returning
        // garbage from the half-written storage.
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.solve(&Vector::zeros(4))));
        assert!(res.is_err(), "solve with an invalid factor must panic");
        // A later successful refactor restores the factor.
        f.refactor(&good, 0.0).unwrap();
        assert!(f.is_valid());
        let fresh = Cholesky::factor(&good).unwrap();
        assert_eq!(f.l(), fresh.l());
    }

    /// A barrier-scaled tridiagonal chain — diagonals from 0.084 to
    /// 3.3e14, as a DSPP arc's chain carries once its non-negativity row
    /// binds — is SPD and diagonally dominant. The global pivot test
    /// rejects its small pivots at any regularization up to 1e-3; the
    /// per-row test factors it at zero regularization.
    #[test]
    fn barrier_scaled_chain_factors_rowwise_at_zero_regularization() {
        let diag = [0.084, 3.3e14, 0.31, 2.0e9, 0.084];
        let off = -0.04;
        let n = diag.len();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = diag[i];
            if i + 1 < n {
                a[(i, i + 1)] = off;
                a[(i + 1, i)] = off;
            }
        }
        let mut f = Cholesky::factor(&Matrix::identity(n)).unwrap();
        for reg in [0.0, 1e-9, 1e-5, 1e-3] {
            assert!(
                f.refactor(&a, reg).is_err(),
                "global test at reg {reg} should reject"
            );
        }
        f.refactor_rowwise(&a, 0.0).unwrap();
        let xtrue: Vector = (0..n).map(|i| 1.0 + i as f64).collect();
        let b = a.matvec(&xtrue);
        let x = f.solve(&b);
        for i in 0..n {
            assert!(
                (x[i] - xtrue[i]).abs() <= 1e-9 * xtrue[i],
                "x[{i}] = {}",
                x[i]
            );
        }
        // A genuinely indefinite matrix still fails the per-row test.
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let mut g = Cholesky::factor(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            g.refactor_rowwise(&indef, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn log_det_matches_known_value() {
        let a = Matrix::from_diag(&Vector::from(vec![2.0, 3.0]));
        let f = Cholesky::factor(&a).unwrap();
        assert!((f.log_det() - 6.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solves_moderate_random_spd_systems() {
        for n in [1usize, 3, 8, 25] {
            let a = spd(n, n as u64 + 7);
            let f = Cholesky::factor(&a).unwrap();
            let xtrue: Vector = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = a.matvec(&xtrue);
            let x = f.solve(&b);
            assert!(
                (&x - &xtrue).norm_inf() < 1e-8,
                "n={n}: residual {}",
                (&x - &xtrue).norm_inf()
            );
        }
    }

    /// `A⁻¹` the slow way: one [`Cholesky::solve_in_place`] per unit
    /// vector.
    fn inverse_by_unit_solves(f: &Cholesky) -> Matrix {
        let n = f.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut x = Vector::zeros(n);
        for j in 0..n {
            x.fill(0.0);
            x[j] = 1.0;
            f.solve_in_place(&mut x);
            for r in 0..n {
                inv[(r, j)] = x[r];
            }
        }
        inv
    }

    /// A barrier-scaled location block: a tridiagonal chain whose
    /// diagonal spans 1e-2…1e14 (log-uniform), plus a rank-one demand-row
    /// term `w c cᵀ` with `w` from the same range. Diagonally dominant
    /// chain + PSD term, so SPD.
    fn barrier_block(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3);
        let mut unit = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let diag: Vec<f64> = (0..n).map(|_| 10f64.powf(-2.0 + 16.0 * unit())).collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = diag[i];
            if i + 1 < n {
                let off = -0.4 * unit() * diag[i].min(diag[i + 1]);
                a[(i, i + 1)] = off;
                a[(i + 1, i)] = off;
            }
        }
        let w = 10f64.powf(-2.0 + 16.0 * unit());
        let c: Vec<f64> = (0..n)
            .map(|_| [0.0, 1.0, -1.0][(unit() * 3.0) as usize])
            .collect();
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] += c[i] * c[j] * w;
            }
        }
        a
    }

    /// Turns every row `i` with `pins >> (i % 64) & 1` set into a
    /// decoupled identity row, as the solver does for pinned slots.
    fn pin_rows(a: &mut Matrix, pins: u64) {
        let n = a.rows();
        for r in (0..n).filter(|r| pins >> (r % 64) & 1 == 1) {
            for c in 0..n {
                a[(r, c)] = 0.0;
                a[(c, r)] = 0.0;
            }
            a[(r, r)] = 1.0;
        }
    }

    #[test]
    fn inverse_into_inverts() {
        let a = spd(6, 3);
        let f = Cholesky::factor(&a).unwrap();
        let mut inv = Matrix::zeros(6, 6);
        f.inverse_into(&mut inv);
        let eye = a.matmul(&inv);
        for i in 0..6 {
            for j in 0..6 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((eye[(i, j)] - want).abs() < 1e-12, "A·A⁻¹[{i}][{j}]");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lockstep inverse equals the unit-vector solves bit for bit
        /// on random SPD matrices, barrier-scaled blocks and blocks with
        /// pinned identity rows.
        #[test]
        fn prop_inverse_into_matches_unit_solves_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..25,
            kind in 0u8..4,
            pins in 0u64..u64::MAX,
        ) {
            let mut a = match kind {
                0 => spd(n, seed),
                _ => barrier_block(n, seed),
            };
            if kind >= 2 {
                pin_rows(&mut a, pins);
            }
            // A heavy demand-row term can cancel a pivot below its row's
            // round-off; the solver then boosts regularization, and so
            // does this test.
            let mut f = Cholesky::factor(&Matrix::identity(n)).unwrap();
            if f.refactor_rowwise(&a, 0.0).is_err() {
                f.refactor_rowwise(&a, 1e-6 * a.norm_inf()).unwrap();
            }
            let want = inverse_by_unit_solves(&f);
            // Stale contents must not leak into the result.
            let mut got = Matrix::from_vec(n, n, vec![f64::NAN; n * n]).unwrap();
            f.inverse_into(&mut got);
            for r in 0..n {
                for c in 0..n {
                    prop_assert_eq!(
                        got[(r, c)].to_bits(),
                        want[(r, c)].to_bits(),
                        "entry ({}, {}) of a {}x{} kind-{} matrix",
                        r, c, n, n, kind
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_solve_inverts_matvec(seed in 0u64..500, n in 1usize..12) {
            let a = spd(n, seed);
            let f = Cholesky::factor(&a).unwrap();
            let x: Vector = (0..n).map(|i| (i as f64 * 0.7) - 2.0).collect();
            let b = a.matvec(&x);
            let got = f.solve(&b);
            prop_assert!((&got - &x).norm_inf() < 1e-7);
        }
    }
}

use crate::{LinalgError, Matrix, Vector};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Only the lower triangle of the input is read, so callers may pass a matrix
/// whose upper triangle is stale. The storage is allocated once
/// ([`Cholesky::unfactored`]) and refactored in place every interior-point
/// iteration.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let mut f = Cholesky::unfactored(2);
/// f.refactor(&a, 0.0)?;
/// let mut x = Vector::from(vec![3.0, 3.0]);
/// f.solve_in_place(&mut x);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// The factor as `Lᵀ`, stored densely: row `k` holds column `k` of `L`,
    /// so the factorization's rank-1 updates and both solve sweeps walk
    /// contiguous rows. Nothing writes the strict lower triangle: it stays
    /// zero.
    lt: Matrix,
    /// Whether `lt` holds a completed factorization. Cleared at the start of
    /// every [`Cholesky::refactor`] and set only on success, so a factor
    /// left half-written by a failed refactor can never be solved with.
    valid: bool,
}

impl Cholesky {
    /// Storage for a `dim × dim` factorization, holding none yet: for
    /// solvers that [`Cholesky::refactor`] a same-sized matrix every
    /// iteration. [`Cholesky::is_valid`] is `false` and
    /// [`Cholesky::solve_in_place`] panics until the first refactor
    /// succeeds.
    pub fn unfactored(dim: usize) -> Self {
        Cholesky {
            lt: Matrix::zeros(dim, dim),
            valid: false,
        }
    }

    /// Re-factors `a + reg * I` into this factorization's existing storage,
    /// without allocating.
    ///
    /// On error the stored factor is unspecified; [`Cholesky::is_valid`]
    /// reports `false` and [`Cholesky::solve_in_place`] panics until a
    /// later `refactor` succeeds, so a half-written factor cannot silently
    /// poison a solve.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square or its
    ///   dimension differs from the factor's.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (within a small relative tolerance).
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
    ///
    /// Right-looking: once pivot `k` passes, row `k` of `Lᵀ` is scaled into
    /// column `k` of `L` and its rank-1 term is subtracted from every later
    /// row, one contiguous axpy per row. Entry `(i, j)` still sees
    /// `a_ij − l_i0·l_j0 − … − l_i,j−1·l_j,j−1` in that order, exactly the
    /// operations of the textbook dot-product (left-looking) loop, so the
    /// factor is the same bit for bit; only independent updates now run
    /// side by side instead of as one dependency chain per entry.
    fn refactor_with(
        &mut self,
        a: &Matrix,
        reg: f64,
        tol: impl Fn(f64) -> f64,
    ) -> Result<(), LinalgError> {
        if !a.is_square() || a.rows() != self.lt.rows() {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky refactor: matrix is {}x{}, factor is {}x{}",
                a.rows(),
                a.cols(),
                self.lt.rows(),
                self.lt.rows()
            )));
        }
        self.valid = false;
        let n = a.rows();
        // Lᵀ starts as the lower triangle of `a + reg·I`, transposed.
        let lt = self.lt.as_mut_slice();
        for j in 0..n {
            let row = &mut lt[j * n..(j + 1) * n];
            for (i, x) in row.iter_mut().enumerate().skip(j) {
                *x = a[(i, j)];
            }
            row[j] = a[(j, j)] + reg;
        }
        for k in 0..n {
            let diag = a[(k, k)] + reg;
            let (head, later) = lt.split_at_mut((k + 1) * n);
            let row_k = &mut head[k * n..];
            let d = row_k[k];
            // Written as a negated comparison so a NaN pivot (e.g. from a
            // non-finite input entry) is rejected instead of flowing into
            // `sqrt` and silently poisoning the factor.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(d > tol(diag)) {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let dsqrt = d.sqrt();
            row_k[k] = dsqrt;
            for x in &mut row_k[k + 1..] {
                *x /= dsqrt;
            }
            for (j, row_j) in (k + 1..n).zip(later.chunks_exact_mut(n)) {
                let ljk = row_k[j];
                for (x, &lik) in row_j[j..].iter_mut().zip(&row_k[j..]) {
                    *x -= lik * ljk;
                }
            }
        }
        self.valid = true;
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lt.rows()
    }

    /// Whether the stored factor comes from a *successful* factorization.
    ///
    /// `false` before the first [`Cholesky::refactor`] of an
    /// [`Cholesky::unfactored`] workspace, and exactly when the last
    /// refactor failed; retry loops that boost regularization must check
    /// this (or rely on the solve's panic) before reusing the factor.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Solves `A x = b` in place.
    ///
    /// Both sweeps read rows of `Lᵀ`. The forward sweep runs column by
    /// column: once `y_k` is final, column `k` of `L` is subtracted from
    /// the later entries in one axpy, and entry `i` still sees
    /// `b_i − l_i0·y_0 − … − l_i,i−1·y_i−1` in that order. The backward
    /// sweep stays a dot product per row: a column sweep would subtract in
    /// the reverse order and change the bits.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()` or if the factor is invalid
    /// ([`Cholesky::is_valid`] is `false`).
    pub fn solve_in_place(&self, b: &mut Vector) {
        assert!(
            self.valid,
            "cholesky solve: factor is invalid (last refactor failed); refactor before solving"
        );
        let n = self.dim();
        assert_eq!(b.len(), n, "cholesky solve: rhs length {}", b.len());
        let b = b.as_mut_slice();
        // Forward: L y = b.
        for k in 0..n {
            let row = self.lt.row(k);
            let yk = b[k] / row[k];
            b[k] = yk;
            for (x, &lik) in b[k + 1..].iter_mut().zip(&row[k + 1..]) {
                *x -= lik * yk;
            }
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let row = self.lt.row(i);
            let mut s = b[i];
            for (&lki, &xk) in row[i + 1..].iter().zip(&b[i + 1..]) {
                s -= lki * xk;
            }
            b[i] = s / row[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, barrier_block, matvec, pin_rows, spd};
    use proptest::prelude::*;

    /// `a + reg·I` factored into fresh storage.
    fn factor(a: &Matrix, reg: f64) -> Result<Cholesky, LinalgError> {
        let mut f = Cholesky::unfactored(a.rows());
        f.refactor(a, reg).map(|()| f)
    }

    /// `A⁻¹ b` through the factor.
    fn solve(f: &Cholesky, b: &Vector) -> Vector {
        let mut x = b.clone();
        f.solve_in_place(&mut x);
        x
    }

    #[test]
    fn factor_and_solve_small_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f = factor(&a, 0.0).unwrap();
        let b = Vector::from(vec![10.0, 8.0]);
        let x = solve(&f, &b);
        let r = &matvec(&a, &x) - &b;
        assert!(r.norm_inf() < 1e-12);
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            factor(&a, 0.0),
            Err(LinalgError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            factor(&a, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn regularization_rescues_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(factor(&a, 0.0).is_err());
        assert!(factor(&a, 1e-6).is_ok());
    }

    #[test]
    fn reads_only_lower_triangle() {
        let mut a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let f_clean = factor(&a, 0.0).unwrap();
        a[(0, 1)] = 999.0; // poison upper triangle
        let f_poisoned = factor(&a, 0.0).unwrap();
        assert_eq!(f_clean.lt, f_poisoned.lt);
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh_factor() {
        let a = spd(5, 11);
        let b = spd(5, 29);
        let mut f = factor(&a, 0.0).unwrap();
        f.refactor(&b, 0.0).unwrap();
        let fresh = factor(&b, 0.0).unwrap();
        assert_eq!(f.lt, fresh.lt);
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
        let mut f = factor(&spd(3, 5), 0.0).unwrap();
        assert!(matches!(
            f.refactor(&a, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        assert!(!f.is_valid());
        // Fresh factorization of NaN data must fail the same way.
        assert!(factor(&a, 0.0).is_err());
    }

    #[test]
    fn failed_refactor_invalidates_until_recovery() {
        let good = spd(4, 23);
        let mut f = factor(&good, 0.0).unwrap();
        assert!(f.is_valid());
        let indef = Matrix::from_rows(&[&[1.0; 4]; 4].map(|r| &r[..])).unwrap();
        assert!(f.refactor(&indef, 0.0).is_err());
        assert!(!f.is_valid());
        // Solving with the invalidated factor panics instead of returning
        // garbage from the half-written storage.
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve(&f, &Vector::zeros(4))
        }));
        assert!(res.is_err(), "solve with an invalid factor must panic");
        // A later successful refactor restores the factor.
        f.refactor(&good, 0.0).unwrap();
        assert!(f.is_valid());
        let fresh = factor(&good, 0.0).unwrap();
        assert_eq!(f.lt, fresh.lt);
    }

    #[test]
    fn unfactored_storage_panics_until_the_first_refactor() {
        let mut f = Cholesky::unfactored(3);
        assert_eq!(f.dim(), 3);
        assert!(!f.is_valid());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve(&f, &Vector::zeros(3))
        }));
        assert!(res.is_err(), "solve before any refactor must panic");
        let a = spd(3, 41);
        f.refactor_rowwise(&a, 0.0).unwrap();
        assert!(f.is_valid());
        let mut fresh = factor(&spd(3, 5), 0.0).unwrap();
        fresh.refactor_rowwise(&a, 0.0).unwrap();
        assert_eq!(f.lt, fresh.lt);
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
        let mut f = Cholesky::unfactored(n);
        for reg in [0.0, 1e-9, 1e-5, 1e-3] {
            assert!(
                f.refactor(&a, reg).is_err(),
                "global test at reg {reg} should reject"
            );
        }
        f.refactor_rowwise(&a, 0.0).unwrap();
        let xtrue: Vector = (0..n).map(|i| 1.0 + i as f64).collect();
        let b = matvec(&a, &xtrue);
        let x = solve(&f, &b);
        for i in 0..n {
            assert!(
                (x[i] - xtrue[i]).abs() <= 1e-9 * xtrue[i],
                "x[{i}] = {}",
                x[i]
            );
        }
        // A genuinely indefinite matrix still fails the per-row test.
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let mut g = Cholesky::unfactored(2);
        assert!(matches!(
            g.refactor_rowwise(&indef, 0.0),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn solves_moderate_random_spd_systems() {
        for n in [1usize, 3, 8, 25] {
            let a = spd(n, n as u64 + 7);
            let f = factor(&a, 0.0).unwrap();
            let xtrue: Vector = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = matvec(&a, &xtrue);
            let x = solve(&f, &b);
            assert!(
                (&x - &xtrue).norm_inf() < 1e-8,
                "n={n}: residual {}",
                (&x - &xtrue).norm_inf()
            );
        }
    }

    /// Factors `a` both ways — right-looking [`Cholesky::refactor_rowwise`]
    /// (`rowwise`) or [`Cholesky::refactor`], and the left-looking oracle
    /// with the matching pivot test — and asserts the same outcome: the
    /// same failing pivot, or the same factor and the same solve of `b`,
    /// bit for bit.
    fn assert_matches_left_looking(a: &Matrix, reg: f64, rowwise: bool, b: &[f64]) {
        let n = a.rows();
        let mut f = Cholesky::unfactored(n);
        let tol = a.norm_inf().max(reg).max(1.0) * 1e-14;
        let (got, want) = if rowwise {
            (
                f.refactor_rowwise(a, reg),
                oracle::factor(a, reg, |ajj| ajj * 1e-14),
            )
        } else {
            (f.refactor(a, reg), oracle::factor(a, reg, |_| tol))
        };
        let l = match (got, want) {
            (Ok(()), Ok(l)) => l,
            (Err(e), Err(o)) => {
                assert_eq!(e, o, "n = {n}");
                return;
            }
            (got, want) => panic!("n = {n}: right-looking {got:?}, left-looking {want:?}"),
        };
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    f.lt[(j, i)].to_bits(),
                    l[(i, j)].to_bits(),
                    "L[{i}][{j}] of an {n}x{n} matrix"
                );
            }
        }
        let mut x = Vector::from(b.to_vec());
        f.solve_in_place(&mut x);
        let mut y = b.to_vec();
        oracle::forward(&l, &mut y);
        oracle::backward(&l, &mut y);
        for i in 0..n {
            assert_eq!(x[i].to_bits(), y[i].to_bits(), "x[{i}], n = {n}");
        }
    }

    /// Right-hand side with entries of both signs and several scales.
    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 7 + seed) % 13) as f64 - 6.0)
            .map(|v| v * 10f64.powi((seed as i32 + v as i32).rem_euclid(9) - 4))
            .collect()
    }

    #[test]
    fn right_looking_matches_left_looking_up_to_n_400() {
        for (n, seed) in [(100, 3), (250, 5), (400, 7)] {
            let b = rhs(n, seed);
            assert_matches_left_looking(&spd(n, seed), 0.0, false, &b);
            assert_matches_left_looking(&spd(n, seed), 1e-9, true, &b);
            let mut a = barrier_block(n, seed);
            pin_rows(&mut a, 0x0123_4567_89ab_cdef);
            assert_matches_left_looking(&a, 0.0, true, &b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The right-looking factor and the column-sweep solve equal the
        /// left-looking oracle bit for bit on random SPD matrices,
        /// barrier-scaled blocks (some failing the pivot test), blocks with
        /// pinned identity rows and the indefinite all-ones matrix, under
        /// both pivot tests.
        #[test]
        fn prop_right_looking_matches_left_looking_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..60,
            kind in 0u8..5,
            pins in 0u64..u64::MAX,
            rowwise in 0u8..2,
        ) {
            let mut a = match kind {
                0 => spd(n, seed),
                4 => Matrix::from_rows(&vec![&vec![1.0; n][..]; n]).unwrap(),
                _ => barrier_block(n, seed),
            };
            if kind == 2 || kind == 3 {
                pin_rows(&mut a, pins);
            }
            let reg = if kind == 3 { 1e-6 * a.norm_inf() } else { 0.0 };
            assert_matches_left_looking(&a, reg, rowwise == 1, &rhs(n, seed));
        }

        /// The oracle's Takahashi inverse is exactly symmetric and agrees
        /// with the unit-vector solves to `4·n·ε·max|X|`, on random SPD
        /// matrices, barrier-scaled blocks and blocks with pinned identity
        /// rows.
        #[test]
        fn prop_takahashi_inverse_matches_unit_solves(
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
            let l = oracle::factor(&a, 0.0, |ajj| ajj * 1e-14)
                .or_else(|_| oracle::factor(&a, 1e-6 * a.norm_inf(), |ajj| ajj * 1e-14))
                .unwrap();
            let got = oracle::inverse(&l);
            let mut want = Matrix::zeros(n, n);
            let mut x = vec![0.0; n];
            for c in 0..n {
                x.fill(0.0);
                x[c] = 1.0;
                oracle::forward(&l, &mut x);
                oracle::backward(&l, &mut x);
                for r in 0..n {
                    want[(r, c)] = x[r];
                }
            }
            let x_max = (0..n).flat_map(|r| want.row(r).iter()).fold(0.0f64, |m, x| m.max(x.abs()));
            let scale = 4.0 * n as f64 * f64::EPSILON * x_max;
            for r in 0..n {
                for c in 0..n {
                    prop_assert_eq!(got[(r, c)].to_bits(), got[(c, r)].to_bits());
                    prop_assert!(
                        (got[(r, c)] - want[(r, c)]).abs() <= scale,
                        "entry ({}, {}) of a {}x{} kind-{} matrix: {:e} vs {:e}",
                        r, c, n, n, kind, got[(r, c)], want[(r, c)]
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_solve_inverts_matvec(seed in 0u64..500, n in 1usize..12) {
            let a = spd(n, seed);
            let f = factor(&a, 0.0).unwrap();
            let x: Vector = (0..n).map(|i| (i as f64 * 0.7) - 2.0).collect();
            let b = matvec(&a, &x);
            let got = solve(&f, &b);
            prop_assert!((&got - &x).norm_inf() < 1e-7);
        }
    }
}

//! Lane-batched banded Cholesky kernels for many small SPD matrices of one
//! dimension and one lower bandwidth.
//!
//! A structured KKT solve factors hundreds of location blocks a few dozen
//! rows wide every iteration. One matrix at a time, each kernel is a single
//! chain of dependent operations, bound by latency rather than arithmetic.
//! [`CholeskyLanes`] stores [`LANES`] such matrices entry-major and
//! lane-minor — entry `(r, c)` of every lane side by side — and runs every
//! step on all lanes at once. The chains then run in parallel, and each
//! lane sees the operations [`Cholesky`](crate::Cholesky) performs on its
//! matrix alone, in the same order and without fused multiply-adds.
//!
//! The matrices of a batch share a lower bandwidth `band`: entry `(r, c)`
//! is zero whenever `|r − c| > band`. Each lane stores only its lower band,
//! and every kernel skips what lies outside it, so a factor costs about
//! `dim·band²/2` multiply-subtracts and a solve `2·dim·band`. The explicit
//! inverse is dense: Takahashi's recurrence fills all `dim²` entries from
//! the band factor with about `dim²·band/2` multiply-subtracts and one
//! division per column. A Cholesky factor keeps its matrix's band, so
//! every skipped term is a product with a zero, which the scalar kernel
//! subtracts without changing a value: each lane equals the scalar kernel
//! value for value (a zero's sign may differ). A band of `dim − 1` skips
//! nothing and is the dense kernel, bit for bit.

use crate::LinalgError;

/// Matrices per [`CholeskyLanes`] batch: four independent `f64` chains, two
/// 128-bit vector registers' worth, which every 64-bit target has.
pub const LANES: usize = 4;

/// One `f64` per lane.
pub type Lanes = [f64; LANES];

/// `x ← x − a·b` in every lane; the product is rounded before the
/// subtraction, as in the scalar kernels.
#[inline(always)]
fn sub_mul(x: &mut Lanes, a: &Lanes, b: &Lanes) {
    for ((x, a), b) in x.iter_mut().zip(a).zip(b) {
        *x -= a * b;
    }
}

/// `x ← x / d` in every lane.
#[inline(always)]
fn div(x: &mut Lanes, d: &Lanes) {
    for (x, d) in x.iter_mut().zip(d) {
        *x /= d;
    }
}

/// [`LANES`] symmetric positive-definite `dim × dim` matrices of lower
/// bandwidth `band`, factored, inverted and solved side by side.
///
/// Storage is band-major and lane-minor: column `c` of the lower band is
/// `band + 1` consecutive entries, from the diagonal down, so entry
/// `(r, c)`, `c ≤ r ≤ c + band`, of lane `l` is
/// `matrix_mut()[c * (band + 1) + r − c][l]`. The slots of the last
/// columns that fall below row `dim − 1` are never read. A vector is `dim`
/// entries of [`Lanes`]. Lane `l` of every result equals, value for value,
/// what [`Cholesky::refactor_rowwise`](crate::Cholesky::refactor_rowwise)
/// at zero regularization and
/// [`Cholesky::solve_in_place`](crate::Cholesky::solve_in_place) compute
/// from lane `l`'s matrix alone. Lanes a caller leaves unassembled stay the
/// identity, which always factors.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{CholeskyLanes, LANES};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// // Lane 0 holds the tridiagonal [[4, 2, 0], [2, 5, 2], [0, 2, 5]]; the
/// // other lanes stay the identity. With band 1, column c stores (c, c)
/// // at 2c and (c + 1, c) at 2c + 1.
/// let mut batch = CholeskyLanes::new(3, 1);
/// let a = batch.matrix_mut();
/// a[0][0] = 4.0;
/// a[1][0] = 2.0;
/// a[2][0] = 5.0;
/// a[3][0] = 2.0;
/// a[4][0] = 5.0;
/// batch.refactor_rowwise().map_err(|(_lane, e)| e)?;
/// let mut x = [[6.0, 1.0, 1.0, 1.0], [9.0, 1.0, 1.0, 1.0], [7.0, 1.0, 1.0, 1.0]];
/// batch.solve_in_place(&mut x);
/// assert!(x.iter().all(|xi| (xi[0] - 1.0).abs() < 1e-12));
/// assert_eq!(x[0][1..], [1.0; LANES - 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyLanes {
    dim: usize,
    band: usize,
    /// The matrices' lower bands, laid out as the type docs say.
    a: Vec<Lanes>,
    /// Each lane's factor `L`, laid out as `a`.
    l: Vec<Lanes>,
    /// Whether `l` holds a successful factorization of every lane.
    valid: bool,
}

impl CholeskyLanes {
    /// A batch of `dim × dim` identity matrices of lower bandwidth `band`
    /// (capped at `dim − 1`, the dense kernel), not yet factored: the solve
    /// methods panic until the first successful
    /// [`CholeskyLanes::refactor_rowwise`].
    pub fn new(dim: usize, band: usize) -> Self {
        let band = band.min(dim.saturating_sub(1));
        let mut a = vec![[0.0; LANES]; dim * (band + 1)];
        for c in 0..dim {
            a[c * (band + 1)] = [1.0; LANES];
        }
        CholeskyLanes {
            dim,
            band,
            l: a.clone(),
            a,
            valid: false,
        }
    }

    /// Dimension of every matrix in the batch.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lower bandwidth of every matrix in the batch.
    pub fn band(&self) -> usize {
        self.band
    }

    /// Whether the last [`CholeskyLanes::refactor_rowwise`] succeeded on
    /// every lane.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The matrices' lower bands, for assembly in place; marks the factor
    /// stale.
    pub fn matrix_mut(&mut self) -> &mut [Lanes] {
        self.valid = false;
        &mut self.a
    }

    /// Column `k` of `L`: `l_kk` and the entries below it within the band.
    fn column(&self, k: usize) -> &[Lanes] {
        let s = self.band + 1;
        &self.l[k * s..k * s + s.min(self.dim - k)]
    }

    /// Factors every lane's matrix, accepting pivot `j` of a lane when it
    /// exceeds `1e-14 · a_jj`, its own row's scale, as
    /// [`Cholesky::refactor_rowwise`](crate::Cholesky::refactor_rowwise)
    /// does at zero regularization. Right-looking, as `Cholesky`: once
    /// pivot `k` passes, column `k` is scaled, and its rank-1 term is
    /// subtracted from the `band` columns after it.
    ///
    /// # Errors
    ///
    /// `(lane, LinalgError::NotPositiveDefinite { pivot })` for the lowest
    /// failing lane, at its first failing pivot. The other lanes are still
    /// factored through (a failed lane's garbage never reaches another
    /// lane), and the batch stays invalid — its solves panic — until a
    /// later refactor succeeds.
    pub fn refactor_rowwise(&mut self) -> Result<(), (usize, LinalgError)> {
        self.valid = false;
        let (n, s) = (self.dim, self.band + 1);
        self.l.copy_from_slice(&self.a);
        let mut first_fail = [usize::MAX; LANES];
        for k in 0..n {
            let m = s.min(n - k);
            let (head, later) = self.l.split_at_mut((k + 1) * s);
            let col_k = &mut head[k * s..k * s + m];
            let d = col_k[0];
            // Negated so a NaN pivot fails, as in `Cholesky`.
            for ((fail, &dl), &ajj) in first_fail.iter_mut().zip(&d).zip(&self.a[k * s]) {
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(dl > ajj * 1e-14) {
                    *fail = (*fail).min(k);
                }
            }
            let dsqrt = d.map(f64::sqrt);
            col_k[0] = dsqrt;
            for x in &mut col_k[1..] {
                div(x, &dsqrt);
            }
            // Column k + t loses l_{i,k}·l_{k+t,k} for rows i = k+t … k+m−1.
            for (t, col_j) in (1..m).zip(later.chunks_exact_mut(s)) {
                let ljk = col_k[t];
                for (x, lik) in col_j[..m - t].iter_mut().zip(&col_k[t..]) {
                    sub_mul(x, lik, &ljk);
                }
            }
        }
        match first_fail.iter().position(|&p| p != usize::MAX) {
            Some(lane) => Err((
                lane,
                LinalgError::NotPositiveDefinite {
                    pivot: first_fail[lane],
                },
            )),
            None => {
                self.valid = true;
                Ok(())
            }
        }
    }

    /// Writes every lane's `A⁻¹` into `out`, dense, row-major and symmetric:
    /// entry `(i, c)` at `i·dim + c`, both triangles, so a reader takes any
    /// row of the inverse contiguously. The inverse of a banded matrix is
    /// dense.
    ///
    /// Takahashi's recurrence (Erisman & Tinney, CACM 18(3), 1975) builds
    /// `Z = A⁻¹` from `L` column by column, the last column first. Column
    /// `j` takes one reciprocal `r = 1/l_jj` per lane, then its entries
    /// from row `dim − 1` up to the diagonal:
    ///
    /// ```text
    /// Z_ij = r · (δ_ij·r − Σ_{k=j+1}^{min(j+band, dim−1)} l_kj · Z_ik),
    /// ```
    ///
    /// the sum in ascending `k`, each entry written to both triangles as it
    /// is computed. Every `Z_ik` the sum reads lies in a later column, or,
    /// for the diagonal, below it in column `j`, so it is final. That is
    /// one division per column and about `dim²·band/2` multiply-subtracts,
    /// each sum reading a row of `Z` and a column of `L` contiguously. A
    /// decoupled identity row of `A` comes out as the identity's row and
    /// column (its off-diagonal entries `±0`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim²` or if the factor is invalid.
    pub fn inverse_into(&self, out: &mut [Lanes]) {
        self.assert_valid("inverse");
        let n = self.dim;
        assert_eq!(out.len(), n * n, "cholesky lanes inverse: output shape");
        for j in (0..n).rev() {
            let col = self.column(j);
            let r = col[0].map(|l| 1.0 / l);
            let below = &col[1..];
            for i in (j..n).rev() {
                let mut acc = if i == j { r } else { [0.0; LANES] };
                let z_i = &out[i * n + j + 1..i * n + j + 1 + below.len()];
                for (l, z) in below.iter().zip(z_i) {
                    sub_mul(&mut acc, l, z);
                }
                for (x, r) in acc.iter_mut().zip(&r) {
                    *x *= r;
                }
                out[i * n + j] = acc;
                out[j * n + i] = acc;
            }
        }
    }

    /// Solves `A x = b` in place on every lane, with the sweeps of
    /// [`Cholesky::solve_in_place`](crate::Cholesky::solve_in_place).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim` or if the factor is invalid.
    pub fn solve_in_place(&self, b: &mut [Lanes]) {
        self.assert_valid("solve");
        assert_eq!(b.len(), self.dim, "cholesky lanes solve: rhs length");
        self.forward(b);
        self.backward(b);
    }

    /// `L y = b`, column by column: entry `i` sees
    /// `b_i − l_i0·y_0 − … − l_i,i−1·y_i−1` in that order, within the band.
    fn forward(&self, b: &mut [Lanes]) {
        for k in 0..self.dim {
            let col = self.column(k);
            div(&mut b[k], &col[0]);
            let (head, later) = b.split_at_mut(k + 1);
            for (x, lik) in later.iter_mut().zip(&col[1..]) {
                sub_mul(x, lik, &head[k]);
            }
        }
    }

    /// `Lᵀ x = y`, one dot product per column of `L`.
    fn backward(&self, b: &mut [Lanes]) {
        for i in (0..self.dim).rev() {
            let col = self.column(i);
            let (head, later) = b.split_at_mut(i + 1);
            let s = &mut head[i];
            for (lki, xk) in col[1..].iter().zip(later.iter()) {
                sub_mul(s, lki, xk);
            }
            div(s, &col[0]);
        }
    }

    /// Writes `A x` into `ax` and `|A||x|` into `abs` on every lane. Row `r`
    /// accumulates `a_rc·x_c` and its magnitude over the row's band in
    /// column order, starting from `+0`, reading `a_cr` for `a_rc` above
    /// the diagonal. Reads only the matrices, so it needs no factor.
    ///
    /// # Panics
    ///
    /// Panics unless `x`, `ax` and `abs` all have `dim` entries.
    pub fn matvec_abs_into(&self, x: &[Lanes], ax: &mut [Lanes], abs: &mut [Lanes]) {
        let (n, b) = (self.dim, self.band);
        assert!(
            x.len() == n && ax.len() == n && abs.len() == n,
            "cholesky lanes matvec: vector lengths"
        );
        for (r, (acc, mag)) in ax.iter_mut().zip(abs.iter_mut()).enumerate() {
            let mut sum = [0.0; LANES];
            let mut sum_abs = [0.0; LANES];
            let lo = r.saturating_sub(b);
            let hi = (r + b).min(n - 1);
            // Row r left of and on the diagonal sits at stride `band` down
            // the band storage; right of it, it is column r's band.
            let left = (lo..=r).map(|c| c * b + r);
            let right = r * (b + 1) + 1..r * (b + 1) + 1 + hi - r;
            for (idx, xc) in left.chain(right).zip(&x[lo..=hi]) {
                for (((s, sa), h), xc) in sum.iter_mut().zip(&mut sum_abs).zip(&self.a[idx]).zip(xc)
                {
                    let hy = h * xc;
                    *s += hy;
                    *sa += hy.abs();
                }
            }
            *acc = sum;
            *mag = sum_abs;
        }
    }

    fn assert_valid(&self, op: &str) {
        assert!(
            self.valid,
            "cholesky lanes {op}: factor is invalid (last refactor failed); refactor before solving"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, barrier_block, pin_rows, slot_major_block, spd, spd_banded};
    use crate::Matrix;
    use proptest::prelude::*;

    /// Writes the lower band of `m` into lane `lane` of `batch`; `m` must be
    /// zero outside the batch's band.
    fn load(batch: &mut CholeskyLanes, lane: usize, m: &Matrix) {
        let (n, b) = (batch.dim(), batch.band());
        let a = batch.matrix_mut();
        for c in 0..n {
            for r in c..n {
                if r - c <= b {
                    a[c * (b + 1) + r - c][lane] = m[(r, c)];
                } else {
                    assert_eq!(m[(r, c)], 0.0, "({r}, {c}) lies outside band {b}");
                }
            }
        }
    }

    /// Loads `blocks` (at most [`LANES`], one dimension) into the leading
    /// lanes of a fresh batch of lower bandwidth `band`.
    fn batch_of(blocks: &[Matrix], band: usize) -> CholeskyLanes {
        let mut batch = CholeskyLanes::new(blocks[0].rows(), band);
        for (lane, m) in blocks.iter().enumerate() {
            load(&mut batch, lane, m);
        }
        batch
    }

    /// Right-hand side of lane `lane`: both signs, several scales.
    fn rhs(n: usize, lane: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let v = ((i as u64 * 7 + lane as u64 * 3 + seed) % 13) as f64 - 6.0;
                v * 10f64.powi(((seed as usize + i + lane) % 9) as i32 - 4)
            })
            .collect()
    }

    /// Every kernel of one batch of lower bandwidth `band`, lane by lane,
    /// against the scalar oracle on the whole matrix: the factor (and its
    /// zeros outside the band), the inverse (over stale output), each sweep
    /// of the solve and the residual matvec. Value for value; at the full
    /// band, where nothing is skipped, bit for bit. Then, whatever the
    /// algorithm, the inverse's checks: the residual bound of
    /// [`oracle::inverse_residual`] at `4·dim`, exact symmetry, and a
    /// decoupled identity row of `A` giving the identity's row and column.
    fn assert_batch_matches_oracle(blocks: &[Matrix], band: usize, seed: u64) {
        let n = blocks[0].rows();
        let mut batch = batch_of(blocks, band);
        let (b, full) = (batch.band(), batch.band() + 1 >= n);
        let same = |got: f64, want: f64| {
            if full {
                got.to_bits() == want.to_bits()
            } else {
                got == want
            }
        };
        batch.refactor_rowwise().unwrap();
        let mut inv = vec![[f64::NAN; LANES]; n * n];
        batch.inverse_into(&mut inv);
        let load = |lane_rhs: &dyn Fn(usize) -> Vec<f64>| -> Vec<Lanes> {
            let mut v = vec![[0.0; LANES]; n];
            for lane in 0..blocks.len() {
                for (x, b) in v.iter_mut().zip(lane_rhs(lane)) {
                    x[lane] = b;
                }
            }
            v
        };
        let rhs_lanes = load(&|lane| rhs(n, lane, seed));
        let mut fwd = rhs_lanes.clone();
        batch.forward(&mut fwd);
        let mut bwd = rhs_lanes.clone();
        batch.backward(&mut bwd);
        let mut sol = rhs_lanes.clone();
        batch.solve_in_place(&mut sol);
        let (mut ax, mut abs) = (vec![[0.0; LANES]; n], vec![[0.0; LANES]; n]);
        batch.matvec_abs_into(&rhs_lanes, &mut ax, &mut abs);
        for (lane, m) in blocks.iter().enumerate() {
            let l = rowwise(m).unwrap();
            let want_inv = oracle::inverse(&l);
            let z = |r: usize, c: usize| inv[r * n + c][lane];
            for r in 0..n {
                for c in 0..=r {
                    let got = if r - c <= b {
                        batch.l[c * (b + 1) + r - c][lane]
                    } else {
                        0.0
                    };
                    assert!(
                        same(got, l[(r, c)]),
                        "L[{r}][{c}] = {got:e}, want {:e}: lane {lane}, dimension {n}, band {b}",
                        l[(r, c)]
                    );
                }
                for c in 0..n {
                    assert!(
                        same(z(r, c), want_inv[(r, c)]),
                        "inverse ({r}, {c}) = {:e}, want {:e}: lane {lane}, dimension {n}, band {b}",
                        z(r, c),
                        want_inv[(r, c)]
                    );
                    assert_eq!(
                        z(r, c).to_bits(),
                        z(c, r).to_bits(),
                        "inverse ({r}, {c}) vs ({c}, {r}): lane {lane}, dimension {n}, band {b}"
                    );
                }
                let decoupled = (0..n).all(|c| m[(r, c)] == if c == r { 1.0 } else { 0.0 });
                if decoupled {
                    for c in 0..n {
                        let want = if c == r { 1.0 } else { 0.0 };
                        assert!(
                            z(r, c) == want && z(c, r) == want,
                            "pinned row {r}, column {c}: lane {lane}, dimension {n}, band {b}"
                        );
                    }
                }
            }
            let residual = oracle::inverse_residual(m, z);
            assert!(
                residual <= 4.0 * n as f64,
                "|A Z − I| reaches {residual:.1}·ε·(|A|·1)·max|Z|: lane {lane}, dimension {n}, band {b}"
            );
            let b_l = rhs(n, lane, seed);
            let mut want_fwd = b_l.clone();
            oracle::forward(&l, &mut want_fwd);
            let mut want_bwd = b_l.clone();
            oracle::backward(&l, &mut want_bwd);
            let mut want_sol = want_fwd.clone();
            oracle::backward(&l, &mut want_sol);
            for i in 0..n {
                let (mut acc, mut mag) = (0.0f64, 0.0f64);
                for c in 0..n {
                    let hy = m[(i, c)] * b_l[c];
                    acc += hy;
                    mag += hy.abs();
                }
                for (what, got, want) in [
                    ("forward", fwd[i][lane], want_fwd[i]),
                    ("backward", bwd[i][lane], want_bwd[i]),
                    ("solve", sol[i][lane], want_sol[i]),
                    ("matvec", ax[i][lane], acc),
                    ("|matvec|", abs[i][lane], mag),
                ] {
                    assert!(
                        same(got, want),
                        "{what} entry {i} = {got:e}, want {want:e}: lane {lane}, dimension {n}, band {b}"
                    );
                }
            }
        }
        // Identity padding: factor, inverse and solve leave it exact.
        for lane in blocks.len()..LANES {
            for r in 0..n {
                assert_eq!(sol[r][lane], 0.0);
                assert_eq!(inv[r * n + r][lane], 1.0);
            }
        }
    }

    /// A random symmetric block of lower bandwidth `band` whose diagonal
    /// spans 1e-2…1e14: a plain SPD matrix, a barrier-scaled block (slot
    /// major below the full band, as the solver orders its blocks), or
    /// either with pinned identity rows. A heavy demand-row term can cancel
    /// a barrier block's pivot below its row's round-off, so some fail the
    /// per-row pivot test.
    fn block(n: usize, band: usize, seed: u64, pins: u64) -> Matrix {
        let full = band + 1 >= n;
        let mut a = match (seed % 4, full) {
            (0, true) => spd(n, seed),
            (0, false) => spd_banded(n, band, seed),
            (_, true) => barrier_block(n, seed),
            (_, false) => slot_major_block(n, band, seed),
        };
        if seed % 4 >= 2 {
            pin_rows(&mut a, pins.rotate_left(seed as u32 % 64));
        }
        a
    }

    fn rowwise(a: &Matrix) -> Result<Matrix, LinalgError> {
        oracle::factor(a, 0.0, |ajj| ajj * 1e-14)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// 1–9 blocks of one dimension and band (1–4, or the full band) in
        /// batches of [`LANES`] (so the last batch is often partial) fail
        /// where the scalar oracle fails, and once the failing ones get the
        /// solver's boost (a diagonal shift of `1e-6‖A‖∞`) match it.
        #[test]
        fn prop_banded_lanes_match_the_scalar_oracle(
            seed in 0u64..1_000_000,
            n in 1usize..25,
            band in 1usize..6,
            count in 1usize..10,
            pins in 0u64..u64::MAX,
        ) {
            let band = if band == 5 { n } else { band };
            let blocks: Vec<Matrix> = (0..count)
                .map(|b| block(n, band, seed * 16 + b as u64, pins))
                .collect();
            for batch in blocks.chunks(LANES) {
                let want = batch
                    .iter()
                    .enumerate()
                    .find_map(|(lane, a)| rowwise(a).err().map(|e| (lane, e)));
                prop_assert_eq!(batch_of(batch, band).refactor_rowwise().err(), want);
                let boosted: Vec<Matrix> = batch
                    .iter()
                    .map(|a| {
                        let mut a = a.clone();
                        if rowwise(&a).is_err() {
                            let shift = 1e-6 * a.norm_inf();
                            for i in 0..a.rows() {
                                a[(i, i)] += shift;
                            }
                        }
                        a
                    })
                    .collect();
                assert_batch_matches_oracle(&boosted, band, seed);
            }
        }
    }

    #[test]
    fn non_pd_lane_reports_its_pivot_and_blocks_solves() {
        let n = 6;
        for band in [1, 2, n - 1] {
            let good = spd_banded(n, band, 9);
            let mut bad = spd_banded(n, band, 10);
            // A decoupled rank-one trailing block of `t` rows, inside the
            // band: its second pivot cancels to zero.
            let t = n - (band + 1).min(3);
            for r in t..n {
                for c in 0..n {
                    let v = if c >= t { 1.0 } else { 0.0 };
                    bad[(r, c)] = v;
                    bad[(c, r)] = v;
                }
            }
            let want = rowwise(&bad).unwrap_err();
            assert_eq!(want, LinalgError::NotPositiveDefinite { pivot: t + 1 });
            // The lowest failing lane is reported, whatever fails above it.
            let mut batch = batch_of(
                &[good.clone(), bad.clone(), good.clone(), bad.clone()],
                band,
            );
            assert_eq!(batch.refactor_rowwise(), Err((1, want)));
            assert!(!batch.is_valid());
            let mut x = vec![[1.0; LANES]; n];
            let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batch.solve_in_place(&mut x)
            }));
            assert!(solve.is_err(), "solve after a failed factor must panic");
            let mut inv = vec![[0.0; LANES]; n * n];
            let inverse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batch.inverse_into(&mut inv)
            }));
            assert!(inverse.is_err(), "inverse after a failed factor must panic");
            // A NaN entry fails its lane too; an unfactored batch panics.
            let mut nan = good.clone();
            nan[(2, 2)] = f64::NAN;
            let mut batch = batch_of(&[good.clone(), good.clone(), nan], band);
            assert_eq!(
                batch.refactor_rowwise(),
                Err((2, LinalgError::NotPositiveDefinite { pivot: 2 }))
            );
            let fresh = CholeskyLanes::new(n, band);
            assert!(!fresh.is_valid());
            let unfactored =
                std::panic::catch_unwind(|| fresh.solve_in_place(&mut [[0.0; LANES]; 6]));
            assert!(unfactored.is_err(), "an unfactored batch must panic");
            // Reassembling the failing lanes recovers the batch.
            let mut batch = batch_of(&[good.clone(), bad.clone()], band);
            assert!(batch.refactor_rowwise().is_err());
            load(&mut batch, 1, &good);
            batch.refactor_rowwise().unwrap();
            assert!(batch.is_valid());
        }
    }
}

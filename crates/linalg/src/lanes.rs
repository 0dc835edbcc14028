//! Lane-batched Cholesky kernels for many small SPD matrices of one
//! dimension.
//!
//! A structured KKT solve factors hundreds of location blocks a few dozen
//! rows wide every iteration. One matrix at a time, each kernel is a single
//! chain of dependent operations, bound by latency rather than arithmetic.
//! [`CholeskyLanes`] stores [`LANES`] such matrices entry-major and
//! lane-minor — entry `(r, c)` of every lane side by side — and runs every
//! step on all lanes at once. The chains then run in parallel, yet each
//! lane sees exactly the operations [`Cholesky`](crate::Cholesky) performs
//! on its matrix alone, in the same order and without fused multiply-adds,
//! so every lane's results are the same bit for bit.

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

/// [`LANES`] symmetric positive-definite `dim × dim` matrices, factored,
/// inverted and solved side by side.
///
/// Storage is entry-major and lane-minor: entry `(r, c)` of lane `l` is
/// `matrix_mut()[r * dim + c][l]`, and a vector is `dim` entries of
/// [`Lanes`]. Lane `l` of every result equals, bit for bit, what
/// [`Cholesky::refactor_rowwise`](crate::Cholesky::refactor_rowwise) at zero
/// regularization and [`Cholesky::solve_in_place`](crate::Cholesky::solve_in_place)
/// compute from lane `l`'s matrix alone. Lanes a caller leaves unassembled
/// stay the identity, which always factors.
///
/// # Examples
///
/// ```
/// use dspp_linalg::{CholeskyLanes, LANES};
///
/// # fn main() -> Result<(), dspp_linalg::LinalgError> {
/// // Lane 0 holds [[4, 2], [2, 3]]; the other lanes stay the identity.
/// let mut batch = CholeskyLanes::new(2);
/// let a = batch.matrix_mut();
/// a[0][0] = 4.0;
/// a[1][0] = 2.0;
/// a[2][0] = 2.0;
/// a[3][0] = 3.0;
/// batch.refactor_rowwise().map_err(|(_lane, e)| e)?;
/// let mut x = [[10.0, 1.0, 1.0, 1.0], [8.0, 1.0, 1.0, 1.0]];
/// batch.solve_in_place(&mut x);
/// assert!((x[0][0] - 1.75).abs() < 1e-12 && (x[1][0] - 1.5).abs() < 1e-12);
/// assert_eq!(x[0][1..], [1.0; LANES - 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyLanes {
    dim: usize,
    /// The matrices; the factorization reads their lower triangles.
    a: Vec<Lanes>,
    /// Each lane's factor as `Lᵀ`, laid out as `a`; the strict lower
    /// triangle is unused.
    lt: Vec<Lanes>,
    /// Whether `lt` holds a successful factorization of every lane.
    valid: bool,
}

impl CholeskyLanes {
    /// A batch of `dim × dim` identity matrices, not yet factored: the
    /// solve methods panic until the first successful
    /// [`CholeskyLanes::refactor_rowwise`].
    pub fn new(dim: usize) -> Self {
        let mut a = vec![[0.0; LANES]; dim * dim];
        for i in 0..dim {
            a[i * dim + i] = [1.0; LANES];
        }
        CholeskyLanes {
            dim,
            a,
            lt: vec![[0.0; LANES]; dim * dim],
            valid: false,
        }
    }

    /// Dimension of every matrix in the batch.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the last [`CholeskyLanes::refactor_rowwise`] succeeded on
    /// every lane.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// The matrices, for assembly in place; marks the factor stale.
    pub fn matrix_mut(&mut self) -> &mut [Lanes] {
        self.valid = false;
        &mut self.a
    }

    /// Factors every lane's matrix, accepting pivot `j` of a lane when it
    /// exceeds `1e-14 · a_jj`, its own row's scale, as
    /// [`Cholesky::refactor_rowwise`](crate::Cholesky::refactor_rowwise)
    /// does at zero regularization. Right-looking on `Lᵀ`, as `Cholesky`.
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
        let n = self.dim;
        for j in 0..n {
            for i in j..n {
                self.lt[j * n + i] = self.a[i * n + j];
            }
        }
        let mut first_fail = [usize::MAX; LANES];
        for k in 0..n {
            let (head, later) = self.lt.split_at_mut((k + 1) * n);
            let row_k = &mut head[k * n..];
            let d = row_k[k];
            // Negated so a NaN pivot fails, as in `Cholesky`.
            for ((fail, &dl), &ajj) in first_fail.iter_mut().zip(&d).zip(&self.a[k * n + k]) {
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(dl > ajj * 1e-14) {
                    *fail = (*fail).min(k);
                }
            }
            let dsqrt = d.map(f64::sqrt);
            row_k[k] = dsqrt;
            for x in &mut row_k[k + 1..] {
                div(x, &dsqrt);
            }
            for (j, row_j) in (k + 1..n).zip(later.chunks_exact_mut(n)) {
                let ljk = row_k[j];
                for (x, lik) in row_j[j..].iter_mut().zip(&row_k[j..]) {
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

    /// Writes the lower triangle of every lane's `A⁻¹` into `out`, laid out
    /// as the matrices; the strict upper triangle of `out` is left as is.
    ///
    /// Entry `(i, c)`, `i ≥ c`, is bit for bit entry `i` of a solve against
    /// the unit vector `e_c`: the forward sweep subtracts `l_ik·y_kc` for
    /// `k = c … i−1` in order, and the backward sweep `l_ki·x_kc` for
    /// `k = i+1 … dim−1` in order. A unit solve's leading terms `l·(+0)`
    /// leave an entry unchanged (it is never `−0`), and no lower entry
    /// depends on an upper one, so nothing else is computed.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim²` or if the factor is invalid.
    pub fn inverse_lower_into(&self, out: &mut [Lanes]) {
        self.assert_valid("inverse");
        let n = self.dim;
        assert_eq!(out.len(), n * n, "cholesky lanes inverse: output shape");
        // Forward, L Y = I: row k of Y is final once divided, then leaves
        // its multiple in every later row.
        for i in 0..n {
            out[i * n..i * n + i].fill([0.0; LANES]);
            out[i * n + i] = [1.0; LANES];
        }
        for k in 0..n {
            let lt_k = &self.lt[k * n..(k + 1) * n];
            let (head, later) = out.split_at_mut((k + 1) * n);
            let y_k = &mut head[k * n..=k * n + k];
            for y in y_k.iter_mut() {
                div(y, &lt_k[k]);
            }
            for (x_i, lik) in later.chunks_exact_mut(n).zip(&lt_k[k + 1..]) {
                for (x, y) in x_i[..=k].iter_mut().zip(y_k.iter()) {
                    sub_mul(x, lik, y);
                }
            }
        }
        // Backward, Lᵀ X = Y: X_i = (Y_i − Σ_{k>i} l_ki X_k) / l_ii, k
        // ascending; a right-looking sweep would reverse that order.
        for i in (0..n).rev() {
            let lt_i = &self.lt[i * n..(i + 1) * n];
            let (head, later) = out.split_at_mut((i + 1) * n);
            let x_i = &mut head[i * n..=i * n + i];
            for (x_k, lki) in later.chunks_exact(n).zip(&lt_i[i + 1..]) {
                for (x, y) in x_i.iter_mut().zip(&x_k[..=i]) {
                    sub_mul(x, lki, y);
                }
            }
            for x in x_i.iter_mut() {
                div(x, &lt_i[i]);
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
    /// `b_i − l_i0·y_0 − … − l_i,i−1·y_i−1` in that order.
    fn forward(&self, b: &mut [Lanes]) {
        let n = self.dim;
        for k in 0..n {
            let row = &self.lt[k * n..(k + 1) * n];
            div(&mut b[k], &row[k]);
            let (head, later) = b.split_at_mut(k + 1);
            for (x, lik) in later.iter_mut().zip(&row[k + 1..]) {
                sub_mul(x, lik, &head[k]);
            }
        }
    }

    /// `Lᵀ x = y`, one dot product per row of `Lᵀ`.
    fn backward(&self, b: &mut [Lanes]) {
        let n = self.dim;
        for i in (0..n).rev() {
            let row = &self.lt[i * n..(i + 1) * n];
            let (head, later) = b.split_at_mut(i + 1);
            let s = &mut head[i];
            for (lki, xk) in row[i + 1..].iter().zip(later.iter()) {
                sub_mul(s, lki, xk);
            }
            div(s, &row[i]);
        }
    }

    /// Writes `A x` into `ax` and `|A||x|` into `abs` on every lane. Row `r`
    /// accumulates `a_rc·x_c` and its magnitude over the whole row in
    /// column order, starting from `+0`. Reads only the matrices, so it
    /// needs no factor.
    ///
    /// # Panics
    ///
    /// Panics unless `x`, `ax` and `abs` all have `dim` entries.
    pub fn matvec_abs_into(&self, x: &[Lanes], ax: &mut [Lanes], abs: &mut [Lanes]) {
        let n = self.dim;
        assert!(
            x.len() == n && ax.len() == n && abs.len() == n,
            "cholesky lanes matvec: vector lengths"
        );
        for (r, (acc, mag)) in ax.iter_mut().zip(abs.iter_mut()).enumerate() {
            let mut sum = [0.0; LANES];
            let mut sum_abs = [0.0; LANES];
            for (h, xc) in self.a[r * n..(r + 1) * n].iter().zip(x) {
                for (((s, sa), h), xc) in sum.iter_mut().zip(&mut sum_abs).zip(h).zip(xc) {
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
    use crate::oracle::{self, barrier_block, pin_rows, spd};
    use crate::Matrix;
    use proptest::prelude::*;

    /// Loads `blocks` (at most [`LANES`], one dimension) into the leading
    /// lanes of a fresh batch.
    fn batch_of(blocks: &[Matrix]) -> CholeskyLanes {
        let n = blocks[0].rows();
        let mut batch = CholeskyLanes::new(n);
        let a = batch.matrix_mut();
        for (lane, m) in blocks.iter().enumerate() {
            for r in 0..n {
                for c in 0..n {
                    a[r * n + c][lane] = m[(r, c)];
                }
            }
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

    /// Every kernel of one batch, lane by lane, against the scalar oracle:
    /// the factor, the lower inverse (over stale output), each sweep of
    /// the solve and the residual matvec, all bit for bit.
    fn assert_batch_matches_oracle(blocks: &[Matrix], seed: u64) {
        let n = blocks[0].rows();
        let mut batch = batch_of(blocks);
        batch.refactor_rowwise().unwrap();
        let mut inv = vec![[f64::NAN; LANES]; n * n];
        batch.inverse_lower_into(&mut inv);
        let load = |lane_rhs: &dyn Fn(usize) -> Vec<f64>| -> Vec<Lanes> {
            let mut v = vec![[0.0; LANES]; n];
            for lane in 0..blocks.len() {
                for (x, b) in v.iter_mut().zip(lane_rhs(lane)) {
                    x[lane] = b;
                }
            }
            v
        };
        let b = load(&|lane| rhs(n, lane, seed));
        let mut fwd = b.clone();
        batch.forward(&mut fwd);
        let mut bwd = b.clone();
        batch.backward(&mut bwd);
        let mut sol = b.clone();
        batch.solve_in_place(&mut sol);
        let (mut ax, mut abs) = (vec![[0.0; LANES]; n], vec![[0.0; LANES]; n]);
        batch.matvec_abs_into(&b, &mut ax, &mut abs);
        for (lane, m) in blocks.iter().enumerate() {
            let l = rowwise(m).unwrap();
            let want_inv = oracle::inverse(&l);
            for r in 0..n {
                for c in 0..=r {
                    assert_eq!(
                        batch.lt[c * n + r][lane].to_bits(),
                        l[(r, c)].to_bits(),
                        "L[{r}][{c}], lane {lane} of dimension {n}"
                    );
                    assert_eq!(
                        inv[r * n + c][lane].to_bits(),
                        want_inv[(r, c)].to_bits(),
                        "inverse ({r}, {c}), lane {lane} of dimension {n}"
                    );
                }
            }
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
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{what} entry {i}, lane {lane} of dimension {n}"
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

    /// A random symmetric block whose diagonal spans 1e-2…1e14: a plain
    /// SPD matrix, a barrier-scaled block, or either with pinned identity
    /// rows. A heavy demand-row term can cancel a barrier block's pivot
    /// below its row's round-off, so some fail the per-row pivot test.
    fn block(n: usize, seed: u64, pins: u64) -> Matrix {
        let mut a = match seed % 4 {
            0 => spd(n, seed),
            _ => barrier_block(n, seed),
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

        /// 1–9 blocks of one dimension in batches of [`LANES`] (so the last
        /// batch is often partial) fail where the scalar oracle fails, and
        /// once the failing ones get the solver's boost (a diagonal shift
        /// of `1e-6‖A‖∞`) match it bit for bit.
        #[test]
        fn prop_lanes_match_the_scalar_oracle_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..25,
            count in 1usize..10,
            pins in 0u64..u64::MAX,
        ) {
            let blocks: Vec<Matrix> = (0..count)
                .map(|b| block(n, seed * 16 + b as u64, pins))
                .collect();
            for batch in blocks.chunks(LANES) {
                let want = batch
                    .iter()
                    .enumerate()
                    .find_map(|(lane, a)| rowwise(a).err().map(|e| (lane, e)));
                prop_assert_eq!(batch_of(batch).refactor_rowwise().err(), want);
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
                assert_batch_matches_oracle(&boosted, seed);
            }
        }
    }

    #[test]
    fn non_pd_lane_reports_its_pivot_and_blocks_solves() {
        let n = 6;
        let good = spd(n, 9);
        let mut bad = spd(n, 10);
        // Rank-one trailing block: pivot 4 cancels to zero.
        for r in 3..n {
            for c in 3..n {
                bad[(r, c)] = 1.0;
            }
        }
        for (r, c) in (3..n).flat_map(|r| (0..3).map(move |c| (r, c))) {
            bad[(r, c)] = 0.0;
            bad[(c, r)] = 0.0;
        }
        let want = rowwise(&bad).unwrap_err();
        assert_eq!(want, LinalgError::NotPositiveDefinite { pivot: 4 });
        // The lowest failing lane is reported, whatever fails above it.
        let mut batch = batch_of(&[good.clone(), bad.clone(), good.clone(), bad.clone()]);
        assert_eq!(batch.refactor_rowwise(), Err((1, want)));
        assert!(!batch.is_valid());
        let mut x = vec![[1.0; LANES]; n];
        let solve = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.solve_in_place(&mut x)
        }));
        assert!(solve.is_err(), "solve after a failed factor must panic");
        let mut inv = vec![[0.0; LANES]; n * n];
        let inverse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            batch.inverse_lower_into(&mut inv)
        }));
        assert!(inverse.is_err(), "inverse after a failed factor must panic");
        // A NaN entry fails its lane too; an unfactored batch panics.
        let mut nan = good.clone();
        nan[(2, 2)] = f64::NAN;
        let mut batch = batch_of(&[good.clone(), good.clone(), nan]);
        assert_eq!(
            batch.refactor_rowwise(),
            Err((2, LinalgError::NotPositiveDefinite { pivot: 2 }))
        );
        let fresh = CholeskyLanes::new(n);
        assert!(!fresh.is_valid());
        let unfactored = std::panic::catch_unwind(|| fresh.solve_in_place(&mut [[0.0; LANES]; 6]));
        assert!(unfactored.is_err(), "an unfactored batch must panic");
        // Reassembling the failing lanes recovers the batch.
        let mut batch = batch_of(&[good.clone(), bad.clone()]);
        assert!(batch.refactor_rowwise().is_err());
        let a = batch.matrix_mut();
        for r in 0..n {
            for c in 0..n {
                a[r * n + c][1] = good[(r, c)];
            }
        }
        batch.refactor_rowwise().unwrap();
        assert!(batch.is_valid());
    }
}

//! Test oracles: the scalar Cholesky kernels the production ones must
//! reproduce (bit for bit, or value for value where a banded kernel skips
//! products with zeros) — a left-looking (dot-product) factorization, its
//! row-by-row solve and Takahashi's inverse — plus the random SPD and
//! barrier-scaled blocks, dense and banded, the kernel tests draw from, and
//! the products the tests check residuals with.

use crate::{LinalgError, Matrix, Vector};

/// `A x`.
pub(crate) fn matvec(a: &Matrix, x: &Vector) -> Vector {
    (0..a.rows())
        .map(|i| a.row(i).iter().zip(x.iter()).map(|(a, x)| a * x).sum())
        .collect()
}

/// `Aᵀ x`.
pub(crate) fn matvec_t(a: &Matrix, x: &Vector) -> Vector {
    (0..a.cols())
        .map(|j| (0..a.rows()).map(|i| a[(i, j)] * x[i]).sum())
        .collect()
}

/// Left-looking Cholesky of `a + reg·I` (lower triangle read), pivot `j`
/// accepted when it exceeds `tol(a_jj + reg)`. Returns `L`.
pub(crate) fn factor(
    a: &Matrix,
    reg: f64,
    tol: impl Fn(f64) -> f64,
) -> Result<Matrix, LinalgError> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let diag = a[(j, j)] + reg;
        let mut d = diag;
        for k in 0..j {
            let ljk = l[(j, k)];
            d -= ljk * ljk;
        }
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
    Ok(l)
}

/// Forward substitution `L y = b`, one dot product per row.
pub(crate) fn forward(l: &Matrix, b: &mut [f64]) {
    for i in 0..l.rows() {
        let mut s = b[i];
        let row = l.row(i);
        for (k, lik) in row.iter().enumerate().take(i) {
            s -= lik * b[k];
        }
        b[i] = s / row[i];
    }
}

/// Backward substitution `Lᵀ x = y`, one dot product per row.
pub(crate) fn backward(l: &Matrix, b: &mut [f64]) {
    let n = l.rows();
    for i in (0..n).rev() {
        let mut s = b[i];
        for (k, &bk) in b.iter().enumerate().take(n).skip(i + 1) {
            s -= l[(k, i)] * bk;
        }
        b[i] = s / l[(i, i)];
    }
}

/// `A⁻¹` from `L` by Takahashi's recurrence, as
/// [`CholeskyLanes::inverse_into`](crate::CholeskyLanes::inverse_into)
/// computes it but over the whole of `L`: column `j` from the last, with
/// `r = 1/l_jj`, `Z_ij = r·(δ_ij·r − Σ_{k>j} l_kj·Z_ik)` for `i = n−1`
/// down to `j`, the sum in ascending `k`, each entry written to both
/// triangles.
pub(crate) fn inverse(l: &Matrix) -> Matrix {
    let n = l.rows();
    let mut z = Matrix::zeros(n, n);
    for j in (0..n).rev() {
        let r = 1.0 / l[(j, j)];
        for i in (j..n).rev() {
            let mut acc = if i == j { r } else { 0.0 };
            for k in j + 1..n {
                acc -= l[(k, j)] * z[(i, k)];
            }
            let v = r * acc;
            z[(i, j)] = v;
            z[(j, i)] = v;
        }
    }
    z
}

/// Residual of `z` as `A⁻¹`, in units of `ε`: the largest
/// `|(A Z − I)_ij| / ((|A|·1)_i · max|Z|)`, each product summed in column
/// order; an exact zero residual counts as zero. Independent of how `z`
/// was computed. Takahashi's recurrence meets it at a few `ε` on every
/// block the kernel tests draw, as the unit-vector solves do. It does not
/// meet the tighter `|A||Z|` scaling there, nor `max|Z|` taken per column:
/// on a barrier block whose diagonal spans 16 decades, a column of tiny
/// entries carries errors of `ε·max|Z|`. The unit-vector solves miss the
/// `|A||Z|` scaling on those blocks too.
pub(crate) fn inverse_residual(a: &Matrix, z: impl Fn(usize, usize) -> f64) -> f64 {
    let n = a.rows();
    let z_max = (0..n * n)
        .map(|i| z(i / n, i % n).abs())
        .fold(0.0, f64::max);
    let mut worst = 0.0f64;
    for i in 0..n {
        let row: f64 = a.row(i).iter().map(|h| h.abs()).sum();
        for j in 0..n {
            let mut r = if i == j { -1.0 } else { 0.0 };
            for k in 0..n {
                r += a[(i, k)] * z(k, j);
            }
            if r != 0.0 {
                worst = worst.max(r.abs() / (row * z_max) / f64::EPSILON);
            }
        }
    }
    worst
}

/// Uniform draws on `[-1, 1)` from a cheap LCG.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    }
}

/// A random SPD matrix `BᵀB + n·I` from a cheap LCG.
pub(crate) fn spd(n: usize, seed: u64) -> Matrix {
    let mut next = uniform(seed);
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = next();
        }
    }
    let mut a = gram(&b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// A random SPD matrix of lower bandwidth `band`: `BᵀB + n·I` for an upper
/// triangular `B` whose row `k` is nonzero in columns `k..=k + band` only.
pub(crate) fn spd_banded(n: usize, band: usize, seed: u64) -> Matrix {
    let mut next = uniform(seed);
    let mut b = Matrix::zeros(n, n);
    for k in 0..n {
        for j in k..n.min(k + band + 1) {
            b[(k, j)] = next();
        }
    }
    let mut a = gram(&b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// `BᵀB`, accumulated row by row over the upper triangle and mirrored.
fn gram(b: &Matrix) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros(n, n);
    for k in 0..b.rows() {
        let row = b.row(k);
        for i in 0..n {
            let bki = row[i];
            if bki == 0.0 {
                continue;
            }
            for j in i..n {
                out[(i, j)] += bki * row[j];
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

/// A barrier-scaled location block: a tridiagonal chain whose diagonal
/// spans 1e-2…1e14 (log-uniform), plus a rank-one demand-row term
/// `w c cᵀ` with `w` from the same range. Diagonally dominant chain + PSD
/// term, so SPD.
pub(crate) fn barrier_block(n: usize, seed: u64) -> Matrix {
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

/// A barrier-scaled location block in slot-major order, `arcs` rows per
/// slot (the last slot may be partial), so of lower bandwidth `arcs`: a
/// chain couples each row to the row `arcs` later, with a diagonal on
/// 1e-2…1e14 that dominates it, and each slot's rows carry the demand
/// row's rank-one term `w c cᵀ`, one `w` log-uniform on the same range for
/// every slot. SPD. The diagonal's exponent is skewed toward 1e-2, where a
/// heavy `w` cancels pivots below their rows' round-off.
pub(crate) fn slot_major_block(n: usize, arcs: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(5);
    let mut unit = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let diag: Vec<f64> = (0..n)
        .map(|_| 10f64.powf(-2.0 + 16.0 * unit() * unit()))
        .collect();
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = diag[i];
        if i + arcs < n {
            let off = -0.4 * unit() * diag[i].min(diag[i + arcs]);
            a[(i, i + arcs)] = off;
            a[(i + arcs, i)] = off;
        }
    }
    let w = 10f64.powf(-2.0 + 16.0 * unit());
    for slot in (0..n).step_by(arcs) {
        let rows = slot..n.min(slot + arcs);
        let c: Vec<f64> = rows
            .clone()
            .map(|_| [0.0, 1.0, -1.0][(unit() * 3.0) as usize])
            .collect();
        for (p, i) in rows.clone().enumerate() {
            for (q, j) in rows.clone().enumerate() {
                a[(i, j)] += c[p] * c[q] * w;
            }
        }
    }
    a
}

/// Turns every row `i` with `pins >> (i % 64) & 1` set into a decoupled
/// identity row, as the solver does for pinned slots.
pub(crate) fn pin_rows(a: &mut Matrix, pins: u64) {
    let n = a.rows();
    for r in (0..n).filter(|r| pins >> (r % 64) & 1 == 1) {
        for c in 0..n {
            a[(r, c)] = 0.0;
            a[(c, r)] = 0.0;
        }
        a[(r, r)] = 1.0;
    }
}

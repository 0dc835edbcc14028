//! Test oracles: the scalar Cholesky kernels the production ones must
//! reproduce bit for bit — a left-looking (dot-product) factorization, its
//! row-by-row solve and the lockstep inverse — plus the random SPD and
//! barrier-scaled blocks the kernel tests draw from.

use crate::{LinalgError, Matrix};

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

/// `A⁻¹` from `L`, the substitutions of all unit right-hand sides run in
/// lockstep: column `j` is bit for bit `forward` then `backward` on `e_j`.
pub(crate) fn inverse(l: &Matrix) -> Matrix {
    let n = l.rows();
    let mut inv = Matrix::zeros(n, n);
    let out = inv.as_mut_slice();
    for i in 0..n {
        let l_row = l.row(i);
        let (done, rest) = out.split_at_mut(i * n);
        let x_i = &mut rest[..n];
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
    for i in (0..n).rev() {
        let (head, later) = out.split_at_mut((i + 1) * n);
        let x_i = &mut head[i * n..];
        for (x_k, k) in later.chunks_exact(n).zip(i + 1..n) {
            let lki = l[(k, i)];
            for (x, &y) in x_i.iter_mut().zip(x_k) {
                *x -= lki * y;
            }
        }
        let lii = l[(i, i)];
        for x in x_i.iter_mut() {
            *x /= lii;
        }
    }
    inv
}

/// A random SPD matrix `BᵀB + n·I` from a cheap LCG.
pub(crate) fn spd(n: usize, seed: u64) -> Matrix {
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
    let mut a = gram(&b);
    a.add_diag(n as f64);
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

//! Structure-exploiting interior-point path for DSPP-shaped problems.
//!
//! This is the solve path for every DSPP horizon. A dense Riccati
//! recursion costs `O(W·n³)` per interior-point iteration, which at 100
//! data centers × 1000 locations (thousands of arcs) is minutes per solve
//! and gigabytes of stage matrices. This module exploits what
//! [`StructuredLq`] records: after eliminating inputs
//! (`Δu_k = Δx_{k+1} − Δx_k`) and costates, the condensed Newton system
//! `H y = b` over `y = (Δx_1, …, Δx_W)` has
//!
//! ```text
//! H = T + Gᵀ W_c G
//! ```
//!
//! where `T` is block-diagonal over *arcs* — one `W×W` tridiagonal chain
//! per arc, carrying the input Hessians, regularization, the barrier
//! weights of the single-arc rows and of the input box rows — and `G`
//! holds only the aggregate coupling rows, `W_c` their barrier weights.
//! Demand rows have disjoint arc supports (one row per location), and so
//! do capacity rows (one per data center). Each location's chains plus its
//! demand row form one small dense SPD block `H_v = T_v + c_v w_v c_vᵀ`,
//! factored directly. The capacity rows stay in augmented form, with
//! their multiplier step `u = Δz_B` as an unknown:
//!
//! ```text
//! [H_A   G_Bᵀ ] [Δx]   [b̃         ]
//! [G_B  −W_B⁻¹] [u ] = [−W_B⁻¹ t_B],   S_B = W_B⁻¹ + Σ_v G_B H_v⁻¹ G_Bᵀ,
//! ```
//!
//! and `S_B`, one dense SPD system of dimension `W · #capacity rows` — a
//! few hundred even at 100× scale — is factored by
//! [`dspp_linalg::SchurComplement`]. Every term of `S_B` is positive
//! semidefinite, so nothing cancels when demand and capacity rows bind
//! together, and `W_B⁻¹ t_B = r − r_c/z` is `O(1)` where `t_B` itself grows
//! with the barrier weight. Per-iteration cost is `O(Σ_v (a_v·W)³ +
//! (W·L)³)` for `a_v` arcs at location `v` and `L` data centers:
//! near-linear in locations.
//!
//! Three extensions keep every DSPP solve on this path:
//!
//! * **Input box rows** `|u_{k,e}| ≤ u_max` touch one input each; since
//!   `u_k = x_{k+1} − x_k`, their barrier weight adds to the chain term of
//!   their arc and stage, next to `R_k`.
//! * **Recovery slacks.** The relaxation softens a slot's leading rows
//!   `i` into `(Cx)_i − σ_i ≤ d_i`, `σ_i ≥ 0`, priced `ρ_i σ_i + ε σ_i²`.
//!   Each slack appears in its row, its own non-negativity row and its own
//!   stationarity equation only, so it is eliminated in closed form: the
//!   row keeps its place in its location block with the effective barrier
//!   weight `w (2ε + w′) / (2ε + w + w′)`.
//! * **Dead capacity.** Arcs a zero-capacity row pins to zero (see
//!   [`StructuredLq::pins`]) drop out of their chains for that slot, and
//!   the rows the pin satisfies identically leave the iteration, so a dark
//!   data center never produces the rank-deficient rows that stall an
//!   interior-point method.
//!
//! The outer loop is a Mehrotra predictor–corrector with the stopping
//! rules, regularization-boost retry, degraded acceptance and
//! infeasibility classification of the dense Riccati oracle that the
//! `dspp-oracle` test crate checks it against. Each Newton solve is
//! refined against the exact augmented system until its componentwise
//! backward error reaches round-off: late iterations push the barrier
//! weights across ~15 decades, and a fixed number of refinement passes
//! leaves too much error in the direction for the iterates to stay on the
//! central path.

use crate::structured::StructuredLq;
use crate::{IpmSettings, LqSolution, RelaxedSolution, SoftSpec, SolveStatus, SolverError};
use dspp_linalg::{CholeskyLanes, Lanes, LinalgError, SchurComplement, Vector, LANES};
use dspp_telemetry::{AttrValue, Recorder};
use std::time::Instant;

/// Upper bound on iterative-refinement passes per Newton solve. The
/// stopping test is the residual reaching round-off (or refinement
/// ceasing to reduce it); this cap only bounds a pathological loop.
const MAX_REFINEMENT_PASSES: usize = 10;

/// Componentwise backward error at which a Newton solve counts as exact:
/// a small multiple of machine epsilon, the level a residual evaluated in
/// floating point cannot go below.
const ROUND_OFF: f64 = 16.0 * f64::EPSILON;

/// One location block of `H_A = T + G_Aᵀ W_A G_A`: the chains of the
/// arcs one group-A (demand) row covers, plus that row's barrier term
/// (arcs in no group-A row form singleton blocks without a row).
struct Block {
    /// The block's arcs; local arc `p` occupies rows `[p·W, (p+1)·W)`.
    arcs: Vec<usize>,
    /// The group-A row and its coefficient on each local arc.
    row: Option<(usize, Vec<f64>)>,
    /// The batch holding the block, and its lane there.
    batch: usize,
    lane: usize,
}

/// Up to [`LANES`] location blocks of one dimension, assembled, factored,
/// inverted and solved side by side. The lanes of a partial batch stay the
/// identity and are never scattered.
struct Batch {
    /// The blocks in lanes `0..blocks.len()`.
    blocks: Vec<usize>,
    /// The assembled blocks and their factors.
    chol: CholeskyLanes,
    /// Lower triangle of each block's inverse (zero on pinned rows and
    /// columns).
    inv: Vec<Lanes>,
    /// Gather/scatter scratch of the block dimension, and the residual's
    /// `H_v x` and `|H_v||x|`.
    x: Vec<Lanes>,
    hx: Vec<Lanes>,
    abs: Vec<Lanes>,
}

impl Batch {
    fn new(blocks: Vec<usize>, dim: usize) -> Self {
        let lanes = || vec![[0.0; LANES]; dim];
        Batch {
            blocks,
            chol: CholeskyLanes::new(dim),
            inv: vec![[0.0; LANES]; dim * dim],
            x: lanes(),
            hx: lanes(),
            abs: lanes(),
        }
    }
}

/// Preallocated factorization workspace for the condensed structured KKT
/// system; rebuilt by [`SchurKkt::refactor`] every interior-point
/// iteration without allocating.
///
/// `H = H_A + G_Bᵀ W_B G_B`, where `H_A` is block-diagonal over
/// locations. Every location block is factored as one dense SPD matrix;
/// the capacity rows stay in augmented form with their multiplier step
/// `u = Δz_B` as an unknown, and are eliminated onto
/// `S_B = W_B⁻¹ + Σ_v G_B H_v⁻¹ G_Bᵀ` — a sum of positive semidefinite
/// terms. No step subtracts one large quantity from another when demand
/// and capacity rows bind together, and a binding capacity row's huge
/// barrier weight never multiplies a rounding error in `G_B Δx`.
struct SchurKkt {
    w: usize,
    /// Per arc: the single-arc rows touching it (row index, coefficient).
    diag_by_arc: Vec<Vec<(usize, f64)>>,
    blocks: Vec<Block>,
    /// The blocks grouped by dimension, in block order within a dimension.
    batches: Vec<Batch>,
    /// Inverse barrier weight `D = W_B⁻¹` per capacity row and slot (one
    /// on vacuous rows).
    dcap: Vector,
    /// Dense system over the group-B (capacity) rows.
    s_cap: SchurComplement,
    // --- scratch ---
    corr: Vector,
    rhs: Vector,
    rhs_u: Vector,
    resid: Vector,
    resid_u: Vector,
    y_try: Vector,
    u_try: Vector,
}

impl SchurKkt {
    fn new(slq: &StructuredLq) -> Self {
        let (n, w, nb) = (slq.n, slq.w, slq.group_b.len());
        let mut diag_by_arc: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for dr in &slq.diag_rows {
            diag_by_arc[dr.arc].push((dr.row, dr.coeff));
        }
        let mut covered = vec![false; n];
        let block = |arcs, row| Block {
            arcs,
            row,
            batch: 0,
            lane: 0,
        };
        let mut blocks: Vec<Block> = slq
            .group_a
            .iter()
            .filter(|cr| !cr.entries.is_empty())
            .map(|cr| {
                for &(e, _) in &cr.entries {
                    covered[e] = true;
                }
                block(
                    cr.entries.iter().map(|&(e, _)| e).collect(),
                    Some((cr.row, cr.entries.iter().map(|&(_, c)| c).collect())),
                )
            })
            .collect();
        blocks.extend(
            (0..n)
                .filter(|&e| !covered[e])
                .map(|e| block(vec![e], None)),
        );
        let sizes: Vec<usize> = blocks.iter().map(|b| b.arcs.len()).collect();
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by_key(|&b| sizes[b]);
        let mut batches = Vec::new();
        for same_dim in order.chunk_by(|&a, &b| sizes[a] == sizes[b]) {
            for lanes in same_dim.chunks(LANES) {
                for (lane, &b) in lanes.iter().enumerate() {
                    blocks[b].batch = batches.len();
                    blocks[b].lane = lane;
                }
                batches.push(Batch::new(lanes.to_vec(), sizes[lanes[0]] * w));
            }
        }
        SchurKkt {
            w,
            diag_by_arc,
            blocks,
            batches,
            dcap: Vector::zeros(nb * w),
            s_cap: SchurComplement::new(nb * w),
            corr: Vector::zeros(n * w),
            rhs: Vector::zeros(n * w),
            rhs_u: Vector::zeros(nb * w),
            resid: Vector::zeros(n * w),
            resid_u: Vector::zeros(nb * w),
            y_try: Vector::zeros(n * w),
            u_try: Vector::zeros(nb * w),
        }
    }

    /// Dimension of the final dense coupling system.
    fn dense_dim(&self) -> usize {
        self.s_cap.dim()
    }

    /// Largest location-block dimension.
    fn block_dim(&self) -> usize {
        self.batches.iter().map(|b| b.chol.dim()).max().unwrap_or(0)
    }

    /// Zeroes the pinned entries of an arc-major vector.
    fn clear_pinned(slq: &StructuredLq, v: &mut Vector) {
        for (i, &p) in slq.pinned.iter().enumerate() {
            if p {
                v[i] = 0.0;
            }
        }
    }

    /// Rebuilds and refactors the whole condensed system. `wm[k]` holds the
    /// effective barrier weight of every model row of slot `k` (zero for a
    /// vacuous row), `rt[k]` the chain weight `R_k + reg + box weights` of
    /// every arc's stage-`k` input.
    fn refactor(
        &mut self,
        slq: &StructuredLq,
        wm: &[Vector],
        rt: &[Vector],
        reg: f64,
    ) -> Result<(), LinalgError> {
        let w = self.w;
        // The first failing block in block order, as a block-by-block loop
        // would report it.
        let mut failed: Option<(usize, LinalgError)> = None;
        for batch in &mut self.batches {
            let dim = batch.chol.dim();
            let h = batch.chol.matrix_mut();
            for (lane, blk) in batch.blocks.iter().map(|&b| &self.blocks[b]).enumerate() {
                for entry in h.iter_mut() {
                    entry[lane] = 0.0;
                }
                // Chains: Σ_k R̃_k (y_{k+1} − y_k)² plus the single-arc rows'
                // barrier terms on the diagonal.
                for (p, &e) in blk.arcs.iter().enumerate() {
                    let o = p * w;
                    // `k` is a stage index into several arrays.
                    #[allow(clippy::needless_range_loop)]
                    for k in 1..=w {
                        let i = o + k - 1;
                        let mut d = rt[k - 1][e];
                        if k < w {
                            let r_next = rt[k][e];
                            d += r_next;
                            h[i * dim + i + 1][lane] = -r_next;
                            h[(i + 1) * dim + i][lane] = -r_next;
                        }
                        for &(row, c) in &self.diag_by_arc[e] {
                            d += wm[k][row] * c * c;
                        }
                        h[i * dim + i][lane] = d;
                    }
                }
                // The location's demand row, slot by slot.
                if let Some((row, coeffs)) = &blk.row {
                    for i in 0..w {
                        let weight = wm[i + 1][*row];
                        for (p, &cp) in coeffs.iter().enumerate() {
                            for (q, &cq) in coeffs.iter().enumerate() {
                                h[(p * w + i) * dim + q * w + i][lane] += cp * cq * weight;
                            }
                        }
                    }
                }
                // A pinned slot is a decoupled identity row.
                for (p, &e) in blk.arcs.iter().enumerate() {
                    for i in 0..w {
                        if slq.pinned[e * w + i] {
                            let r = p * w + i;
                            for c in 0..dim {
                                h[r * dim + c][lane] = 0.0;
                                h[c * dim + r][lane] = 0.0;
                            }
                            h[r * dim + r][lane] = 1.0;
                        }
                    }
                }
            }
            if let Err((lane, e)) = batch.chol.refactor_rowwise() {
                let b = batch.blocks[lane];
                if failed.as_ref().is_none_or(|&(first, _)| b < first) {
                    failed = Some((b, e));
                }
                continue;
            }
            batch.chol.inverse_lower_into(&mut batch.inv);
            for (lane, blk) in batch.blocks.iter().map(|&b| &self.blocks[b]).enumerate() {
                for (p, &e) in blk.arcs.iter().enumerate() {
                    for i in 0..w {
                        if slq.pinned[e * w + i] {
                            batch.inv[(p * w + i) * dim + p * w + i][lane] = 0.0;
                        }
                    }
                }
            }
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        // S_B = W_B⁻¹ + Σ_v G_B H_v⁻¹ G_Bᵀ; a vacuous row (all arcs
        // pinned, so decoupled) gets an identity entry.
        self.s_cap.reset();
        for (jb, cr) in slq.group_b.iter().enumerate() {
            #[allow(clippy::needless_range_loop)] // `k` is a slot index into several arrays
            for k in 1..=w {
                let j = jb * w + k - 1;
                self.dcap[j] = if slq.vacuous[k - 1][cr.row] {
                    1.0
                } else {
                    1.0 / wm[k][cr.row]
                };
                self.s_cap.add_diag_entry(j, self.dcap[j]);
            }
        }
        // Only S_B's lower triangle, all its factor reads. Builders
        // enumerate arcs data-center-major, so a block's arcs ascend in
        // capacity row and that triangle draws on the lower triangle of
        // each block inverse alone; a hand-built block with other orders
        // reads an entry's mirror.
        let s = self.s_cap.matrix_mut();
        for blk in &self.blocks {
            let batch = &self.batches[blk.batch];
            let dim = batch.chol.dim();
            let inv = |r: usize, c: usize| batch.inv[r.max(c) * dim + r.min(c)][blk.lane];
            for (p, &ep) in blk.arcs.iter().enumerate() {
                let (lp, cp) = slq.arc_b[ep];
                if lp == crate::structured::NO_ROW {
                    continue;
                }
                for (q, &eq) in blk.arcs.iter().enumerate() {
                    let (lq, cq) = slq.arc_b[eq];
                    if lq == crate::structured::NO_ROW || lq > lp {
                        continue;
                    }
                    let c = cp * cq;
                    for i in 0..w {
                        let row = s.row_mut(lp * w + i);
                        let cols = if lq == lp { i + 1 } else { w };
                        for (j, x) in row[lq * w..lq * w + cols].iter_mut().enumerate() {
                            *x += c * inv(p * w + i, q * w + j);
                        }
                    }
                }
            }
        }
        self.s_cap.refactor(reg)
    }

    /// Copies each block's entries of the arc-major `v` into its lane of
    /// its batch's `x`.
    fn gather(blocks: &[Block], w: usize, batch: &mut Batch, v: &Vector) {
        for (lane, &b) in batch.blocks.iter().enumerate() {
            for (p, &e) in blocks[b].arcs.iter().enumerate() {
                for i in 0..w {
                    batch.x[p * w + i][lane] = v[e * w + i];
                }
            }
        }
    }

    /// Copies lane by lane `from` back into each block's entries of `v`.
    fn scatter(blocks: &[Block], w: usize, batch: &Batch, from: &[Lanes], v: &mut Vector) {
        for (lane, &b) in batch.blocks.iter().enumerate() {
            for (p, &e) in blocks[b].arcs.iter().enumerate() {
                for i in 0..w {
                    v[e * w + i] = from[p * w + i][lane];
                }
            }
        }
    }

    /// `v ← H_A⁻¹ v`, batch by batch.
    fn block_solve(&mut self, v: &mut Vector) {
        let w = self.w;
        for batch in &mut self.batches {
            Self::gather(&self.blocks, w, batch, v);
            batch.chol.solve_in_place(&mut batch.x);
            Self::scatter(&self.blocks, w, batch, &batch.x, v);
        }
    }

    /// Solves the augmented system
    ///
    /// ```text
    /// [H_A   G_Bᵀ] [y]   [b]
    /// [G_B   −D  ] [u] = [f]
    /// ```
    ///
    /// in place (`y` arc-major: arc `e`'s chain occupies `[e·W, (e+1)·W)`;
    /// `u` capacity-row-major), using the last successful
    /// [`SchurKkt::refactor`]. Pinned entries of `y` come back zero.
    fn solve_in_place(&mut self, slq: &StructuredLq, y: &mut Vector, u: &mut Vector) {
        let w = self.w;
        // g = H_A⁻¹ b on the free entries.
        Self::clear_pinned(slq, y);
        self.block_solve(y);
        // S_B u = G_B g − f.
        for (jb, cr) in slq.group_b.iter().enumerate() {
            for i in 0..w {
                let mut acc = 0.0;
                for &(e, c) in &cr.entries {
                    acc += c * y[e * w + i];
                }
                u[jb * w + i] = acc - u[jb * w + i];
            }
        }
        self.s_cap.solve_in_place(u);
        // y = g − H_A⁻¹ G_Bᵀ u.
        let mut corr = std::mem::take(&mut self.corr);
        corr.fill(0.0);
        for (jb, cr) in slq.group_b.iter().enumerate() {
            for &(e, c) in &cr.entries {
                for i in 0..w {
                    corr[e * w + i] = c * u[jb * w + i];
                }
            }
        }
        Self::clear_pinned(slq, &mut corr);
        self.block_solve(&mut corr);
        y.axpy(-1.0, &corr);
        self.corr = corr;
    }

    /// Writes the residual of the exact augmented system (the one
    /// [`SchurKkt::refactor`] factored, regularization included) at
    /// `(y, u)` into `resid`/`resid_u`, and returns its componentwise
    /// backward error `max_i |r_i| / (|rhs| + |K||(y, u)|)_i` — the
    /// quantity that bottoms out at a small multiple of machine epsilon
    /// once refinement can make no further progress. Pinned entries are
    /// excluded.
    fn residual(&mut self, slq: &StructuredLq, y: &Vector, u: &Vector) -> f64 {
        let w = self.w;
        // resid ← H_A y + G_Bᵀ u, corr ← |H_A||y| + |G_B|ᵀ|u|.
        for batch in &mut self.batches {
            Self::gather(&self.blocks, w, batch, y);
            batch
                .chol
                .matvec_abs_into(&batch.x, &mut batch.hx, &mut batch.abs);
            Self::scatter(&self.blocks, w, batch, &batch.hx, &mut self.resid);
            Self::scatter(&self.blocks, w, batch, &batch.abs, &mut self.corr);
        }
        let mut omega = 0.0f64;
        let mut track = |r: f64, scale: f64| {
            if r != 0.0 {
                omega = omega.max(if scale > 0.0 {
                    r.abs() / scale
                } else {
                    f64::INFINITY
                });
            }
        };
        // Capacity rows: G_B y − D u, and their transposed contribution.
        for (jb, cr) in slq.group_b.iter().enumerate() {
            for i in 0..w {
                let j = jb * w + i;
                let mut acc = 0.0;
                let mut abs = 0.0;
                for &(e, c) in &cr.entries {
                    let g = c * y[e * w + i];
                    acc += g;
                    abs += g.abs();
                    let gu = c * u[j];
                    self.resid[e * w + i] += gu;
                    self.corr[e * w + i] += gu.abs();
                }
                let du = self.dcap[j] * u[j];
                let r = self.rhs_u[j] - (acc - du);
                self.resid_u[j] = r;
                track(r, self.rhs_u[j].abs() + abs + du.abs());
            }
        }
        for i in 0..self.resid.len() {
            if slq.pinned[i] {
                self.resid[i] = 0.0;
                continue;
            }
            let r = self.rhs[i] - self.resid[i];
            self.resid[i] = r;
            track(r, self.rhs[i].abs() + self.corr[i]);
        }
        omega
    }

    /// [`SchurKkt::solve_in_place`] followed by iterative refinement
    /// against the exact augmented system until the componentwise backward
    /// error reaches round-off or stops shrinking. Returns the refinement
    /// passes taken.
    fn solve_refined(&mut self, slq: &StructuredLq, y: &mut Vector, u: &mut Vector) -> usize {
        self.rhs.copy_from(y);
        self.rhs_u.copy_from(u);
        self.solve_in_place(slq, y, u);
        let mut norm = self.residual(slq, y, u);
        let mut passes = 0;
        while norm > ROUND_OFF && passes < MAX_REFINEMENT_PASSES {
            passes += 1;
            let mut dy = std::mem::take(&mut self.resid);
            let mut du = std::mem::take(&mut self.resid_u);
            self.solve_in_place(slq, &mut dy, &mut du);
            let mut y_try = std::mem::take(&mut self.y_try);
            let mut u_try = std::mem::take(&mut self.u_try);
            y_try.copy_from(y);
            y_try.axpy(1.0, &dy);
            u_try.copy_from(u);
            u_try.axpy(1.0, &du);
            self.resid = dy;
            self.resid_u = du;
            let next = self.residual(slq, &y_try, &u_try);
            let improved = next < norm;
            if improved {
                std::mem::swap(y, &mut y_try);
                std::mem::swap(u, &mut u_try);
                norm = next;
            }
            self.y_try = y_try;
            self.u_try = u_try;
            if !improved {
                break;
            }
        }
        passes
    }
}

/// Solves a [`StructuredLq`] with the structure-exploiting interior-point
/// method; cold start.
///
/// # Errors
///
/// * [`SolverError::InvalidProblem`] for invalid settings.
/// * [`SolverError::Infeasible`] when the exit classifier certifies primal
///   infeasibility (a constraint row stayed violated while its
///   multipliers diverged).
/// * [`SolverError::MaxIterations`] when tolerances are not met within the
///   iteration budget on an apparently feasible problem.
/// * [`SolverError::NumericalFailure`] when factorization or the iterates
///   break down.
pub fn solve_structured(
    slq: &StructuredLq,
    settings: &IpmSettings,
) -> Result<LqSolution, SolverError> {
    solve_structured_warm(slq, settings, None)
}

/// [`solve_structured`] with a primal warm-start guess for the input
/// sequence (`W` vectors of the arc dimension) — typically the previous
/// period's solution shifted by one stage. The guess only seeds the primal
/// trajectory (slacks and duals are re-centred), so a poor guess degrades
/// gracefully to roughly cold-start behaviour.
///
/// # Errors
///
/// As [`solve_structured`], plus [`SolverError::InvalidProblem`] for a
/// wrong-shaped or non-finite guess.
pub fn solve_structured_warm(
    slq: &StructuredLq,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
) -> Result<LqSolution, SolverError> {
    solve_structured_inner(slq, None, settings, warm_us, &Recorder::disabled()).map(|(sol, _)| sol)
}

/// [`solve_structured_warm`] with metrics emitted to `telemetry`.
///
/// Per attempt it increments `solver.lq.solves` (plus
/// `solver.lq.warm_starts` when a guess is supplied) and one
/// `solver.lq.status.*` tally, and observes `solver.lq.iterations`,
/// `solver.lq.solve_seconds` and — on success — the final
/// `solver.lq.kkt_residual`. Per iteration it counts
/// `solver.lq.schur_factor` (one per successful factorization) and times
/// `solver.lq.schur_factor_seconds` / `solver.lq.schur_solve_seconds`;
/// each Newton solve observes `solver.lq.refinement_passes`; the first
/// factorization observes `solver.lq.schur_block_size`,
/// `solver.lq.schur_dense_dim` and `solver.lq.schur_fill`. A disabled
/// recorder makes this identical to [`solve_structured_warm`]; see
/// `docs/OBSERVABILITY.md` for the metric catalogue.
///
/// # Errors
///
/// As [`solve_structured_warm`].
pub fn solve_structured_warm_traced(
    slq: &StructuredLq,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<LqSolution, SolverError> {
    trace_lq_solve(telemetry, warm_us.is_some(), || {
        solve_structured_inner(slq, None, settings, warm_us, telemetry).map(|(sol, _)| sol)
    })
}

/// Solves the always-feasible relaxation of `slq`: the leading
/// `spec.penalties.len()` rows of every constrained slot `1..=W` gain a
/// slack `σ ≥ 0`, `(Cx)_i − σ_i ≤ d_i`, priced `ρ_i σ_i + ε σ_i²` — the
/// same problem the dense relaxation oracle in `dspp-oracle` builds, with
/// slot 0 left strict. Input box rows stay hard.
///
/// The returned solution is in the strict problem's shapes, its objective
/// excludes the slack penalty, and `slacks[k]` holds slot `k`'s slack
/// values (clamped at zero; `slacks[0]` is empty). Metrics as
/// [`solve_structured_warm_traced`].
///
/// # Errors
///
/// As [`solve_structured_warm`], plus [`SolverError::InvalidProblem`] for
/// a degenerate spec (no soft rows, more soft rows than a slot has,
/// non-positive or non-finite penalties).
pub fn solve_structured_relaxed_traced(
    slq: &StructuredLq,
    spec: &SoftSpec,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<RelaxedSolution, SolverError> {
    let soft_rows = spec.penalties.len();
    if soft_rows == 0 || soft_rows > slq.m_rows {
        return Err(SolverError::InvalidProblem(format!(
            "relaxation: {soft_rows} soft rows requested of {} per slot",
            slq.m_rows
        )));
    }
    if !spec.penalties.is_finite() || spec.penalties.iter().any(|p| *p <= 0.0) {
        return Err(SolverError::InvalidProblem(
            "relaxation: slack penalties must be positive and finite".into(),
        ));
    }
    if !spec.quadratic.is_finite() || spec.quadratic <= 0.0 {
        return Err(SolverError::InvalidProblem(
            "relaxation: quadratic slack penalty must be positive".into(),
        ));
    }
    let mut slacks = Vec::new();
    let solution = trace_lq_solve(telemetry, warm_us.is_some(), || {
        let (sol, sl) = solve_structured_inner(slq, Some(spec), settings, warm_us, telemetry)?;
        slacks = sl;
        Ok(sol)
    })?;
    Ok(RelaxedSolution { solution, slacks })
}

/// Metrics wrapper around one structured solve: counts the solve (and
/// warm start), times it, and tallies the outcome status under
/// `solver.lq.*`.
fn trace_lq_solve(
    telemetry: &Recorder,
    warm: bool,
    solve: impl FnOnce() -> Result<LqSolution, SolverError>,
) -> Result<LqSolution, SolverError> {
    if !telemetry.is_enabled() {
        return solve();
    }
    telemetry.incr("solver.lq.solves", 1);
    if warm {
        telemetry.incr("solver.lq.warm_starts", 1);
    }
    let t0 = Instant::now();
    let result = solve();
    telemetry.observe_duration("solver.lq.solve_seconds", t0.elapsed());
    match &result {
        Ok(sol) => {
            let status = match sol.status {
                SolveStatus::Optimal => "solver.lq.status.optimal",
                SolveStatus::AlmostOptimal => "solver.lq.status.almost_optimal",
            };
            telemetry.incr(status, 1);
            telemetry.observe("solver.lq.iterations", sol.iterations as f64);
        }
        Err(err) => {
            let status = match err {
                SolverError::MaxIterations { .. } => "solver.lq.status.max_iterations",
                SolverError::NumericalFailure(_) => "solver.lq.status.numerical_failure",
                SolverError::Infeasible { .. } => {
                    // Headline series (docs/OBSERVABILITY.md, "Feasibility
                    // and recovery"): certified-infeasible solves.
                    telemetry.incr("solver.infeasible", 1);
                    "solver.lq.status.infeasible"
                }
                _ => "solver.lq.status.invalid_problem",
            };
            telemetry.incr(status, 1);
        }
    }
    result
}

/// Farkas-style exit classification for the divergence, step-collapse,
/// and iteration-exhaustion exits.
///
/// `best_violation` is the least-violated iterate's worst row
/// `(slot, row, violation, relative violation)`: if even that iterate left
/// a row violated beyond the loose feasibility tolerance *relative to the
/// row's own right-hand side*, no iterate ever approached the constraint
/// set. (Row-relative scaling matters: a single huge entry elsewhere —
/// e.g. a 1e9 "uncapacitated" sentinel — must not drown out a genuinely
/// violated demand row.) Combined with `diverged` — the step length
/// collapsed, iterates blew up to non-finite values, or the inequality
/// multipliers exceeded `1e6` — this is the practical Farkas certificate:
/// normalizing the huge multipliers makes the cost gradient in the
/// stationarity residual negligible, so they approximately satisfy
/// `Cᵀy ⊥ dynamics, y ≥ 0` while pricing the violated row reported in the
/// error.
fn classify_infeasibility(
    best_violation: (usize, usize, f64, f64),
    settings: &IpmSettings,
    diverged: bool,
) -> Option<SolverError> {
    let loose = 1e4;
    let (period, constraint, shortfall, relative) = best_violation;
    if !diverged || !relative.is_finite() || relative <= loose * settings.tol_feasibility {
        return None;
    }
    Some(SolverError::Infeasible {
        period,
        constraint,
        shortfall,
    })
}

/// Largest `α ≤ 1` keeping every `v + α·dv` non-negative.
fn max_step_multi(vs: &[Vector], dvs: &[Vector]) -> f64 {
    let mut alpha: f64 = 1.0;
    for (v, dv) in vs.iter().zip(dvs) {
        for i in 0..v.len() {
            if dv[i] < 0.0 {
                alpha = alpha.min(-v[i] / dv[i]);
            }
        }
    }
    alpha
}

/// Where each kind of inequality row sits in a slot's row vector: the
/// model rows (slots `1..=W`), then the box rows on the slot's own input
/// `u_k` (slots `0..W`), then the recovery slacks' non-negativity rows.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    w: usize,
    m: usize,
    soft: usize,
    bounded: bool,
}

impl Layout {
    fn model(&self, k: usize) -> usize {
        if k >= 1 {
            self.m
        } else {
            0
        }
    }

    fn boxes(&self, k: usize) -> usize {
        if self.bounded && k < self.w {
            2 * self.n
        } else {
            0
        }
    }

    fn softs(&self, k: usize) -> usize {
        if k >= 1 {
            self.soft
        } else {
            0
        }
    }

    fn soft_off(&self, k: usize) -> usize {
        self.model(k) + self.boxes(k)
    }

    fn rows(&self, k: usize) -> usize {
        self.soft_off(k) + self.softs(k)
    }
}

/// The problem as the iteration sees it: the compact rows plus the box
/// bound, the relaxation and the rows pins make vacuous, flattened into
/// one inequality vector per slot.
struct Rows<'a> {
    slq: &'a StructuredLq,
    lay: Layout,
    u_max: f64,
    penalties: Option<&'a Vector>,
    /// `2ε`, the slack Hessian.
    eps2: f64,
    /// Right-hand side per slot.
    d: Vec<Vector>,
    /// Per slot: whether each row takes part in the iteration.
    active: Vec<Vec<bool>>,
}

impl<'a> Rows<'a> {
    fn new(slq: &'a StructuredLq, soft: Option<&'a SoftSpec>) -> Self {
        let lay = Layout {
            n: slq.n,
            w: slq.w,
            m: slq.m_rows,
            soft: soft.map_or(0, |s| s.penalties.len()),
            bounded: slq.u_max.is_some(),
        };
        let u_max = slq.u_max.unwrap_or(0.0);
        let d = (0..=lay.w)
            .map(|k| {
                let mut d = Vector::zeros(lay.rows(k));
                if k >= 1 {
                    for (di, &v) in d.iter_mut().zip(slq.ds[k - 1].iter()) {
                        *di = v;
                    }
                }
                let off = lay.model(k);
                for i in 0..lay.boxes(k) {
                    d[off + i] = u_max;
                }
                d
            })
            .collect();
        let active = (0..=lay.w)
            .map(|k| {
                let mut a = vec![true; lay.rows(k)];
                if k >= 1 {
                    let vacuous = &slq.vacuous[k - 1];
                    for i in 0..lay.m {
                        a[i] = !vacuous[i];
                    }
                    let off = lay.soft_off(k);
                    for j in 0..lay.soft {
                        a[off + j] = !vacuous[j];
                    }
                }
                a
            })
            .collect();
        Rows {
            slq,
            lay,
            u_max,
            penalties: soft.map(|s| &s.penalties),
            eps2: soft.map_or(0.0, |s| 2.0 * s.quadratic),
            d,
            active,
        }
    }

    fn active_count(&self) -> usize {
        self.active
            .iter()
            .map(|a| a.iter().filter(|&&on| on).count())
            .sum()
    }

    /// Left-hand side of every row of slot `k`, written into `out`.
    fn lhs_into(&self, k: usize, x: &Vector, u: Option<&Vector>, sig: &Vector, out: &mut Vector) {
        let lay = &self.lay;
        if k >= 1 {
            self.slq.row_lhs_into(x, out);
            for j in 0..lay.soft {
                out[j] -= sig[j];
            }
        }
        if let Some(u) = u.filter(|_| lay.boxes(k) > 0) {
            let off = lay.model(k);
            for e in 0..lay.n {
                out[off + e] = u[e];
                out[off + lay.n + e] = -u[e];
            }
        }
        let off = lay.soft_off(k);
        for j in 0..lay.softs(k) {
            out[off + j] = -sig[j];
        }
    }

    /// Pinned rollout `x_{k+1} = x_k + u_k`: a pinned arc's input is
    /// rewritten to land exactly on zero.
    fn rollout(&self, x0: &Vector, us: &mut [Vector]) -> Vec<Vector> {
        let (n, w) = (self.lay.n, self.lay.w);
        let mut xs = Vec::with_capacity(w + 1);
        xs.push(x0.clone());
        for k in 0..w {
            let mut x = xs[k].clone();
            for e in 0..n {
                if self.slq.pinned[e * w + k] {
                    us[k][e] = -xs[k][e];
                    x[e] = 0.0;
                } else {
                    x[e] += us[k][e];
                }
            }
            xs.push(x);
        }
        xs
    }

    /// Objective including the slack penalty (the relaxed problem's own
    /// objective, which the stopping tests measure against).
    fn objective(&self, xs: &[Vector], us: &[Vector], sig: &[Vector]) -> f64 {
        let mut j = self.slq.objective(xs, us);
        if let Some(rho) = self.penalties {
            for s in sig.iter().skip(1) {
                for (i, &v) in s.iter().enumerate() {
                    j += 0.5 * self.eps2 * v * v + rho[i] * v;
                }
            }
        }
        j
    }

    /// Stopping-test scale: the dense path's, which for the relaxation
    /// includes the slack penalties (they are its input costs).
    fn scale(&self) -> f64 {
        let rho = self.penalties.map_or(0.0, Vector::norm_inf);
        self.slq.scale().max(rho).max(self.u_max)
    }
}

/// Primal–dual iterate: states, inputs, slacks of the relaxation, costates
/// and the per-slot inequality slack/dual pairs.
struct Iterate {
    xs: Vec<Vector>,
    us: Vec<Vector>,
    sig: Vec<Vector>,
    lams: Vec<Vector>,
    ss: Vec<Vector>,
    zs: Vec<Vector>,
}

impl Iterate {
    fn zeros(lay: &Layout) -> Self {
        let (n, w) = (lay.n, lay.w);
        Iterate {
            xs: vec![Vector::zeros(n); w + 1],
            us: vec![Vector::zeros(n); w],
            sig: (0..=w).map(|k| Vector::zeros(lay.softs(k))).collect(),
            lams: vec![Vector::zeros(n); w],
            ss: (0..=w).map(|k| Vector::zeros(lay.rows(k))).collect(),
            zs: (0..=w).map(|k| Vector::zeros(lay.rows(k))).collect(),
        }
    }

    fn is_finite(&self) -> bool {
        [
            &self.xs, &self.us, &self.sig, &self.lams, &self.ss, &self.zs,
        ]
        .iter()
        .all(|vs| vs.iter().all(Vector::is_finite))
    }
}

/// Residuals of the KKT conditions at the current iterate.
struct Residuals {
    /// Primal inequality residual `lhs + s − d` per slot.
    ineq: Vec<Vector>,
    /// State stationarity per slot (pinned entries zero).
    x: Vec<Vector>,
    /// Input stationarity per stage.
    u: Vec<Vector>,
    /// Slack stationarity per slot.
    sig: Vec<Vector>,
}

/// Per-iteration Newton data: barrier weights, chain weights, and the
/// eliminated slack coefficients.
struct Newton {
    /// Barrier weight `z/s` per slot row (zero for inactive rows).
    ws: Vec<Vector>,
    /// Effective weight of each model row after slack elimination.
    wm: Vec<Vector>,
    /// Chain weight `R_k + reg + box weights` per stage.
    rt: Vec<Vector>,
    /// `t = (z·r_ineq − r_c)/s` per slot row.
    ts: Vec<Vector>,
    /// Complementarity target per slot row.
    r_cs: Vec<Vector>,
    /// Slack step `Δσ = sig_c + sig_g·(CΔx)` per soft row.
    sig_c: Vec<Vector>,
    sig_g: Vec<Vector>,
    q_hats: Vec<Vector>,
    r_hats: Vec<Vector>,
    /// Condensed state step (arc-major) and capacity multiplier step.
    y: Vector,
    u: Vector,
    cons: Vector,
}

/// Loose-tolerance acceptance shared by the breakdown exits (failed
/// factorization, collapsed step), as on the dense path: the primal
/// iterate already meets the `1e4×`-loosened feasibility and gap tests and
/// only the multipliers, non-unique on a degenerate active set, kept
/// iterating.
fn loosely_converged(
    rows: &Rows<'_>,
    settings: &IpmSettings,
    scale: f64,
    it: &Iterate,
    m_total: usize,
    scratch: &mut Vector,
) -> bool {
    let objective = rows.objective(&it.xs, &it.us, &it.sig);
    let mut gap = 0.0;
    for (s, z) in it.ss.iter().zip(&it.zs) {
        gap += s.dot(z);
    }
    let mu = if m_total > 0 {
        gap / m_total as f64
    } else {
        0.0
    };
    let loose = 1e4;
    let violation = worst_violation(rows, it, scratch).1;
    // The gap test is relative to the problem's scale as well as the
    // objective: breakdowns near a tiny optimal value (a relaxation whose
    // slacks are almost free) would otherwise fail an objective-relative
    // test they pass by any absolute measure.
    violation <= loose * settings.tol_feasibility * scale
        && mu <= loose * settings.tol_gap * (1.0 + objective.abs()).max(scale)
}

/// Most-violated active row `(slot, row, violation, violation/(1+|d|))`,
/// mirroring the dense path's classifier input, plus the largest violation.
fn worst_violation(
    rows: &Rows<'_>,
    it: &Iterate,
    scratch: &mut Vector,
) -> ((usize, usize, f64, f64), f64) {
    let mut worst = (0usize, 0usize, 0.0f64, 0.0f64);
    let mut max_viol = 0.0f64;
    for k in 0..=rows.lay.w {
        let count = rows.lay.rows(k);
        if count == 0 {
            continue;
        }
        rows.lhs_into(k, &it.xs[k], it.us.get(k), &it.sig[k], scratch);
        let d = &rows.d[k];
        for i in 0..count {
            if !rows.active[k][i] {
                continue;
            }
            let viol = scratch[i] - d[i];
            max_viol = max_viol.max(viol);
            let rel = viol / (1.0 + d[i].abs());
            if rel > worst.3 {
                worst = (k, i, viol, rel);
            }
        }
    }
    (worst, max_viol)
}

fn finish(
    rows: &Rows<'_>,
    it: Iterate,
    iterations: usize,
    status: SolveStatus,
) -> (LqSolution, Vec<Vector>) {
    let lay = rows.lay;
    let objective = rows.slq.objective(&it.xs, &it.us);
    let stage_duals = it
        .zs
        .into_iter()
        .enumerate()
        .map(|(k, z)| {
            let keep = lay.model(k) + lay.boxes(k);
            z.iter().take(keep).copied().collect()
        })
        .collect();
    let slacks = it.sig.iter().map(|s| s.map(|v| v.max(0.0))).collect();
    (
        LqSolution {
            xs: it.xs,
            us: it.us,
            stage_duals,
            objective,
            iterations,
            status,
        },
        slacks,
    )
}

/// Builds the Newton right-hand side from the residuals and the
/// complementarity target in `nt.r_cs`, solves the condensed system, and
/// recovers the full step into `step`.
fn newton_step(
    rows: &Rows<'_>,
    kkt: &mut SchurKkt,
    it: &Iterate,
    res: &Residuals,
    nt: &mut Newton,
    step: &mut Iterate,
    telemetry: &Recorder,
) {
    let lay = rows.lay;
    let slq = rows.slq;
    let (n, w) = (lay.n, lay.w);
    // t = S⁻¹(Z r_ineq − r_c) per active row.
    for k in 0..=w {
        for i in 0..lay.rows(k) {
            nt.ts[k][i] = if rows.active[k][i] {
                (it.zs[k][i] * res.ineq[k][i] - nt.r_cs[k][i]) / it.ss[k][i]
            } else {
                0.0
            };
        }
    }
    // Eliminate each slack: Δσ = c + g·(CΔx)_i, and the soft row's t
    // becomes t − w·c, evaluated as [t(2ε + w′) − w(t′ − r_σ)]/D so a
    // binding row's huge t and w never cancel against each other.
    for k in 1..=w {
        let off = lay.soft_off(k);
        for j in 0..lay.soft {
            if !rows.active[k][j] {
                nt.sig_c[k][j] = 0.0;
                nt.sig_g[k][j] = 0.0;
                continue;
            }
            let (wj, wp) = (nt.ws[k][j], nt.ws[k][off + j]);
            let (tj, tp) = (nt.ts[k][j], nt.ts[k][off + j]);
            let den = rows.eps2 + wj + wp;
            nt.sig_c[k][j] = (tj + tp - res.sig[k][j]) / den;
            nt.sig_g[k][j] = wj / den;
            nt.ts[k][j] = (tj * (rows.eps2 + wp) - wj * (tp - res.sig[k][j])) / den;
        }
    }
    // Capacity rows stay in augmented form: their right-hand side is
    // −W⁻¹t = −(r_ineq − r_c/z) (a softened row subtracts its eliminated
    // slack's share, (t′ − r_σ)/(2ε + w′)), and they leave q̂.
    for (jb, cr) in slq.group_b.iter().enumerate() {
        for k in 1..=w {
            let i = cr.row;
            let mut f = 0.0;
            if rows.active[k][i] {
                f = nt.r_cs[k][i] / it.zs[k][i] - res.ineq[k][i];
                if i < lay.soft {
                    let p = lay.soft_off(k) + i;
                    f += (nt.ts[k][p] - res.sig[k][i]) / (rows.eps2 + nt.ws[k][p]);
                }
            }
            nt.u[jb * w + k - 1] = f;
            nt.ts[k][i] = 0.0;
        }
    }
    // q̂_k = r_x,k + Cᵀ t_k and r̂_k = r_u,k + t⁺ − t⁻ (box rows).
    for k in 1..=w {
        let qh = &mut nt.q_hats[k];
        qh.copy_from(&res.x[k]);
        slq.row_t_acc(&nt.ts[k], qh);
    }
    for k in 0..w {
        let rh = &mut nt.r_hats[k];
        rh.copy_from(&res.u[k]);
        if lay.boxes(k) > 0 {
            let off = lay.model(k);
            for e in 0..n {
                rh[e] += nt.ts[k][off + e] - nt.ts[k][off + n + e];
            }
        }
    }
    // Condensed RHS, arc-major: b_k = −q̂_k + r̂_k − r̂_{k−1} (r̂_W ≡ 0).
    for e in 0..n {
        for k in 1..=w {
            let mut b = -nt.q_hats[k][e] - nt.r_hats[k - 1][e];
            if k < w {
                b += nt.r_hats[k][e];
            }
            nt.y[e * w + k - 1] = b;
        }
    }
    let t0 = telemetry.is_enabled().then(Instant::now);
    let passes = kkt.solve_refined(slq, &mut nt.y, &mut nt.u);
    if let Some(t) = t0 {
        telemetry.observe_duration("solver.lq.schur_solve_seconds", t.elapsed());
        telemetry.observe("solver.lq.refinement_passes", passes as f64);
    }
    // Trajectory step: Δx_0 = 0, Δu_k = Δx_{k+1} − Δx_k,
    // Δλ_k = −r̂_k − R̃_k Δu_k.
    step.xs[0].fill(0.0);
    for k in 1..=w {
        for e in 0..n {
            step.xs[k][e] = nt.y[e * w + k - 1];
        }
    }
    for k in 0..w {
        for e in 0..n {
            let du = step.xs[k + 1][e] - step.xs[k][e];
            step.us[k][e] = du;
            step.lams[k][e] = -nt.r_hats[k][e] - nt.rt[k][e] * du;
        }
    }
    // Δσ, then Δs = −r_ineq − Δ(lhs) and Δz = (−r_c − ZΔs)/S per row.
    for k in 0..=w {
        if k >= 1 {
            slq.row_lhs_into(&step.xs[k], &mut nt.cons);
            for j in 0..lay.soft {
                step.sig[k][j] = nt.sig_c[k][j] + nt.sig_g[k][j] * nt.cons[j];
                nt.cons[j] -= step.sig[k][j];
            }
        }
        if lay.boxes(k) > 0 {
            let off = lay.model(k);
            for e in 0..n {
                nt.cons[off + e] = step.us[k][e];
                nt.cons[off + n + e] = -step.us[k][e];
            }
        }
        let off = lay.soft_off(k);
        for j in 0..lay.softs(k) {
            nt.cons[off + j] = -step.sig[k][j];
        }
        for i in 0..lay.rows(k) {
            if rows.active[k][i] {
                let ds = -res.ineq[k][i] - nt.cons[i];
                step.ss[k][i] = ds;
                step.zs[k][i] = (-nt.r_cs[k][i] - it.zs[k][i] * ds) / it.ss[k][i];
            } else {
                step.ss[k][i] = 0.0;
                step.zs[k][i] = 0.0;
            }
        }
        if k >= 1 {
            // The capacity multipliers come straight out of the solve.
            for (jb, cr) in slq.group_b.iter().enumerate() {
                if rows.active[k][cr.row] {
                    step.zs[k][cr.row] = nt.u[jb * w + k - 1];
                }
            }
        }
    }
}

pub(crate) fn solve_structured_inner(
    slq: &StructuredLq,
    soft: Option<&SoftSpec>,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<(LqSolution, Vec<Vector>), SolverError> {
    settings.validate().map_err(SolverError::InvalidProblem)?;
    let rows = Rows::new(slq, soft);
    let lay = rows.lay;
    let (n, w) = (lay.n, lay.w);
    let m_total = rows.active_count();

    let mut span = telemetry.tracer().span("solver.lq.solve");
    span.attr("horizon", w);
    span.attr("state_dim", n);
    span.attr("warm_start", warm_us.is_some());

    let mut it = Iterate::zeros(&lay);
    if let Some(guess) = warm_us {
        if guess.len() != w || guess.iter().any(|g| g.len() != n) {
            return Err(SolverError::InvalidProblem(
                "warm-start guess does not match the problem's input dimensions".into(),
            ));
        }
        if guess.iter().any(|g| !g.is_finite()) {
            return Err(SolverError::InvalidProblem(
                "warm-start guess contains non-finite values".into(),
            ));
        }
        it.us = guess.to_vec();
    }
    it.xs = rows.rollout(&slq.x0, &mut it.us);

    // Slacks start at max(d − lhs, margin), duals at the margin; inactive
    // rows sit at s = 1, z = 0 and never move.
    let margin = settings.init_margin;
    let mut cons = Vector::zeros((0..=w).map(|k| lay.rows(k)).max().unwrap_or(0));
    for k in 0..=w {
        rows.lhs_into(k, &it.xs[k], it.us.get(k), &it.sig[k], &mut cons);
        for i in 0..lay.rows(k) {
            if rows.active[k][i] {
                it.ss[k][i] = (rows.d[k][i] - cons[i]).max(margin);
                it.zs[k][i] = margin;
            } else {
                it.ss[k][i] = 1.0;
            }
        }
    }

    let scale = rows.scale();
    let mut best_gap = f64::INFINITY;
    let mut best_violation = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
    let mut z_max = 0.0f64;
    // Adaptive regularization, as on the dense path: a failed
    // factorization boosts it for the rest of the solve.
    let mut reg = settings.regularization;
    let max_reg = settings.regularization.max(1e-12) * 1e20;

    // ------- preallocated workspace, reused every iteration -------
    let slot_vecs = || -> Vec<Vector> { (0..=w).map(|k| Vector::zeros(lay.rows(k))).collect() };
    let soft_vecs = || -> Vec<Vector> { (0..=w).map(|k| Vector::zeros(lay.softs(k))).collect() };
    let mut res = Residuals {
        ineq: slot_vecs(),
        x: vec![Vector::zeros(n); w + 1],
        u: vec![Vector::zeros(n); w],
        sig: soft_vecs(),
    };
    let mut nt = Newton {
        ws: slot_vecs(),
        wm: (0..=w)
            .map(|k| Vector::zeros(if k == 0 { 0 } else { lay.m }))
            .collect(),
        rt: vec![Vector::zeros(n); w],
        ts: slot_vecs(),
        r_cs: slot_vecs(),
        sig_c: soft_vecs(),
        sig_g: soft_vecs(),
        q_hats: vec![Vector::zeros(n); w + 1],
        r_hats: vec![Vector::zeros(n); w],
        y: Vector::zeros(n * w),
        u: Vector::zeros(slq.group_b.len() * w),
        cons: cons.clone(),
    };
    let mut aff = Iterate::zeros(&lay);
    let mut step = Iterate::zeros(&lay);
    let mut kkt = SchurKkt::new(slq);
    let mut sizes_reported = false;

    for iter in 0..settings.max_iterations {
        // ------- residuals -------
        for k in 0..=w {
            rows.lhs_into(k, &it.xs[k], it.us.get(k), &it.sig[k], &mut cons);
            for i in 0..lay.rows(k) {
                res.ineq[k][i] = if rows.active[k][i] {
                    cons[i] + it.ss[k][i] - rows.d[k][i]
                } else {
                    0.0
                };
            }
        }
        // Stationarity in x: q_k + Cᵀz_k + λ_k − λ_{k−1} (A = I, Q = 0);
        // the terminal drops λ_k, pinned entries carry a free multiplier.
        for k in 1..=w {
            let r = &mut res.x[k];
            r.copy_from(&slq.qs[k - 1]);
            slq.row_t_acc(&it.zs[k], r);
            if k < w {
                r.axpy(1.0, &it.lams[k]);
            }
            r.axpy(-1.0, &it.lams[k - 1]);
            for e in 0..n {
                if slq.pinned[e * w + k - 1] {
                    r[e] = 0.0;
                }
            }
        }
        // Stationarity in u: R_k u_k + r_k + λ_k + z⁺ − z⁻ (B = I).
        for k in 0..w {
            let r = &mut res.u[k];
            for e in 0..n {
                r[e] = slq.r_diags[k][e] * it.us[k][e] + slq.r_vecs[k][e] + it.lams[k][e];
            }
            if lay.boxes(k) > 0 {
                let off = lay.model(k);
                for e in 0..n {
                    r[e] += it.zs[k][off + e] - it.zs[k][off + n + e];
                }
            }
        }
        // Stationarity in σ: 2εσ + ρ − z_row − z_nonneg.
        if let Some(rho) = rows.penalties {
            for k in 1..=w {
                let off = lay.soft_off(k);
                for j in 0..lay.soft {
                    res.sig[k][j] = if rows.active[k][j] {
                        rows.eps2 * it.sig[k][j] + rho[j] - it.zs[k][j] - it.zs[k][off + j]
                    } else {
                        0.0
                    };
                }
            }
        }

        let mut gap = 0.0;
        for k in 0..=w {
            gap += it.ss[k].dot(&it.zs[k]);
        }
        let mu = if m_total > 0 {
            gap / m_total as f64
        } else {
            0.0
        };
        best_gap = best_gap.min(mu);

        let mut stat_norm: f64 = 0.0;
        for r in res.x.iter().skip(1).chain(&res.u).chain(&res.sig) {
            stat_norm = stat_norm.max(r.norm_inf());
        }
        let mut ineq_norm: f64 = 0.0;
        for r in &res.ineq {
            ineq_norm = ineq_norm.max(r.norm_inf());
        }
        let (wr, _) = worst_violation(&rows, &it, &mut cons);
        if wr.3 < best_violation.3 {
            best_violation = wr;
        }
        z_max = z_max.max(it.zs.iter().map(Vector::norm_inf).fold(0.0f64, f64::max));
        let objective = rows.objective(&it.xs, &it.us, &it.sig);
        if span.is_enabled() {
            span.event_with(
                "solver.lq.iteration",
                [
                    ("iter", AttrValue::UInt(iter as u64)),
                    ("kkt_stat_norm", AttrValue::Float(stat_norm)),
                    ("kkt_ineq_norm", AttrValue::Float(ineq_norm)),
                    ("mu", AttrValue::Float(mu)),
                    ("objective", AttrValue::Float(objective)),
                ],
            );
        }
        let feas_ok = stat_norm <= settings.tol_feasibility * scale
            && ineq_norm <= settings.tol_feasibility * scale;
        let gap_ok = mu <= settings.tol_gap * (1.0 + objective.abs());
        if feas_ok && gap_ok {
            telemetry.observe("solver.lq.kkt_residual", stat_norm.max(ineq_norm));
            span.attr("status", "optimal");
            span.attr("iterations", iter);
            span.attr("objective", objective);
            return Ok(finish(&rows, it, iter, SolveStatus::Optimal));
        }

        // ------- barrier weights and structured factorization -------
        for k in 0..=w {
            for i in 0..lay.rows(k) {
                nt.ws[k][i] = if rows.active[k][i] {
                    it.zs[k][i] / it.ss[k][i]
                } else {
                    0.0
                };
            }
        }
        for k in 1..=w {
            let off = lay.soft_off(k);
            for i in 0..lay.m {
                nt.wm[k][i] = nt.ws[k][i];
            }
            for j in 0..lay.soft {
                let (wj, wp) = (nt.ws[k][j], nt.ws[k][off + j]);
                nt.wm[k][j] = wj * (rows.eps2 + wp) / (rows.eps2 + wj + wp);
            }
        }
        let t_factor = telemetry.is_enabled().then(Instant::now);
        loop {
            for k in 0..w {
                for e in 0..n {
                    nt.rt[k][e] = slq.r_diags[k][e] + reg;
                }
                if lay.boxes(k) > 0 {
                    let off = lay.model(k);
                    for e in 0..n {
                        nt.rt[k][e] += nt.ws[k][off + e] + nt.ws[k][off + n + e];
                    }
                }
            }
            match kkt.refactor(slq, &nt.wm, &nt.rt, reg) {
                Ok(()) => {
                    telemetry.incr("solver.lq.schur_factor", 1);
                    if !sizes_reported && telemetry.is_enabled() {
                        sizes_reported = true;
                        telemetry.observe("solver.lq.schur_block_size", kkt.block_dim() as f64);
                        telemetry.observe("solver.lq.schur_dense_dim", kkt.dense_dim() as f64);
                        telemetry.observe("solver.lq.schur_fill", kkt.s_cap.fill_ratio());
                    }
                    break;
                }
                Err(e) if reg < max_reg => {
                    reg = (reg * 100.0).max(1e-12);
                    telemetry.incr("solver.lq.reg_boosts", 1);
                    if span.is_enabled() {
                        span.event_with(
                            "solver.lq.reg_boost",
                            [
                                ("iter", AttrValue::UInt(iter as u64)),
                                ("regularization", AttrValue::Float(reg)),
                                ("cause", AttrValue::from(e.to_string())),
                            ],
                        );
                    }
                }
                Err(e) => {
                    // Even the fully boosted regularization cannot factor
                    // the barrier Hessian: accept a converged primal,
                    // certify infeasibility, or report the failure.
                    if loosely_converged(&rows, settings, scale, &it, m_total, &mut cons) {
                        telemetry.observe(
                            "solver.lq.kkt_residual",
                            worst_violation(&rows, &it, &mut cons).1,
                        );
                        span.attr("status", "almost_optimal");
                        span.attr("iterations", iter);
                        return Ok(finish(&rows, it, iter, SolveStatus::AlmostOptimal));
                    }
                    if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                        span.attr("status", "infeasible");
                        return Err(err);
                    }
                    span.attr("status", "numerical_failure");
                    return Err(SolverError::NumericalFailure(format!(
                        "structured KKT factorization failed: {e}"
                    )));
                }
            }
        }
        if let Some(t) = t_factor {
            telemetry.observe_duration("solver.lq.schur_factor_seconds", t.elapsed());
        }

        // ------- predictor -------
        for k in 0..=w {
            it.ss[k].hadamard_into(&it.zs[k], &mut nt.r_cs[k]);
        }
        newton_step(&rows, &mut kkt, &it, &res, &mut nt, &mut aff, telemetry);
        let alpha_p_aff = max_step_multi(&it.ss, &aff.ss);
        let alpha_d_aff = max_step_multi(&it.zs, &aff.zs);
        let sigma = if m_total > 0 && mu > 0.0 {
            let mut mu_aff = 0.0;
            for k in 0..=w {
                for i in 0..lay.rows(k) {
                    mu_aff += (it.ss[k][i] + alpha_p_aff * aff.ss[k][i])
                        * (it.zs[k][i] + alpha_d_aff * aff.zs[k][i]);
                }
            }
            mu_aff /= m_total as f64;
            ((mu_aff / mu).max(0.0)).powi(3).min(1.0)
        } else {
            0.0
        };

        // ------- corrector -------
        let use_corrector = m_total > 0;
        if use_corrector {
            for k in 0..=w {
                for i in 0..lay.rows(k) {
                    nt.r_cs[k][i] =
                        it.ss[k][i] * it.zs[k][i] + aff.ss[k][i] * aff.zs[k][i] - sigma * mu;
                }
            }
            newton_step(&rows, &mut kkt, &it, &res, &mut nt, &mut step, telemetry);
        }
        let fin = if use_corrector { &step } else { &aff };

        let tau = settings.step_fraction;
        let alpha_p = (tau * max_step_multi(&it.ss, &fin.ss)).min(1.0);
        let alpha_d = (tau * max_step_multi(&it.zs, &fin.zs)).min(1.0);

        for k in 0..=w {
            it.xs[k].axpy(alpha_p, &fin.xs[k]);
            it.sig[k].axpy(alpha_p, &fin.sig[k]);
            it.ss[k].axpy(alpha_p, &fin.ss[k]);
            it.zs[k].axpy(alpha_d, &fin.zs[k]);
            if k < w {
                it.us[k].axpy(alpha_p, &fin.us[k]);
                it.lams[k].axpy(alpha_d, &fin.lams[k]);
            }
        }

        if !it.is_finite() {
            // Diverging to non-finite values while a constraint row was
            // never satisfiable is an infeasibility exit, not a numerical
            // accident; classify from the pre-divergence trackers.
            if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                span.attr("status", "infeasible");
                return Err(err);
            }
            span.attr("status", "numerical_failure");
            return Err(SolverError::NumericalFailure(
                "iterates became non-finite".into(),
            ));
        }
        if m_total > 0 && alpha_p < 1e-13 && alpha_d < 1e-13 {
            if loosely_converged(&rows, settings, scale, &it, m_total, &mut cons) {
                telemetry.observe(
                    "solver.lq.kkt_residual",
                    worst_violation(&rows, &it, &mut cons).1,
                );
                span.attr("status", "almost_optimal");
                span.attr("iterations", iter);
                return Ok(finish(&rows, it, iter, SolveStatus::AlmostOptimal));
            }
            if let Some(err) = classify_infeasibility(best_violation, settings, true) {
                span.attr("status", "infeasible");
                return Err(err);
            }
            span.attr("status", "numerical_failure");
            return Err(SolverError::NumericalFailure(format!(
                "step length collapsed at iteration {iter} (gap {mu:.3e}); problem is likely infeasible"
            )));
        }
    }

    // Degraded acceptance after iteration exhaustion, then the exit
    // classifier — both mirroring the dense path.
    let objective = rows.objective(&it.xs, &it.us, &it.sig);
    let mut gap = 0.0;
    for k in 0..=w {
        gap += it.ss[k].dot(&it.zs[k]);
    }
    let mu = if m_total > 0 {
        gap / m_total as f64
    } else {
        0.0
    };
    let loose = 1e4;
    let violation = worst_violation(&rows, &it, &mut cons).1;
    if violation <= loose * settings.tol_feasibility * scale
        && mu <= loose * settings.tol_gap * (1.0 + objective.abs())
    {
        telemetry.observe("solver.lq.kkt_residual", violation.max(mu));
        span.attr("status", "almost_optimal");
        span.attr("iterations", settings.max_iterations);
        span.attr("objective", objective);
        return Ok(finish(
            &rows,
            it,
            settings.max_iterations,
            SolveStatus::AlmostOptimal,
        ));
    }
    if let Some(err) = classify_infeasibility(best_violation, settings, z_max > 1e6) {
        span.attr("status", "infeasible");
        span.attr("dual_max", z_max);
        return Err(err);
    }
    span.attr("status", "max_iterations");
    span.attr("best_gap", best_gap);
    Err(SolverError::MaxIterations {
        limit: settings.max_iterations,
        gap: best_gap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::{CouplingRow, DiagRow};

    /// A small DSPP-shaped instance: `dcs × locs` grid with every arc
    /// usable, demand floors per location, capacity caps per DC,
    /// non-negativity per arc.
    fn instance(dcs: usize, locs: usize, w: usize, demand: f64, cap: f64) -> StructuredLq {
        let n = dcs * locs; // arc (l, v) at index l * locs + v
        let m_rows = locs + dcs + n;
        let diag_rows = (0..n)
            .map(|e| DiagRow {
                row: locs + dcs + e,
                arc: e,
                coeff: -1.0,
            })
            .collect();
        let group_a = (0..locs)
            .map(|v| CouplingRow {
                row: v,
                entries: (0..dcs)
                    .map(|l| (l * locs + v, -(1.0 + 0.1 * l as f64)))
                    .collect(),
            })
            .collect();
        let group_b = (0..dcs)
            .map(|l| CouplingRow {
                row: locs + l,
                entries: (0..locs).map(|v| (l * locs + v, 1.0)).collect(),
            })
            .collect();
        let mut d = Vector::zeros(m_rows);
        for v in 0..locs {
            d[v] = -demand;
        }
        for l in 0..dcs {
            d[locs + l] = cap;
        }
        let qs: Vec<Vector> = (0..w)
            .map(|k| (0..n).map(|e| 1.0 + 0.3 * ((e + k) % 5) as f64).collect())
            .collect();
        StructuredLq::new(
            Vector::zeros(n),
            Vector::zeros(n),
            qs,
            vec![Vector::filled(n, 0.2); w],
            vec![Vector::zeros(n); w],
            vec![d; w],
            diag_rows,
            group_a,
            group_b,
            m_rows,
        )
        .unwrap()
    }

    /// `instance` with data center `dead` at zero capacity in `slots`.
    fn with_outage(
        mut slq: StructuredLq,
        locs: usize,
        dead: usize,
        slots: &[usize],
    ) -> StructuredLq {
        for &k in slots {
            slq.ds[k - 1][locs + dead] = 0.0;
        }
        slq.detect_pins();
        slq
    }

    /// The factorization itself: solve `H y = b` for random barrier
    /// weights and verify `H y` reconstructs `b` through the explicit
    /// definition `H = T + CᵀWC` (chain part plus full barrier part).
    fn assert_condensed_solve(slq: &StructuredLq) {
        let (n, w, m) = (slq.n, slq.w, slq.m_rows);
        let reg = 1e-9;
        // Deterministic pseudo-random positive weights and rhs.
        let mut state = 42u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 + 0.01
        };
        let mut ws: Vec<Vector> = vec![Vector::zeros(0)];
        for _ in 1..=w {
            ws.push((0..m).map(|_| next() * 3.0).collect());
        }
        let rt: Vec<Vector> = (0..w).map(|k| slq.r_diags[k].map(|r| r + reg)).collect();
        let b: Vector = (0..n * w).map(|_| next() - 1.0).collect();
        let mut kkt = SchurKkt::new(slq);
        kkt.refactor(slq, &ws, &rt, reg).unwrap();
        let mut y = b.clone();
        let mut u = Vector::zeros(slq.group_b.len() * w);
        kkt.solve_in_place(slq, &mut y, &mut u);
        // Reconstruct H y slot by slot.
        let mut worst = 0.0f64;
        let mut scratch = Vector::zeros(m);
        let mut wk = Vector::zeros(m);
        for k in 1..=w {
            let yk: Vector = (0..n).map(|e| y[e * w + k - 1]).collect();
            // Chain part: R̃ terms only (diag-row barrier goes via CᵀWC).
            let mut hy = Vector::zeros(n);
            for e in 0..n {
                let r_prev = rt[k - 1][e];
                let mut v = r_prev * yk[e];
                if k > 1 {
                    v -= r_prev * y[e * w + k - 2];
                }
                if k < w {
                    let r_next = rt[k][e];
                    v += r_next * yk[e] - r_next * y[e * w + k];
                }
                hy[e] = v;
            }
            // Barrier part CᵀW(Cy) over every row of the slot.
            slq.row_lhs_into(&yk, &mut scratch);
            for i in 0..m {
                wk[i] = ws[k][i] * scratch[i];
            }
            slq.row_t_acc(&wk, &mut hy);
            for e in 0..n {
                worst = worst.max((hy[e] - b[e * w + k - 1]).abs());
            }
        }
        assert!(worst < 1e-8, "H y deviates from b by {worst:.3e}");
    }

    #[test]
    fn schur_solve_satisfies_the_condensed_system() {
        assert_condensed_solve(&instance(2, 3, 3, 4.0, 30.0));
    }

    /// `slq` with its demand rows replaced.
    fn with_group_a(slq: &StructuredLq, group_a: Vec<CouplingRow>) -> StructuredLq {
        StructuredLq::new(
            slq.x0.clone(),
            slq.q0.clone(),
            slq.qs.clone(),
            slq.r_diags.clone(),
            slq.r_vecs.clone(),
            slq.ds.clone(),
            slq.diag_rows.clone(),
            group_a,
            slq.group_b.clone(),
            slq.m_rows,
        )
        .unwrap()
    }

    /// Builders list a location's arcs in capacity-row order, one arc per
    /// data center. A hand-built problem may do neither: here one demand
    /// row lists its arcs in descending capacity row, and another covers
    /// two arcs of each data center in mixed order (leaving an empty
    /// row). The factorization stays exact.
    #[test]
    fn hand_built_block_orders_solve_exactly() {
        let base = instance(3, 4, 3, 4.0, 40.0);
        let mut reversed = base.group_a.clone();
        for row in &mut reversed {
            row.entries.reverse();
        }
        let mut two_per_dc = instance(2, 2, 3, 3.0, 30.0);
        for d in &mut two_per_dc.ds {
            d[1] = 0.0; // `0 ≤ 0`: the emptied demand row is vacuous
        }
        let merged = vec![
            CouplingRow {
                row: 0,
                entries: vec![(2, -1.1), (0, -1.0), (3, -1.1), (1, -1.0)],
            },
            CouplingRow {
                row: 1,
                entries: vec![],
            },
        ];
        for slq in [
            with_group_a(&base, reversed),
            with_group_a(&two_per_dc, merged),
        ] {
            assert_condensed_solve(&slq);
        }
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let cold = solve_structured(&slq, &IpmSettings::default()).unwrap();
        let warm = solve_structured_warm(&slq, &IpmSettings::default(), Some(&cold.us)).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
        let bad = vec![Vector::zeros(1); 3];
        assert!(matches!(
            solve_structured_warm(&slq, &IpmSettings::default(), Some(&bad)),
            Err(SolverError::InvalidProblem(_))
        ));
    }

    #[test]
    fn infeasible_demand_is_certified() {
        // Total demand 3 locations × 50 against one DC capping at 10.
        let slq = instance(1, 3, 3, 50.0, 10.0);
        let err = solve_structured(&slq, &IpmSettings::default()).unwrap_err();
        assert!(
            matches!(err, SolverError::Infeasible { .. }),
            "expected a certificate, got {err}"
        );
    }

    #[test]
    fn infeasible_solve_increments_the_headline_counter() {
        let telemetry = Recorder::enabled();
        let slq = instance(1, 3, 3, 50.0, 10.0);
        let err = solve_structured_warm_traced(&slq, &IpmSettings::default(), None, &telemetry)
            .unwrap_err();
        assert!(matches!(err, SolverError::Infeasible { .. }));
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("solver.infeasible"), 1);
        assert_eq!(snap.counter("solver.lq.status.infeasible"), 1);
    }

    #[test]
    fn degenerate_relaxations_are_rejected() {
        let slq = instance(1, 2, 2, 1.0, 10.0);
        let run = |spec: SoftSpec| {
            solve_structured_relaxed_traced(
                &slq,
                &spec,
                &IpmSettings::default(),
                None,
                &Recorder::disabled(),
            )
        };
        assert!(run(SoftSpec::uniform(0, 1.0, 1e-4)).is_err());
        assert!(run(SoftSpec::uniform(1, -1.0, 1e-4)).is_err());
        assert!(run(SoftSpec::uniform(1, 1.0, 0.0)).is_err());
        assert!(run(SoftSpec::uniform(slq.m_rows + 1, 1.0, 1e-4)).is_err());
    }

    #[test]
    fn traced_solve_reports_schur_metrics() {
        let telemetry = Recorder::enabled();
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let sol =
            solve_structured_warm_traced(&slq, &IpmSettings::default(), None, &telemetry).unwrap();
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("solver.lq.solves"), 1);
        assert_eq!(snap.counter("solver.lq.status.optimal"), 1);
        // One factorization per iteration (no reg boosts on this instance).
        assert_eq!(
            snap.counter("solver.lq.schur_factor"),
            sol.iterations as u64
        );
        assert_eq!(snap.counter("solver.lq.reg_boosts"), 0);
        let bs = snap.histogram("solver.lq.schur_block_size").unwrap();
        assert_eq!(bs.count, 1);
        let dd = snap.histogram("solver.lq.schur_dense_dim").unwrap();
        // 2 capacity rows × horizon 3.
        assert_eq!((dd.count, dd.sum), (1, 6.0));
        // Every location reaches both data centers: S_B is dense.
        let fill = snap.histogram("solver.lq.schur_fill").unwrap();
        assert_eq!((fill.count, fill.sum), (1, 1.0));
        assert!(
            snap.histogram("solver.lq.schur_factor_seconds")
                .unwrap()
                .count
                >= 1
        );
        // Predictor and corrector each refine once per iteration.
        let passes = snap.histogram("solver.lq.refinement_passes").unwrap();
        assert_eq!(passes.count, 2 * sol.iterations as u64);
        // With data center 1 dark in slots 2 and 3 of 4, its two vacuous
        // capacity rows keep only their diagonal entries: 64 − 26 of 64.
        let telemetry = Recorder::enabled();
        let slq = with_outage(instance(2, 3, 4, 4.0, 30.0), 3, 1, &[2, 3]);
        solve_structured_warm_traced(&slq, &IpmSettings::default(), None, &telemetry).unwrap();
        let snap = telemetry.snapshot().unwrap();
        let fill = snap.histogram("solver.lq.schur_fill").unwrap();
        assert_eq!((fill.count, fill.sum), (1, 38.0 / 64.0));
    }
}

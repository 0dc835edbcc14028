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
//! per arc, carrying the input Hessian, regularization and the barrier
//! weights of the non-negativity rows — and `G` holds only the aggregate
//! coupling rows, `W_c` their barrier weights.
//! Demand rows have disjoint arc supports (one row per location), and so
//! do capacity rows (one per data center). Each location's chains plus its
//! demand row form one small SPD block `H_v = T_v + c_v w_v c_vᵀ`,
//! factored directly. A block orders its unknowns slot-major, slot `i` of
//! local arc `p` at row `i·a_v + p` for `a_v` arcs at location `v`: the
//! demand row couples the `a_v` arcs of one slot, and a chain couples an
//! arc's slot only to its next slot, `a_v` rows later, so `H_v` is banded
//! with lower bandwidth `a_v` and is factored as a band. The capacity rows
//! stay in augmented form, with their multiplier step `u = Δz_B` as an
//! unknown:
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
//! with the barrier weight. Per-iteration cost is `O(Σ_v a_v³·W² +
//! (W·L)³)` for `L` data centers, the first term the explicit block
//! inverses `S_B` needs, about `dim²·a_v/2 = a_v³·W²/2` multiply-subtracts
//! each by Takahashi's recurrence (a band factor alone is `O(a_v³·W)`):
//! near-linear in locations.
//!
//! Two extensions keep every DSPP solve on this path:
//!
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
//! A strict solve starts from the rollout of its input guess (zero without
//! one), costates at zero. Without a previous solution's duals, every
//! active row starts at `s = max(d − Cx, 1)` and at the horizon's price
//! scale, `z = clamp(max_k ‖q_k‖∞, 10⁻⁴, 1)`. A DSPP dual is a price: a
//! capacity row's dual is what one more server there would save, a demand
//! row's what one more unit of demand costs. A unit dual on a horizon
//! priced at a few thousandths per server starts hundreds of times above
//! the answer, and the first iterations would do nothing but shrink `μ`.
//! The cap keeps the unit start for horizons priced at one or more, and
//! the floor keeps a zero-priced horizon's duals off the boundary. Given a
//! previous solution's duals, shaped like [`LqSolution::stage_duals`],
//! each active model row starts at `z = max(z_prev, 10⁻⁴)` and
//! `s = max(d − Cx, 10⁻⁴)` instead: after a small change to the data, such
//! as a quota move between two rounds of the game, the previous answer's
//! active set and prices are most of the way to the new one, and the small
//! margin keeps them there. A unit margin would push every binding row
//! back to the central path's start. Vacuous rows keep `s = 1, z = 0`
//! either way.
//!
//! The relaxation starts and stops on its own terms and takes no duals; a
//! strict solve runs none of this:
//!
//! * **Start.** Its rows start at `s = max(d − Cx, 1)` and `z = 1`, not at
//!   the price scale: a recovery answer depends on where its solve starts,
//!   and started at the price scale, `paper_stream`'s recovery decisions
//!   cost 0.34 % more at seed 13. Each soft row's slack starts at the
//!   row's violation at the warm-start rollout, `σ = max(lhs − d, 0)`, so
//!   the softened row starts satisfied. The row's penalty `ρ` is split
//!   evenly between the row's dual and the dual of `σ ≥ 0`, so the slack's
//!   stationarity `2εσ + ρ − z_row − z_σ` starts at `2εσ`. From the margin
//!   start, the iterates would climb to the penalty one barrier step at a
//!   time.
//! * **Stop.** The duality-gap test is scaled by the strict objective the
//!   solution reports (hosting plus reconfiguration). The penalty on the
//!   shed demand inflates the relaxed objective by orders of magnitude,
//!   and a gap scaled by it stops on a placement servers away from the
//!   optimum.
//! * **Fallback.** An iterate that passes the feasibility tests and the
//!   gap scaled by the relaxed objective is kept, in storage allocated
//!   with the solve. The first later iterate that fails the feasibility
//!   tests, or whose `μ` does not fall, ends the solve with the kept one:
//!   round-off has then stopped the progress the strict test waits for. A
//!   binding capacity row's dual sits near the shedding penalty, so the
//!   round-off in its slack puts a floor under `μ`.
//!
//! The outer loop is a Mehrotra predictor–corrector with the stopping
//! rules, regularization-boost retry, degraded acceptance and
//! infeasibility classification of the dense Riccati oracle that the
//! `dspp-oracle` test crate checks it against. The corrector's Newton
//! solve, the step the iterate takes, is refined against the exact
//! augmented system until its componentwise backward error reaches
//! round-off: late iterations push the barrier weights across ~15
//! decades, and a fixed number of refinement passes leaves too much error
//! in the direction for the iterates to stay on the central path. The
//! affine predictor is solved once, unrefined. It never moves the
//! iterate: it sets only the centring weight `σ` and the corrector's
//! second-order term `Δs_aff∘Δz_aff`, and both enter the corrector's
//! complementarity target alone. The two right-hand sides share their
//! feasibility residuals, so an error in the predictor shifts where the
//! corrector aims, never how exactly the step taken meets the linearized
//! feasibility rows.

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

/// Static regularization added to the Newton system's diagonal. It keeps
/// the factorizations alive when the Hessian is only positive
/// semidefinite; a failed factorization boosts it ×100 for the rest of the
/// solve, up to [`MAX_REGULARIZATION`] (a heavily damped step beats
/// aborting a solve whose primal iterate is already feasible).
const REGULARIZATION: f64 = 1e-9;

/// Ceiling of the regularization boost, an inertia-correction-style cap.
const MAX_REGULARIZATION: f64 = REGULARIZATION * 1e20;

/// Fraction-to-boundary factor: each update stops at this fraction of the
/// largest step that keeps slacks and duals positive.
const STEP_FRACTION: f64 = 0.99;

/// Cold-start margin: slacks start at `max(d − Cx, margin)` (servers, in
/// the DSPP placement problem). It caps a strict solve's starting duals,
/// the horizon's price scale, and is the relaxation's starting dual.
const INIT_MARGIN: f64 = 1.0;

/// Warm-start margin: a strict solve given a previous solution's duals
/// starts each active row at `z = max(z_prev, margin)` and
/// `s = max(d − Cx, margin)`, next to the previous answer. Without them,
/// it floors the price scale its duals start at.
const WARM_MARGIN: f64 = 1e-4;

/// One location block of `H_A = T + G_Aᵀ W_A G_A`: the chains of the
/// arcs one demand row covers, plus that row's barrier term (arcs in no
/// demand row form singleton blocks without a row).
struct Block {
    /// The block's arcs; slot `i` of local arc `p` is row `i·a + p` of the
    /// block, for `a` arcs.
    arcs: Vec<usize>,
    /// The demand row and its coefficient on each local arc.
    row: Option<(usize, Vec<f64>)>,
    /// The batch holding the block, and its lane there.
    batch: usize,
    lane: usize,
}

impl Block {
    /// The block's pinned rows, arc by arc and slot by slot within an arc.
    fn pinned_rows<'a>(&'a self, slq: &'a StructuredLq) -> impl Iterator<Item = usize> + 'a {
        let (a, w) = (self.arcs.len(), slq.w);
        self.arcs.iter().enumerate().flat_map(move |(p, &e)| {
            let pins = slq.pinned[e * w..(e + 1) * w].iter().enumerate();
            pins.filter(|&(_, &pin)| pin).map(move |(i, _)| i * a + p)
        })
    }
}

/// Up to [`LANES`] location blocks of one arc count `a`, so of one
/// dimension `a·W` and lower bandwidth `a`, assembled, factored, inverted
/// and solved side by side. The lanes of a partial batch stay the identity
/// and are never scattered.
struct Batch {
    /// The blocks in lanes `0..blocks.len()`.
    blocks: Vec<usize>,
    /// The assembled bands and their factors.
    chol: CholeskyLanes,
    /// Each block's inverse, dense, row-major and symmetric (zero on
    /// pinned rows and columns).
    inv: Vec<Lanes>,
    /// Gather/scatter scratch of the block dimension, and the residual's
    /// `H_v x` and `|H_v||x|`.
    x: Vec<Lanes>,
    hx: Vec<Lanes>,
    abs: Vec<Lanes>,
}

impl Batch {
    fn new(blocks: Vec<usize>, arcs: usize, w: usize) -> Self {
        let dim = arcs * w;
        let lanes = || vec![[0.0; LANES]; dim];
        Batch {
            blocks,
            chol: CholeskyLanes::new(dim, arcs),
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
/// locations. Every location block is factored as one banded SPD matrix;
/// the capacity rows stay in augmented form with their multiplier step
/// `u = Δz_B` as an unknown, and are eliminated onto
/// `S_B = W_B⁻¹ + Σ_v G_B H_v⁻¹ G_Bᵀ` — a sum of positive semidefinite
/// terms. No step subtracts one large quantity from another when demand
/// and capacity rows bind together, and a binding capacity row's huge
/// barrier weight never multiplies a rounding error in `G_B Δx`.
struct SchurKkt {
    w: usize,
    blocks: Vec<Block>,
    /// The blocks grouped by dimension, in block order within a dimension.
    batches: Vec<Batch>,
    /// Inverse barrier weight `D = W_B⁻¹` per capacity row and slot (one
    /// on vacuous rows).
    dcap: Vector,
    /// Dense system over the capacity rows.
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
        let (n, w, nb) = (slq.n, slq.w, slq.capacity.len());
        let mut covered = vec![false; n];
        let block = |arcs, row| Block {
            arcs,
            row,
            batch: 0,
            lane: 0,
        };
        let mut blocks: Vec<Block> = slq
            .demand
            .iter()
            .enumerate()
            .filter(|(_, cr)| !cr.entries.is_empty())
            .map(|(row, cr)| {
                for &(e, _) in &cr.entries {
                    covered[e] = true;
                }
                block(
                    cr.entries.iter().map(|&(e, _)| e).collect(),
                    Some((row, cr.entries.iter().map(|&(_, c)| c).collect())),
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
                batches.push(Batch::new(lanes.to_vec(), sizes[lanes[0]], w));
            }
        }
        SchurKkt {
            w,
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
        let v = &mut v.as_mut_slice()[..slq.pinned.len()];
        for (x, &p) in v.iter_mut().zip(&slq.pinned) {
            if p {
                *x = 0.0;
            }
        }
    }

    /// Rebuilds and refactors the whole condensed system. `wm[k]` holds the
    /// effective barrier weight of every model row of slot `k` (zero for a
    /// vacuous row), `rt` the chain weight `R + reg` of every arc's input,
    /// the same at every stage.
    fn refactor(
        &mut self,
        slq: &StructuredLq,
        wm: &[Vector],
        rt: &Vector,
        reg: f64,
    ) -> Result<(), LinalgError> {
        let w = self.w;
        // The first failing block in block order, as a block-by-block loop
        // would report it.
        let mut failed: Option<(usize, LinalgError)> = None;
        for batch in &mut self.batches {
            let (dim, band) = (batch.chol.dim(), batch.chol.band());
            // Band entry (r, c), c ≤ r ≤ c + band (`CholeskyLanes` layout).
            let at = |r: usize, c: usize| c * (band + 1) + r - c;
            let h = batch.chol.matrix_mut();
            for (lane, blk) in batch.blocks.iter().map(|&b| &self.blocks[b]).enumerate() {
                let a = blk.arcs.len();
                for entry in h.iter_mut() {
                    entry[lane] = 0.0;
                }
                // Chains: Σ_k R̃ (y_{k+1} − y_k)² plus the non-negativity
                // row's barrier term on the diagonal; slot k of an arc
                // couples to slot k + 1, `a` rows later. Band column
                // `i·a + p` holds slot i's diagonal first and its chain
                // entry `a` below it.
                for (p, &e) in blk.arcs.iter().enumerate() {
                    let (nonneg, r) = (slq.nonneg_row(e), rt[e]);
                    let slots = h.chunks_exact_mut(band + 1).skip(p).step_by(a);
                    for (i, (col, wm_k)) in slots.zip(&wm[1..=w]).enumerate() {
                        let mut d = r;
                        if i + 1 < w {
                            d += r;
                            col[a][lane] = -r;
                        }
                        d += wm_k[nonneg];
                        col[0][lane] = d;
                    }
                }
                // The location's demand row, slot by slot: the lower
                // triangle of its `a × a` term, column `q` of a slot's
                // `a` band columns taking rows `p ≥ q`.
                if let Some((row, coeffs)) = &blk.row {
                    let slots = h.chunks_exact_mut(a * (band + 1));
                    for (slot, wm_k) in slots.zip(&wm[1..=w]) {
                        let weight = wm_k[*row];
                        for ((q, &cq), col) in coeffs
                            .iter()
                            .enumerate()
                            .zip(slot.chunks_exact_mut(band + 1))
                        {
                            for (x, &cp) in col[..a - q].iter_mut().zip(&coeffs[q..]) {
                                x[lane] += cp * cq * weight;
                            }
                        }
                    }
                }
                // A pinned slot is a decoupled identity row.
                for r in blk.pinned_rows(slq) {
                    for c in r.saturating_sub(band)..r {
                        h[at(r, c)][lane] = 0.0;
                    }
                    for below in r + 1..dim.min(r + band + 1) {
                        h[at(below, r)][lane] = 0.0;
                    }
                    h[at(r, r)][lane] = 1.0;
                }
            }
            if let Err((lane, e)) = batch.chol.refactor_rowwise() {
                let b = batch.blocks[lane];
                if failed.as_ref().is_none_or(|&(first, _)| b < first) {
                    failed = Some((b, e));
                }
                continue;
            }
            batch.chol.inverse_into(&mut batch.inv);
            for (lane, blk) in batch.blocks.iter().map(|&b| &self.blocks[b]).enumerate() {
                for r in blk.pinned_rows(slq) {
                    batch.inv[r * dim + r][lane] = 0.0;
                }
            }
        }
        if let Some((_, e)) = failed {
            return Err(e);
        }
        // S_B = W_B⁻¹ + Σ_v G_B H_v⁻¹ G_Bᵀ; a vacuous row (all arcs
        // pinned, so decoupled) gets an identity entry.
        self.s_cap.reset();
        let dcap = self.dcap.as_mut_slice().chunks_exact_mut(w);
        for (jb, dcap) in dcap.take(slq.capacity.len()).enumerate() {
            let row = slq.capacity_row(jb);
            for (i, ((d, vacuous), wm_k)) in dcap
                .iter_mut()
                .zip(&slq.vacuous)
                .zip(&wm[1..=w])
                .enumerate()
            {
                *d = if vacuous[row] { 1.0 } else { 1.0 / wm_k[row] };
                self.s_cap.add_diag_entry(jb * w + i, *d);
            }
        }
        // Only S_B's lower triangle, all its factor reads: row (l_p, i),
        // column (l_q, j), l_q ≤ l_p, draws on block inverse entry
        // (i·a + p, j·a + q). The inverse is stored whole, so S_B's row
        // segment reads row i·a + p of it directly, at stride a from
        // column q.
        let s = self.s_cap.matrix_mut();
        for blk in &self.blocks {
            let batch = &self.batches[blk.batch];
            let (dim, a) = (batch.chol.dim(), blk.arcs.len());
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
                    for (i, z_row) in batch.inv.chunks_exact(dim).skip(p).step_by(a).enumerate() {
                        let row = s.row_mut(lp * w + i);
                        let cols = if lq == lp { i + 1 } else { w };
                        let z = z_row[q..].iter().step_by(a);
                        for (x, z) in row[lq * w..lq * w + cols].iter_mut().zip(z) {
                            *x += c * z[blk.lane];
                        }
                    }
                }
            }
        }
        self.s_cap.refactor(reg)
    }

    /// Copies each block's entries of the arc-major `v` into its lane of
    /// its batch's slot-major `x`.
    fn gather(blocks: &[Block], w: usize, batch: &mut Batch, v: &Vector) {
        for (lane, &b) in batch.blocks.iter().enumerate() {
            let arcs = &blocks[b].arcs;
            for (p, &e) in arcs.iter().enumerate() {
                let chain = &v.as_slice()[e * w..(e + 1) * w];
                for (x, &ve) in batch.x[p..].iter_mut().step_by(arcs.len()).zip(chain) {
                    x[lane] = ve;
                }
            }
        }
    }

    /// Copies lane by lane the slot-major `from` back into each block's
    /// entries of `v`.
    fn scatter(blocks: &[Block], w: usize, batch: &Batch, from: &[Lanes], v: &mut Vector) {
        for (lane, &b) in batch.blocks.iter().enumerate() {
            let arcs = &blocks[b].arcs;
            for (p, &e) in arcs.iter().enumerate() {
                let chain = &mut v.as_mut_slice()[e * w..(e + 1) * w];
                for (ve, x) in chain.iter_mut().zip(from[p..].iter().step_by(arcs.len())) {
                    *ve = x[lane];
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
        let nb = slq.capacity.len();
        let u_rows = u.as_mut_slice()[..nb * w].chunks_exact_mut(w);
        for (cr, u_row) in slq.capacity.iter().zip(u_rows) {
            for (i, ui) in u_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &(e, c) in &cr.entries {
                    acc += c * y[e * w + i];
                }
                *ui = acc - *ui;
            }
        }
        self.s_cap.solve_in_place(u);
        // y = g − H_A⁻¹ G_Bᵀ u.
        let mut corr = std::mem::take(&mut self.corr);
        corr.fill(0.0);
        for (cr, u_row) in slq
            .capacity
            .iter()
            .zip(u.as_slice()[..nb * w].chunks_exact(w))
        {
            for &(e, c) in &cr.entries {
                let chain = &mut corr.as_mut_slice()[e * w..(e + 1) * w];
                for (x, &ui) in chain.iter_mut().zip(u_row) {
                    *x = c * ui;
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
        let len = slq.capacity.len() * w;
        let rows = u.as_slice()[..len]
            .iter()
            .zip(&self.dcap.as_slice()[..len])
            .zip(&self.rhs_u.as_slice()[..len])
            .zip(&mut self.resid_u.as_mut_slice()[..len]);
        for (j, (((&uj, &dj), &rhs), resid_u)) in rows.enumerate() {
            let (jb, i) = (j / w, j % w);
            let mut acc = 0.0;
            let mut abs = 0.0;
            for &(e, c) in &slq.capacity[jb].entries {
                let g = c * y[e * w + i];
                acc += g;
                abs += g.abs();
                let gu = c * uj;
                self.resid[e * w + i] += gu;
                self.corr[e * w + i] += gu.abs();
            }
            let du = dj * uj;
            let r = rhs - (acc - du);
            *resid_u = r;
            track(r, rhs.abs() + abs + du.abs());
        }
        let len = self.resid.len();
        let rows = self
            .resid
            .iter_mut()
            .zip(&slq.pinned[..len])
            .zip(&self.rhs.as_slice()[..len])
            .zip(&self.corr.as_slice()[..len]);
        for (((resid, &pinned), &rhs), &corr) in rows {
            if pinned {
                *resid = 0.0;
                continue;
            }
            let r = rhs - *resid;
            *resid = r;
            track(r, rhs.abs() + corr);
        }
        omega
    }

    /// [`SchurKkt::solve_in_place`] followed by iterative refinement
    /// against the exact augmented system until the componentwise backward
    /// error reaches round-off or stops shrinking. Returns the refinement
    /// passes taken and the final componentwise backward error (at most
    /// [`ROUND_OFF`] for an exact step).
    fn solve_refined(
        &mut self,
        slq: &StructuredLq,
        y: &mut Vector,
        u: &mut Vector,
    ) -> (usize, f64) {
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
        (passes, norm)
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
    solve_structured_inner(slq, None, settings, None, None, &Recorder::disabled())
        .map(|(sol, _)| sol)
}

/// [`solve_structured`] with an optional warm start and metrics emitted
/// to `telemetry`.
///
/// * `warm_us` guesses the input sequence (`W` vectors of the arc
///   dimension), typically the previous period's solution shifted by one
///   stage. It seeds the primal trajectory only: the slacks and duals
///   start as a cold solve's do, slacks at `max(d − Cx, 1)` and duals at
///   the horizon's price scale clamped to `[1e-4, 1]` (the module docs),
///   so a poor input guess degrades gracefully to roughly cold-start
///   behaviour.
/// * `warm_duals` are a previous solution's
///   [`LqSolution::stage_duals`], for a problem of the same shape. Each
///   active row then starts next to its previous dual and slack (the
///   module docs' warm rule) instead.
///
/// Per attempt it increments `solver.lq.solves` (plus
/// `solver.lq.warm_starts` when either warm start is supplied) and one
/// `solver.lq.status.*` tally, and observes `solver.lq.iterations`,
/// `solver.lq.solve_seconds` and — on success — the final
/// `solver.lq.kkt_residual`. Per iteration it counts
/// `solver.lq.schur_factor` (one per successful factorization) and times
/// `solver.lq.schur_factor_seconds` / `solver.lq.schur_solve_seconds`
/// (twice: predictor and corrector); the corrector's refined solve
/// observes `solver.lq.refinement_passes` and its final backward error,
/// `solver.lq.refinement_error`; the first
/// factorization observes `solver.lq.schur_block_size`,
/// `solver.lq.schur_dense_dim` and `solver.lq.schur_fill`. With a
/// disabled recorder and no warm start this is [`solve_structured`]; see
/// `docs/OBSERVABILITY.md` for the metric catalogue.
///
/// # Errors
///
/// As [`solve_structured`], plus [`SolverError::InvalidProblem`] for a
/// wrong-shaped or non-finite input guess or duals.
pub fn solve_structured_warm_traced(
    slq: &StructuredLq,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    warm_duals: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<LqSolution, SolverError> {
    let warm = warm_us.is_some() || warm_duals.is_some();
    trace_lq_solve(telemetry, warm, || {
        solve_structured_inner(slq, None, settings, warm_us, warm_duals, telemetry)
            .map(|(sol, _)| sol)
    })
}

/// Solves the always-feasible relaxation of `slq`: the leading
/// `spec.penalties.len()` rows of every constrained slot `1..=W` gain a
/// slack `σ ≥ 0`, `(Cx)_i − σ_i ≤ d_i`, priced `ρ_i σ_i + ε σ_i²` — the
/// same problem the dense relaxation oracle in `dspp-oracle` builds.
///
/// The returned solution is in the strict problem's shapes, its objective
/// excludes the slack penalty, and `slacks[k]` holds slot `k`'s slack
/// values (clamped at zero; `slacks[0]` is empty). Each slack starts at
/// its row's violation and each soft row's penalty is split between the
/// row's dual and its slack's; the duality-gap test is scaled by that
/// strict objective, with the fallback exit of the module docs. Metrics
/// as [`solve_structured_warm_traced`], plus `solver.lq.fallback_exits`.
///
/// # Errors
///
/// As [`solve_structured_warm_traced`], plus
/// [`SolverError::InvalidProblem`] for a degenerate spec (no soft rows,
/// more soft rows than a slot has, non-positive or non-finite penalties).
pub fn solve_structured_relaxed_traced(
    slq: &StructuredLq,
    spec: &SoftSpec,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<RelaxedSolution, SolverError> {
    let soft_rows = spec.penalties.len();
    if soft_rows == 0 || soft_rows > slq.num_rows() {
        return Err(SolverError::InvalidProblem(format!(
            "relaxation: {soft_rows} soft rows requested of {} per slot",
            slq.num_rows()
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
        let (sol, sl) =
            solve_structured_inner(slq, Some(spec), settings, warm_us, None, telemetry)?;
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

/// The first `len` entries of `v`; panics if it has fewer.
fn head(v: &Vector, len: usize) -> &[f64] {
    &v.as_slice()[..len]
}

/// The first `len` entries of `v`, mutably; panics if it has fewer.
fn head_mut(v: &mut Vector, len: usize) -> &mut [f64] {
    &mut v.as_mut_slice()[..len]
}

/// Largest `α ≤ 1` keeping every `v + α·dv` non-negative.
fn max_step_multi(vs: &[Vector], dvs: &[Vector]) -> f64 {
    let mut alpha: f64 = 1.0;
    for (v, dv) in vs.iter().zip(dvs) {
        for (&v, &dv) in v.iter().zip(head(dv, v.len())) {
            if dv < 0.0 {
                alpha = alpha.min(-v / dv);
            }
        }
    }
    alpha
}

/// Where each kind of inequality row sits in a slot's row vector: the
/// model rows, then the recovery slacks' non-negativity rows. Slot 0
/// carries no rows.
#[derive(Clone, Copy)]
struct Layout {
    n: usize,
    w: usize,
    m: usize,
    soft: usize,
}

impl Layout {
    fn model(&self, k: usize) -> usize {
        if k >= 1 {
            self.m
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

    fn rows(&self, k: usize) -> usize {
        self.model(k) + self.softs(k)
    }
}

/// The problem as the iteration sees it: the compact rows plus the
/// relaxation and the rows pins make vacuous, flattened into one
/// inequality vector per slot.
struct Rows<'a> {
    slq: &'a StructuredLq,
    lay: Layout,
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
            m: slq.num_rows(),
            soft: soft.map_or(0, |s| s.penalties.len()),
        };
        let d = (0..=lay.w)
            .map(|k| {
                let mut d = Vector::zeros(lay.rows(k));
                if k >= 1 {
                    for (di, &v) in d.iter_mut().zip(slq.ds[k - 1].iter()) {
                        *di = v;
                    }
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
                    let off = lay.model(k);
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
    fn lhs_into(&self, k: usize, x: &Vector, sig: &Vector, out: &mut Vector) {
        if k >= 1 {
            self.slq.row_lhs_into(x, out);
            for (o, &s) in out.iter_mut().zip(head(sig, self.lay.soft)) {
                *o -= s;
            }
        }
        self.slack_rows_into(k, sig, out);
    }

    /// Writes the slacks' non-negativity rows of slot `k` into `out`.
    fn slack_rows_into(&self, k: usize, sig: &Vector, out: &mut Vector) {
        let lay = &self.lay;
        let softs = &mut out.as_mut_slice()[lay.model(k)..lay.rows(k)];
        for (o, &s) in softs.iter_mut().zip(head(sig, lay.softs(k))) {
            *o = -s;
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

    /// The relaxation's slack penalty `Σ ρσ + εσ²` (zero without soft
    /// rows).
    fn penalty(&self, sig: &[Vector]) -> f64 {
        let Some(rho) = self.penalties else {
            return 0.0;
        };
        let mut j = 0.0;
        for s in sig.iter().skip(1) {
            for (&v, &rho) in s.iter().zip(head(rho, s.len())) {
                j += 0.5 * self.eps2 * v * v + rho * v;
            }
        }
        j
    }

    /// Objective including the slack penalty: the relaxed problem's own
    /// objective, which the loosened acceptance tests measure against.
    fn objective(&self, xs: &[Vector], us: &[Vector], sig: &[Vector]) -> f64 {
        self.slq.objective(xs, us) + self.penalty(sig)
    }

    /// Stopping-test scale: the dense path's, which for the relaxation
    /// includes the slack penalties (they are its input costs).
    fn scale(&self) -> f64 {
        let rho = self.penalties.map_or(0.0, Vector::norm_inf);
        self.slq.scale().max(rho)
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

    /// The parts [`finish`] builds a solution from: states, inputs, slacks
    /// and duals.
    fn solution_parts(&self) -> [&[Vector]; 4] {
        [&self.xs, &self.us, &self.sig, &self.zs]
    }

    fn solution_parts_mut(&mut self) -> [&mut [Vector]; 4] {
        [&mut self.xs, &mut self.us, &mut self.sig, &mut self.zs]
    }
}

/// A relaxed solve's fallback: the solution parts of the last iterate
/// that passed the feasibility tests and the gap test scaled by the
/// penalized objective, in one buffer allocated with the solve.
struct Fallback {
    values: Vec<f64>,
    /// The saved iterate's `μ` and residual; `None` until one is saved.
    saved: Option<(f64, f64)>,
}

impl Fallback {
    fn new(it: &Iterate) -> Self {
        let len = it
            .solution_parts()
            .iter()
            .flat_map(|p| p.iter())
            .map(Vector::len)
            .sum();
        Fallback {
            values: Vec::with_capacity(len),
            saved: None,
        }
    }

    fn save(&mut self, it: &Iterate, mu: f64, residual: f64) {
        self.values.clear();
        for v in it.solution_parts().into_iter().flatten() {
            self.values.extend_from_slice(v.as_slice());
        }
        self.saved = Some((mu, residual));
    }

    fn restore(&self, it: &mut Iterate) {
        let mut from = self.values.as_slice();
        for v in it.solution_parts_mut().into_iter().flatten() {
            let (head, rest) = from.split_at(v.len());
            v.as_mut_slice().copy_from_slice(head);
            from = rest;
        }
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
    /// Chain weight `R + reg` per arc, the same at every stage.
    rt: Vector,
    /// `t = (z·r_ineq − r_c)/s` per slot row.
    ts: Vec<Vector>,
    /// Complementarity target per slot row.
    r_cs: Vec<Vector>,
    /// Slack step `Δσ = sig_c + sig_g·(CΔx)` per soft row.
    sig_c: Vec<Vector>,
    sig_g: Vec<Vector>,
    q_hats: Vec<Vector>,
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
    let violation = max_violation(rows, it, scratch);
    // The gap test is relative to the problem's scale as well as the
    // objective: breakdowns near a tiny optimal value (a relaxation whose
    // slacks are almost free) would otherwise fail an objective-relative
    // test they pass by any absolute measure.
    violation <= loose * settings.tol_feasibility * scale
        && mu <= loose * settings.tol_gap * (1.0 + objective.abs()).max(scale)
}

/// Largest violation `lhs − d` over the active rows (zero if none is
/// violated). The iteration finds the most-violated row, which the
/// infeasibility classifier reads, in its primal-residual pass.
fn max_violation(rows: &Rows<'_>, it: &Iterate, scratch: &mut Vector) -> f64 {
    let mut max_viol = 0.0f64;
    for k in 0..=rows.lay.w {
        let len = rows.lay.rows(k);
        rows.lhs_into(k, &it.xs[k], &it.sig[k], scratch);
        let slot = head(scratch, len)
            .iter()
            .zip(&rows.active[k][..len])
            .zip(head(&rows.d[k], len));
        for ((&lhs, &on), &d) in slot {
            if on {
                max_viol = max_viol.max(lhs - d);
            }
        }
    }
    max_viol
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
        .map(|(k, z)| z.iter().take(lay.model(k)).copied().collect())
        .collect();
    // The slack vectors are clamped in place and moved out, not copied.
    let mut sig = it.sig;
    let slacks = sig
        .iter_mut()
        .map(|s| {
            for v in s.iter_mut() {
                *v = v.max(0.0);
            }
            std::mem::take(s)
        })
        .collect();
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
/// complementarity target in `nt.r_cs`, solves the condensed system
/// (refined to round-off when `refine` is set: the step the iterate
/// takes), and recovers the full step into `step`.
#[allow(clippy::too_many_arguments)]
fn newton_step(
    rows: &Rows<'_>,
    kkt: &mut SchurKkt,
    it: &Iterate,
    res: &Residuals,
    nt: &mut Newton,
    step: &mut Iterate,
    refine: bool,
    telemetry: &Recorder,
) {
    let lay = rows.lay;
    let slq = rows.slq;
    let (n, w) = (lay.n, lay.w);
    let (cap, nb) = (slq.capacity_row(0), slq.capacity.len());
    // t = S⁻¹(Z r_ineq − r_c) per active row.
    for k in 0..=w {
        let len = lay.rows(k);
        let slot = head_mut(&mut nt.ts[k], len)
            .iter_mut()
            .zip(&rows.active[k][..len])
            .zip(head(&it.zs[k], len))
            .zip(head(&res.ineq[k], len))
            .zip(head(&nt.r_cs[k], len))
            .zip(head(&it.ss[k], len));
        for (((((t, &on), &z), &r), &rc), &s) in slot {
            *t = if on { (z * r - rc) / s } else { 0.0 };
        }
    }
    // Eliminate each slack: Δσ = c + g·(CΔx)_i, and the soft row's t
    // becomes t − w·c, evaluated as [t(2ε + w′) − w(t′ − r_σ)]/D so a
    // binding row's huge t and w never cancel against each other.
    for k in 1..=w {
        let (off, soft) = (lay.model(k), lay.soft);
        let (t_rows, t_soft) = nt.ts[k].as_mut_slice().split_at_mut(off);
        let (w_rows, w_soft) = nt.ws[k].as_slice().split_at(off);
        let slot = head_mut(&mut nt.sig_c[k], soft)
            .iter_mut()
            .zip(head_mut(&mut nt.sig_g[k], soft))
            .zip(&mut t_rows[..soft])
            .zip(&t_soft[..soft])
            .zip(&w_rows[..soft])
            .zip(&w_soft[..soft])
            .zip(&rows.active[k][..soft])
            .zip(head(&res.sig[k], soft));
        for (((((((c, g), t), &tp), &wj), &wp), &on), &r_sig) in slot {
            if !on {
                *c = 0.0;
                *g = 0.0;
                continue;
            }
            let tj = *t;
            let den = rows.eps2 + wj + wp;
            *c = (tj + tp - r_sig) / den;
            *g = wj / den;
            *t = (tj * (rows.eps2 + wp) - wj * (tp - r_sig)) / den;
        }
    }
    // Capacity rows stay in augmented form: their right-hand side is
    // −W⁻¹t = −(r_ineq − r_c/z) (a softened row subtracts its eliminated
    // slack's share, (t′ − r_σ)/(2ε + w′)), and they leave q̂. Slot k's
    // entries of `u` sit at stride W.
    for k in 1..=w {
        let off = lay.model(k);
        let (active, r_cs, z, ineq) = (&rows.active[k], &nt.r_cs[k], &it.zs[k], &res.ineq[k]);
        let (ts, ws, sig) = (&mut nt.ts[k], &nt.ws[k], &res.sig[k]);
        let u_k = nt.u.as_mut_slice()[..nb * w][k - 1..].iter_mut().step_by(w);
        for (i, u) in (cap..cap + nb).zip(u_k) {
            let mut f = 0.0;
            if active[i] {
                f = r_cs[i] / z[i] - ineq[i];
                if i < lay.soft {
                    let p = off + i;
                    f += (ts[p] - sig[i]) / (rows.eps2 + ws[p]);
                }
            }
            *u = f;
            ts[i] = 0.0;
        }
    }
    // q̂_k = r_x,k + Cᵀ t_k; no row touches an input, so r̂_k = r_u,k.
    for k in 1..=w {
        let qh = &mut nt.q_hats[k];
        qh.copy_from(&res.x[k]);
        slq.row_t_acc(&nt.ts[k], qh);
    }
    // Condensed RHS, arc-major (slot k's entries at stride W):
    // b_k = −q̂_k + r̂_k − r̂_{k−1} (r̂_W ≡ 0).
    for k in 1..=w {
        let next = res.u.get(k).map(|r| head(r, n));
        let slot = nt.y.as_mut_slice()[k - 1..]
            .iter_mut()
            .step_by(w)
            .zip(head(&nt.q_hats[k], n))
            .zip(head(&res.u[k - 1], n));
        for (e, ((y, &q), &r_prev)) in slot.enumerate() {
            let mut b = -q - r_prev;
            if let Some(next) = next {
                b += next[e];
            }
            *y = b;
        }
    }
    let t0 = telemetry.is_enabled().then(Instant::now);
    let refined = if refine {
        Some(kkt.solve_refined(slq, &mut nt.y, &mut nt.u))
    } else {
        kkt.solve_in_place(slq, &mut nt.y, &mut nt.u);
        None
    };
    if let Some(t) = t0 {
        telemetry.observe_duration("solver.lq.schur_solve_seconds", t.elapsed());
    }
    if let Some((passes, error)) = refined {
        telemetry.observe("solver.lq.refinement_passes", passes as f64);
        telemetry.observe("solver.lq.refinement_error", error);
    }
    // Trajectory step: Δx_0 = 0, Δu_k = Δx_{k+1} − Δx_k,
    // Δλ_k = −r̂_k − R̃ Δu_k.
    step.xs[0].fill(0.0);
    for k in 1..=w {
        let y_k = nt.y.as_slice()[k - 1..].iter().step_by(w);
        for (x, &y) in head_mut(&mut step.xs[k], n).iter_mut().zip(y_k) {
            *x = y;
        }
    }
    for k in 0..w {
        let stage = head_mut(&mut step.us[k], n)
            .iter_mut()
            .zip(head_mut(&mut step.lams[k], n))
            .zip(head(&step.xs[k + 1], n))
            .zip(head(&step.xs[k], n))
            .zip(head(&res.u[k], n))
            .zip(head(&nt.rt, n));
        for (((((u, lam), &x_next), &x), &r_hat), &rt) in stage {
            let du = x_next - x;
            *u = du;
            *lam = -r_hat - rt * du;
        }
    }
    // Δσ, then Δs = −r_ineq − Δ(lhs) and Δz = (−r_c − ZΔs)/S per row.
    for k in 0..=w {
        if k >= 1 {
            slq.row_lhs_into(&step.xs[k], &mut nt.cons);
            let soft = lay.soft;
            let rows_k = head_mut(&mut step.sig[k], soft)
                .iter_mut()
                .zip(head(&nt.sig_c[k], soft))
                .zip(head(&nt.sig_g[k], soft))
                .zip(head_mut(&mut nt.cons, soft));
            for (((sig, &c), &g), cons) in rows_k {
                *sig = c + g * *cons;
                *cons -= *sig;
            }
        }
        rows.slack_rows_into(k, &step.sig[k], &mut nt.cons);
        let len = lay.rows(k);
        let slot = head_mut(&mut step.ss[k], len)
            .iter_mut()
            .zip(head_mut(&mut step.zs[k], len))
            .zip(&rows.active[k][..len])
            .zip(head(&res.ineq[k], len))
            .zip(head(&nt.cons, len))
            .zip(head(&nt.r_cs[k], len))
            .zip(head(&it.zs[k], len))
            .zip(head(&it.ss[k], len));
        for (((((((ds, dz), &on), &r), &c), &rc), &z), &s) in slot {
            if on {
                let d = -r - c;
                *ds = d;
                *dz = (-rc - z * d) / s;
            } else {
                *ds = 0.0;
                *dz = 0.0;
            }
        }
        if k >= 1 {
            // The capacity multipliers come straight out of the solve.
            let u_k = nt.u.as_slice()[..nb * w][k - 1..].iter().step_by(w);
            let (active, dz) = (&rows.active[k], &mut step.zs[k]);
            for (i, &u) in (cap..cap + nb).zip(u_k) {
                if active[i] {
                    dz[i] = u;
                }
            }
        }
    }
}

/// The interior point behind every public solve. `warm_duals` is the
/// strict warm start of the module docs; the relaxation passes `None`.
pub(crate) fn solve_structured_inner(
    slq: &StructuredLq,
    soft: Option<&SoftSpec>,
    settings: &IpmSettings,
    warm_us: Option<&[Vector]>,
    warm_duals: Option<&[Vector]>,
    telemetry: &Recorder,
) -> Result<(LqSolution, Vec<Vector>), SolverError> {
    settings.validate().map_err(SolverError::InvalidProblem)?;
    debug_assert!(soft.is_none() || warm_duals.is_none());
    let rows = Rows::new(slq, soft);
    let lay = rows.lay;
    let (n, w) = (lay.n, lay.w);
    let m_total = rows.active_count();

    let mut span = telemetry.tracer().span("solver.lq.solve");
    span.attr("horizon", w);
    span.attr("state_dim", n);
    span.attr("warm_start", warm_us.is_some() || warm_duals.is_some());

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
    if let Some(duals) = warm_duals {
        let shaped = duals.len() == w + 1 && (0..=w).all(|k| duals[k].len() == lay.model(k));
        if !shaped {
            return Err(SolverError::InvalidProblem(
                "warm-start duals do not match the problem's rows".into(),
            ));
        }
        if duals.iter().any(|z| !z.is_finite()) {
            return Err(SolverError::InvalidProblem(
                "warm-start duals contain non-finite values".into(),
            ));
        }
    }
    it.xs = rows.rollout(&slq.x0, &mut it.us);

    // Slacks start at max(d − lhs, margin); duals at the clamped price
    // scale (the relaxation: at the margin) or, warm, at max(z_prev,
    // margin); inactive rows sit at s = 1, z = 0 and never move. Soft rows
    // start as the module docs' "Start" says.
    let margin = warm_duals.map_or(INIT_MARGIN, |_| WARM_MARGIN);
    let z_cold = match soft {
        Some(_) => INIT_MARGIN,
        None => slq.price_scale().clamp(WARM_MARGIN, INIT_MARGIN),
    };
    let mut cons = Vector::zeros((0..=w).map(|k| lay.rows(k)).max().unwrap_or(0));
    for k in 0..=w {
        rows.lhs_into(k, &it.xs[k], &it.sig[k], &mut cons);
        let off = lay.model(k);
        for j in (0..lay.softs(k)).filter(|&j| rows.active[k][j]) {
            let sig = (cons[j] - rows.d[k][j]).max(0.0);
            it.sig[k][j] = sig;
            cons[j] -= sig;
            cons[off + j] = -sig;
        }
        for i in 0..lay.rows(k) {
            if rows.active[k][i] {
                it.ss[k][i] = (rows.d[k][i] - cons[i]).max(margin);
                it.zs[k][i] = warm_duals.map_or(z_cold, |z| z[k][i].max(margin));
            } else {
                it.ss[k][i] = 1.0;
            }
        }
        if let Some(rho) = rows.penalties {
            for j in (0..lay.softs(k)).filter(|&j| rows.active[k][j]) {
                it.zs[k][j] = 0.5 * rho[j];
                it.zs[k][off + j] = 0.5 * rho[j];
            }
        }
    }

    let scale = rows.scale();
    let mut best_gap = f64::INFINITY;
    let mut best_violation = (0usize, 0usize, f64::INFINITY, f64::INFINITY);
    let mut z_max = 0.0f64;
    // Adaptive regularization, as on the dense path: a failed
    // factorization boosts it for the rest of the solve.
    let mut reg = REGULARIZATION;

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
        rt: Vector::zeros(n),
        ts: slot_vecs(),
        r_cs: slot_vecs(),
        sig_c: soft_vecs(),
        sig_g: soft_vecs(),
        q_hats: vec![Vector::zeros(n); w + 1],
        y: Vector::zeros(n * w),
        u: Vector::zeros(slq.capacity.len() * w),
        cons: cons.clone(),
    };
    let mut aff = Iterate::zeros(&lay);
    let mut step = Iterate::zeros(&lay);
    let mut kkt = SchurKkt::new(slq);
    let mut sizes_reported = false;
    let mut fallback = rows.penalties.map(|_| Fallback::new(&it));

    for iter in 0..settings.max_iterations {
        // ------- residuals -------
        // The primal pass also finds the most-violated active row
        // `(slot, row, violation, violation/(1+|d|))`, the classifier's
        // input, as the dense path does.
        let mut wr = (0usize, 0usize, 0.0f64, 0.0f64);
        for k in 0..=w {
            rows.lhs_into(k, &it.xs[k], &it.sig[k], &mut cons);
            let len = lay.rows(k);
            let slot = head_mut(&mut res.ineq[k], len)
                .iter_mut()
                .zip(&rows.active[k][..len])
                .zip(head(&cons, len))
                .zip(head(&it.ss[k], len))
                .zip(head(&rows.d[k], len));
            for (i, ((((r, &on), &lhs), &s), &d)) in slot.enumerate() {
                if !on {
                    *r = 0.0;
                    continue;
                }
                *r = lhs + s - d;
                let viol = lhs - d;
                let rel = viol / (1.0 + d.abs());
                if rel > wr.3 {
                    wr = (k, i, viol, rel);
                }
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
            let pins = slq.pinned[k - 1..].iter().step_by(w);
            for (x, &pinned) in head_mut(r, n).iter_mut().zip(pins) {
                if pinned {
                    *x = 0.0;
                }
            }
        }
        // Stationarity in u: R u_k + λ_k (B = I).
        for k in 0..w {
            let stage = head_mut(&mut res.u[k], n)
                .iter_mut()
                .zip(head(&slq.r_diag, n))
                .zip(head(&it.us[k], n))
                .zip(head(&it.lams[k], n));
            for (((r, &rd), &u), &lam) in stage {
                *r = rd * u + lam;
            }
        }
        // Stationarity in σ: 2εσ + ρ − z_row − z_nonneg.
        if let Some(rho) = rows.penalties {
            for k in 1..=w {
                let (off, soft) = (lay.model(k), lay.soft);
                let z = it.zs[k].as_slice();
                let slot = head_mut(&mut res.sig[k], soft)
                    .iter_mut()
                    .zip(&rows.active[k][..soft])
                    .zip(head(&it.sig[k], soft))
                    .zip(head(rho, soft))
                    .zip(&z[..soft])
                    .zip(&z[off..off + soft]);
                for (((((r, &on), &sig), &rho), &z_row), &z_nonneg) in slot {
                    *r = if on {
                        rows.eps2 * sig + rho - z_row - z_nonneg
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
        if wr.3 < best_violation.3 {
            best_violation = wr;
        }
        z_max = z_max.max(it.zs.iter().map(Vector::norm_inf).fold(0.0f64, f64::max));
        let strict_objective = slq.objective(&it.xs, &it.us);
        let objective = strict_objective + rows.penalty(&it.sig);
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
        // Scaled by the strict objective: the module docs' "Stop".
        let gap_ok = mu <= settings.tol_gap * (1.0 + strict_objective.abs());
        if feas_ok && gap_ok {
            telemetry.observe("solver.lq.kkt_residual", stat_norm.max(ineq_norm));
            span.attr("status", "optimal");
            span.attr("iterations", iter);
            span.attr("objective", objective);
            return Ok(finish(&rows, it, iter, SolveStatus::Optimal));
        }
        if let Some(fallback) = fallback.as_mut() {
            // The module docs' "Fallback": a kept iterate ends the solve
            // at the first later iterate that is no better.
            if let Some((_, residual)) = fallback
                .saved
                .filter(|&(saved_mu, _)| !feas_ok || mu >= saved_mu)
            {
                fallback.restore(&mut it);
                telemetry.incr("solver.lq.fallback_exits", 1);
                telemetry.observe("solver.lq.kkt_residual", residual);
                span.attr("status", "optimal");
                span.attr("fallback", true);
                span.attr("iterations", iter);
                return Ok(finish(&rows, it, iter, SolveStatus::Optimal));
            }
            if feas_ok && mu <= settings.tol_gap * (1.0 + objective.abs()) {
                fallback.save(&it, mu, stat_norm.max(ineq_norm));
            }
        }

        // ------- barrier weights and structured factorization -------
        for k in 0..=w {
            let len = lay.rows(k);
            let slot = head_mut(&mut nt.ws[k], len)
                .iter_mut()
                .zip(&rows.active[k][..len])
                .zip(head(&it.zs[k], len))
                .zip(head(&it.ss[k], len));
            for (((wt, &on), &z), &s) in slot {
                *wt = if on { z / s } else { 0.0 };
            }
        }
        for k in 1..=w {
            let (off, soft) = (lay.model(k), lay.soft);
            let ws = nt.ws[k].as_slice();
            let wm = head_mut(&mut nt.wm[k], lay.m);
            wm.copy_from_slice(&ws[..lay.m]);
            for ((wm, &wj), &wp) in wm[..soft]
                .iter_mut()
                .zip(&ws[..soft])
                .zip(&ws[off..off + soft])
            {
                *wm = wj * (rows.eps2 + wp) / (rows.eps2 + wj + wp);
            }
        }
        let t_factor = telemetry.is_enabled().then(Instant::now);
        loop {
            for (rt, &rd) in head_mut(&mut nt.rt, n).iter_mut().zip(head(&slq.r_diag, n)) {
                *rt = rd + reg;
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
                Err(e) if reg < MAX_REGULARIZATION => {
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
                            max_violation(&rows, &it, &mut cons),
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
        // It only sets σ and the corrector's second-order term, so it is
        // solved once, unrefined, unless no inequality row needs a
        // corrector and the iterate takes it.
        let use_corrector = m_total > 0;
        for k in 0..=w {
            it.ss[k].hadamard_into(&it.zs[k], &mut nt.r_cs[k]);
        }
        newton_step(
            &rows,
            &mut kkt,
            &it,
            &res,
            &mut nt,
            &mut aff,
            !use_corrector,
            telemetry,
        );
        let alpha_p_aff = max_step_multi(&it.ss, &aff.ss);
        let alpha_d_aff = max_step_multi(&it.zs, &aff.zs);
        let sigma = if m_total > 0 && mu > 0.0 {
            let mut mu_aff = 0.0;
            for k in 0..=w {
                let len = lay.rows(k);
                let slot = head(&it.ss[k], len)
                    .iter()
                    .zip(head(&aff.ss[k], len))
                    .zip(head(&it.zs[k], len))
                    .zip(head(&aff.zs[k], len));
                for (((&s, &ds), &z), &dz) in slot {
                    mu_aff += (s + alpha_p_aff * ds) * (z + alpha_d_aff * dz);
                }
            }
            mu_aff /= m_total as f64;
            ((mu_aff / mu).max(0.0)).powi(3).min(1.0)
        } else {
            0.0
        };

        // ------- corrector -------
        if use_corrector {
            for k in 0..=w {
                let len = lay.rows(k);
                let slot = head_mut(&mut nt.r_cs[k], len)
                    .iter_mut()
                    .zip(head(&it.ss[k], len))
                    .zip(head(&it.zs[k], len))
                    .zip(head(&aff.ss[k], len))
                    .zip(head(&aff.zs[k], len));
                for ((((rc, &s), &z), &ds), &dz) in slot {
                    *rc = s * z + ds * dz - sigma * mu;
                }
            }
            newton_step(
                &rows, &mut kkt, &it, &res, &mut nt, &mut step, true, telemetry,
            );
        }
        let fin = if use_corrector { &step } else { &aff };

        let alpha_p = (STEP_FRACTION * max_step_multi(&it.ss, &fin.ss)).min(1.0);
        let alpha_d = (STEP_FRACTION * max_step_multi(&it.zs, &fin.zs)).min(1.0);

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
                    max_violation(&rows, &it, &mut cons),
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
    let violation = max_violation(&rows, &it, &mut cons);
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
    use crate::structured::CouplingRow;

    /// A small DSPP-shaped instance: `dcs × locs` grid with every arc
    /// usable, demand floors per location, capacity caps per DC,
    /// non-negativity per arc.
    fn instance(dcs: usize, locs: usize, w: usize, demand: f64, cap: f64) -> StructuredLq {
        let n = dcs * locs; // arc (l, v) at index l * locs + v
        let demand_rows = (0..locs)
            .map(|v| CouplingRow {
                entries: (0..dcs)
                    .map(|l| (l * locs + v, -(1.0 + 0.1 * l as f64)))
                    .collect(),
            })
            .collect();
        let capacity_rows = (0..dcs)
            .map(|l| CouplingRow {
                entries: (0..locs).map(|v| (l * locs + v, 1.0)).collect(),
            })
            .collect();
        let mut d = Vector::zeros(locs + dcs);
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
            qs,
            Vector::filled(n, 0.2),
            demand_rows,
            capacity_rows,
            vec![d; w],
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
        let (n, w, m) = (slq.n, slq.w, slq.num_rows());
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
        let rt = slq.r_diag.map(|r| r + reg);
        let b: Vector = (0..n * w).map(|_| next() - 1.0).collect();
        let mut kkt = SchurKkt::new(slq);
        kkt.refactor(slq, &ws, &rt, reg).unwrap();
        let mut y = b.clone();
        let mut u = Vector::zeros(slq.capacity.len() * w);
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
                let r = rt[e];
                let mut v = r * yk[e];
                if k > 1 {
                    v -= r * y[e * w + k - 2];
                }
                if k < w {
                    v += r * yk[e] - r * y[e * w + k];
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
    fn with_demand(slq: &StructuredLq, demand: Vec<CouplingRow>) -> StructuredLq {
        StructuredLq::new(
            slq.x0.clone(),
            slq.qs.clone(),
            slq.r_diag.clone(),
            demand,
            slq.capacity.clone(),
            slq.ds.clone(),
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
        let mut reversed = base.demand.clone();
        for row in &mut reversed {
            row.entries.reverse();
        }
        let mut two_per_dc = instance(2, 2, 3, 3.0, 30.0);
        for d in &mut two_per_dc.ds {
            d[1] = 0.0; // `0 ≤ 0`: the emptied demand row is vacuous
        }
        let merged = vec![
            CouplingRow {
                entries: vec![(2, -1.1), (0, -1.0), (3, -1.1), (1, -1.0)],
            },
            CouplingRow { entries: vec![] },
        ];
        for slq in [
            with_demand(&base, reversed),
            with_demand(&two_per_dc, merged),
        ] {
            assert_condensed_solve(&slq);
        }
    }

    /// Block `blk`'s `H_v` assembled in arc-major order, local arc `p`'s
    /// slots at rows `p·W … p·W + W − 1`, dense with both triangles: the
    /// assembly the slot-major band must permute to.
    fn arc_major_block(slq: &StructuredLq, blk: &Block, wm: &[Vector], rt: &Vector) -> Vec<f64> {
        let (w, dim) = (slq.w, blk.arcs.len() * slq.w);
        let mut h = vec![0.0; dim * dim];
        for (p, &e) in blk.arcs.iter().enumerate() {
            let (nonneg, r) = (slq.nonneg_row(e), rt[e]);
            for (k, wm_k) in wm.iter().enumerate().skip(1) {
                let i = p * w + k - 1;
                let mut d = r;
                if k < w {
                    d += r;
                    h[i * dim + i + 1] = -r;
                    h[(i + 1) * dim + i] = -r;
                }
                d += wm_k[nonneg];
                h[i * dim + i] = d;
            }
        }
        if let Some((row, coeffs)) = &blk.row {
            for i in 0..w {
                let weight = wm[i + 1][*row];
                for (p, &cp) in coeffs.iter().enumerate() {
                    for (q, &cq) in coeffs.iter().enumerate() {
                        h[(p * w + i) * dim + q * w + i] += cp * cq * weight;
                    }
                }
            }
        }
        for (p, &e) in blk.arcs.iter().enumerate() {
            for i in 0..w {
                if slq.pinned[e * w + i] {
                    let r = p * w + i;
                    for c in 0..dim {
                        h[r * dim + c] = 0.0;
                        h[c * dim + r] = 0.0;
                    }
                    h[r * dim + r] = 1.0;
                }
            }
        }
        h
    }

    /// Every location block, assembled slot-major as a band and permuted
    /// back, equals the arc-major assembly bit for bit, zeros outside the
    /// band included. The instances have a dark data center (pinned slots,
    /// vacuous rows at weight zero), relaxed leading rows (the effective
    /// weight `w (2ε + w′) / (2ε + w + w′)`), blocks of one to four arcs,
    /// and blocks whose arcs do not ascend in capacity row.
    #[test]
    fn slot_major_bands_permute_to_the_arc_major_blocks() {
        let dark = with_outage(instance(3, 4, 4, 4.0, 40.0), 4, 1, &[2, 3]);
        assert!(dark.pinned.iter().any(|&p| p));
        let mut partial = instance(2, 3, 3, 4.0, 30.0);
        for d in &mut partial.ds {
            d[2] = 0.0;
        }
        let partial = with_demand(
            &partial,
            vec![
                CouplingRow {
                    entries: vec![(0, -1.0), (3, -1.1)],
                },
                CouplingRow {
                    entries: vec![(4, -1.1), (1, -1.0), (2, -0.5)],
                },
                CouplingRow { entries: vec![] },
            ],
        );
        let mut two_per_dc = instance(2, 2, 3, 3.0, 30.0);
        for d in &mut two_per_dc.ds {
            d[1] = 0.0;
        }
        let merged = with_demand(
            &two_per_dc,
            vec![
                CouplingRow {
                    entries: vec![(2, -1.1), (0, -1.0), (3, -1.1), (1, -1.0)],
                },
                CouplingRow { entries: vec![] },
            ],
        );
        let mut state = 11u64;
        let mut weight = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            10f64.powf(-2.0 + 14.0 * ((state >> 11) as f64 / (1u64 << 53) as f64))
        };
        let mut arc_counts = Vec::new();
        for slq in [dark, partial, merged] {
            let (n, w, m) = (slq.n, slq.w, slq.num_rows());
            let (eps2, soft) = (2e-3, slq.demand.len());
            let mut wm = vec![Vector::zeros(0)];
            for k in 1..=w {
                let row_weight = |i: usize, wj: f64, wp: f64| {
                    if slq.vacuous[k - 1][i] {
                        0.0
                    } else if i < soft {
                        wj * (eps2 + wp) / (eps2 + wj + wp)
                    } else {
                        wj
                    }
                };
                wm.push((0..m).map(|i| row_weight(i, weight(), weight())).collect());
            }
            let rt: Vector = (0..n).map(|_| weight()).collect();
            let mut kkt = SchurKkt::new(&slq);
            // Every batch is assembled whether or not a factor fails, and
            // the assembly alone is under test.
            let _ = kkt.refactor(&slq, &wm, &rt, 1e-9);
            for blk in &kkt.blocks {
                let (a, want) = (blk.arcs.len(), arc_major_block(&slq, blk, &wm, &rt));
                arc_counts.push(a);
                let chol = &mut kkt.batches[blk.batch].chol;
                let (dim, band) = (chol.dim(), chol.band());
                assert_eq!((dim, band), (a * w, a));
                let h = chol.matrix_mut();
                for (p, q, i, j) in (0..a).flat_map(|p| {
                    (0..a).flat_map(move |q| {
                        (0..w).flat_map(move |i| (0..w).map(move |j| (p, q, i, j)))
                    })
                }) {
                    let (r, c) = ((i * a + p).max(j * a + q), (i * a + p).min(j * a + q));
                    let got = if r - c <= band {
                        h[c * (band + 1) + r - c][blk.lane]
                    } else {
                        0.0
                    };
                    let want = want[(p * w + i) * dim + q * w + j];
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "arcs {:?}, (arc {p}, slot {i}) × (arc {q}, slot {j}): {got:e} vs {want:e}",
                        blk.arcs
                    );
                }
            }
        }
        arc_counts.sort_unstable();
        arc_counts.dedup();
        assert_eq!(arc_counts, [1, 2, 3, 4]);
    }

    #[test]
    fn warm_start_reaches_the_same_optimum() {
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let cold = solve_structured(&slq, &IpmSettings::default()).unwrap();
        let warm = |guess: &[Vector]| {
            solve_structured_warm_traced(
                &slq,
                &IpmSettings::default(),
                Some(guess),
                None,
                &Recorder::disabled(),
            )
        };
        let warm_sol = warm(&cold.us).unwrap();
        assert!((warm_sol.objective - cold.objective).abs() < 1e-6);
        assert!(warm_sol.iterations <= cold.iterations);
        let bad = vec![Vector::zeros(1); 3];
        assert!(matches!(warm(&bad), Err(SolverError::InvalidProblem(_))));
    }

    /// `slq` with every hosting price multiplied by `factor`.
    fn priced(mut slq: StructuredLq, factor: f64) -> StructuredLq {
        for q in &mut slq.qs {
            q.scale(factor);
        }
        slq
    }

    /// Solves `slq`, an `instance` over `locs` locations, cold and
    /// warm-started from the inputs of its optimum at 5 % less demand. Both
    /// must end `Optimal` at the same answer: objective within `1e-6`
    /// relative, first control within `control_tol` (relative above one
    /// server).
    fn assert_cold_and_input_warm_agree(
        slq: &StructuredLq,
        locs: usize,
        control_tol: f64,
    ) -> Result<(), String> {
        let ipm = IpmSettings::default();
        let mut less = slq.clone();
        for d in &mut less.ds {
            for v in 0..locs {
                d[v] *= 0.95;
            }
        }
        let scale = slq.price_scale();
        let optimal = |sol: Result<LqSolution, SolverError>, what: &str| match sol {
            Ok(sol) if sol.status == SolveStatus::Optimal => Ok(sol),
            Ok(sol) => Err(format!("price scale {scale:e}: {what} {:?}", sol.status)),
            Err(e) => Err(format!("price scale {scale:e}: {what} failed: {e}")),
        };
        let cold = optimal(solve_structured(slq, &ipm), "cold")?;
        let prev = optimal(solve_structured(&less, &ipm), "neighbour")?;
        let warm = optimal(
            solve_structured_warm_traced(slq, &ipm, Some(&prev.us), None, &Recorder::disabled()),
            "input-warm",
        )?;
        let gap = (warm.objective - cold.objective).abs() / cold.objective.abs().max(1e-300);
        if gap > 1e-6 {
            return Err(format!("price scale {scale:e}: objective off by {gap:.3e}"));
        }
        for (w, c) in warm.us[0].iter().zip(cold.us[0].iter()) {
            if (w - c).abs() > control_tol * c.abs().max(1.0) {
                return Err(format!("price scale {scale:e}: first control {w} vs {c}"));
            }
        }
        Ok(())
    }

    /// A solve without previous duals starts each active row's dual at the
    /// horizon's price scale, clamped to `[1e-4, 1]`. Priced at the paper
    /// instance's scale (×0.004, capacity binding) and at zero (the floor),
    /// the cold solve and an input-warm one reach the same optimum.
    #[test]
    fn duals_start_at_the_price_scale() {
        for factor in [0.004, 0.0] {
            let slq = priced(instance(2, 3, 3, 4.0, 6.5), factor);
            assert_eq!(slq.price_scale(), 2.2 * factor);
            assert_cold_and_input_warm_agree(&slq, 3, 1e-6).unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Prices spanning six decades (`1e-4` … `1e2` per server), where
        /// the duals start anywhere from the floor to the cap: every cold
        /// and input-warm solve ends `Optimal`, and the two agree. The
        /// objective is strongly convex only through `R = 0.2`, so a gap
        /// test met at `1e-9` relative leaves the controls up to `~1e-4`
        /// apart on some grids, also where the cap keeps the unit start.
        #[test]
        fn prop_cold_and_input_warm_solves_agree_across_price_scales(
            dcs in 1usize..4,
            locs in 1usize..5,
            w in 1usize..5,
            demand in 1.0f64..8.0,
            cap_slack in 1.1f64..3.0,
            decade in -4.0f64..2.0,
        ) {
            let cap = demand * locs as f64 * cap_slack / dcs as f64;
            let slq = priced(instance(dcs, locs, w, demand, cap), 10f64.powf(decade));
            let agree = assert_cold_and_input_warm_agree(&slq, locs, 1e-3);
            proptest::prop_assert!(agree.is_ok(), "{}", agree.unwrap_err());
        }
    }

    /// `instance` with data center `l`'s capacity moved to `cap` in every
    /// slot: one provider's quota change between two rounds of the game.
    fn with_capacity(mut slq: StructuredLq, locs: usize, l: usize, cap: f64) -> StructuredLq {
        for d in &mut slq.ds {
            d[locs + l] = cap;
        }
        slq
    }

    /// Warm-starts `slq` from `from`'s inputs and duals.
    fn dual_warm(
        slq: &StructuredLq,
        from: &LqSolution,
        telemetry: &Recorder,
    ) -> Result<LqSolution, SolverError> {
        solve_structured_warm_traced(
            slq,
            &IpmSettings::default(),
            Some(&from.us),
            Some(&from.stage_duals),
            telemetry,
        )
    }

    /// Data center 1's capacity binds in the last slot (dual ≈ 0.79). After
    /// a quota move either way, the solution of the neighbouring problem
    /// starts the re-solve next to its answer: same optimum, fewer
    /// iterations than a cold start and than its inputs alone.
    #[test]
    fn dual_warm_start_after_a_quota_move_saves_iterations() {
        let ipm = IpmSettings::default();
        let slq = instance(2, 3, 3, 4.0, 6.5);
        let cold = solve_structured(&slq, &ipm).unwrap();
        for moved in [6.2, 6.8] {
            let prev = solve_structured(&with_capacity(slq.clone(), 3, 0, moved), &ipm).unwrap();
            let warm = dual_warm(&slq, &prev, &Recorder::disabled()).unwrap();
            let inputs_only = solve_structured_warm_traced(
                &slq,
                &ipm,
                Some(&prev.us),
                None,
                &Recorder::disabled(),
            )
            .unwrap();
            let gap = (warm.objective - cold.objective).abs() / cold.objective.abs();
            assert!(gap <= 1e-8, "quota {moved}: objective off by {gap:.3e}");
            for (w, c) in warm.us[0].iter().zip(cold.us[0].iter()) {
                assert!(
                    (w - c).abs() <= 1e-6,
                    "quota {moved}: first control {w} vs {c}"
                );
            }
            assert!(
                warm.iterations < cold.iterations && warm.iterations < inputs_only.iterations,
                "quota {moved}: warm {} vs cold {} and inputs only {}",
                warm.iterations,
                cold.iterations,
                inputs_only.iterations
            );
        }
    }

    /// A solution's duals are its model rows: slot 0 is empty and slots
    /// `1..=W` hold one dual per row. Warm duals of any other shape are
    /// rejected, a slot 0 with `2n` entries too.
    #[test]
    fn malformed_warm_duals_are_rejected() {
        let slq = instance(2, 3, 3, 4.0, 6.5);
        let sol = solve_structured(&slq, &IpmSettings::default()).unwrap();
        assert_eq!(sol.stage_duals.len(), slq.w + 1);
        assert!(sol.stage_duals[0].is_empty());
        for duals in &sol.stage_duals[1..] {
            assert_eq!(duals.len(), slq.num_rows());
        }
        let telemetry = Recorder::enabled();
        let mut too_few_slots = sol.clone();
        too_few_slots.stage_duals.pop();
        let mut short_row = sol.clone();
        short_row.stage_duals[2] = Vector::zeros(slq.num_rows() - 1);
        let mut non_finite = sol.clone();
        non_finite.stage_duals[1][0] = f64::NAN;
        let mut slot_zero_rows = sol.clone();
        slot_zero_rows.stage_duals[0] = Vector::filled(2 * slq.n, 0.5);
        for bad in [&too_few_slots, &short_row, &non_finite, &slot_zero_rows] {
            let err = dual_warm(&slq, bad, &telemetry).unwrap_err();
            assert!(matches!(err, SolverError::InvalidProblem(_)), "{err}");
        }
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("solver.lq.status.invalid_problem"), 4);
        assert_eq!(snap.counter("solver.lq.warm_starts"), 4);
    }

    /// With data center 1 dark in slots 2 and 3, its capacity row and its
    /// arcs' non-negativity rows leave those slots. Duals written there
    /// are never read: those rows keep `z = 0`, and the solve reaches the
    /// cold optimum.
    #[test]
    fn vacuous_rows_ignore_warm_duals() {
        let slq = with_outage(instance(2, 3, 4, 4.0, 30.0), 3, 1, &[2, 3]);
        let cold = solve_structured(&slq, &IpmSettings::default()).unwrap();
        let mut prev = cold.clone();
        for k in 1..=slq.w {
            for (z, &vacuous) in prev.stage_duals[k].iter_mut().zip(&slq.vacuous[k - 1]) {
                if vacuous {
                    *z = 5.0;
                }
            }
        }
        let vacuous_rows = slq.vacuous.iter().flatten().filter(|&&v| v).count();
        assert_eq!(
            vacuous_rows,
            2 * (1 + 3),
            "the dark capacity row and its 3 arcs, twice"
        );
        let warm = dual_warm(&slq, &prev, &Recorder::disabled()).unwrap();
        for k in 1..=slq.w {
            for (&z, &vacuous) in warm.stage_duals[k].iter().zip(&slq.vacuous[k - 1]) {
                if vacuous {
                    assert_eq!(z, 0.0, "slot {k}: a vacuous row's dual moved");
                }
            }
        }
        let gap = (warm.objective - cold.objective).abs() / cold.objective.abs();
        assert!(gap <= 1e-8, "objective off by {gap:.3e}");
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
        let err =
            solve_structured_warm_traced(&slq, &IpmSettings::default(), None, None, &telemetry)
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
        assert!(run(SoftSpec::uniform(slq.num_rows() + 1, 1.0, 1e-4)).is_err());
    }

    /// One recorder sees a cold solve, a warm one from inputs and one
    /// from inputs and duals, a recovery solve (this one ends on the
    /// fallback), a certified-infeasible strict solve, two iteration-capped
    /// solves and a bad warm-start guess. The emitted
    /// `solver.*` names equal the rows of `docs/OBSERVABILITY.md`'s
    /// `solver.lq.*` table, each name of the status row on its own, except
    /// the two that no small instance reaches cheaply.
    #[test]
    fn solver_metric_catalogue_matches_the_doc() {
        use std::collections::BTreeSet;
        let untriggered = [
            // A factorization must fail at the static regularization.
            "solver.lq.reg_boosts",
            // Iterates must turn non-finite, or a factorization fail at
            // the boosted ceiling, without a converged primal.
            "solver.lq.status.numerical_failure",
        ];
        let telemetry = Recorder::enabled();
        let run = |slq: &StructuredLq, settings: &IpmSettings, guess: Option<&[Vector]>| {
            solve_structured_warm_traced(slq, settings, guess, None, &telemetry)
        };
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let cold = run(&slq, &IpmSettings::default(), None).unwrap();
        let warm = run(&slq, &IpmSettings::default(), Some(&cold.us)).unwrap();
        dual_warm(&slq, &cold, &telemetry).unwrap();
        let mut tracker = crate::WarmStartTracker::new();
        tracker.record(false, cold.iterations + 1, &telemetry);
        tracker.record(true, warm.iterations, &telemetry);
        let relaxed = solve_structured_relaxed_traced(
            &instance(2, 3, 4, 800.0, 30.0),
            &SoftSpec::uniform(3, 1e4, 1e-4),
            &IpmSettings::default(),
            None,
            &telemetry,
        )
        .unwrap();
        assert_eq!(relaxed.solution.status, SolveStatus::Optimal);
        let infeasible = run(
            &instance(1, 3, 3, 50.0, 10.0),
            &IpmSettings::default(),
            None,
        );
        assert!(matches!(infeasible, Err(SolverError::Infeasible { .. })));
        let capped = |max_iterations| IpmSettings {
            max_iterations,
            ..IpmSettings::default()
        };
        assert!(matches!(
            run(&slq, &capped(2), None),
            Err(SolverError::MaxIterations { .. })
        ));
        assert_eq!(
            run(&slq, &capped(6), None).unwrap().status,
            SolveStatus::AlmostOptimal
        );
        let bad = vec![Vector::zeros(1); 3];
        assert!(matches!(
            run(&slq, &IpmSettings::default(), Some(&bad)),
            Err(SolverError::InvalidProblem(_))
        ));
        let snap = telemetry.snapshot().unwrap();
        assert_eq!(snap.counter("solver.lq.fallback_exits"), 1);
        let emitted: BTreeSet<&str> = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .map(String::as_str)
            .filter(|name| name.starts_with("solver."))
            .collect();
        // The first cell of each row of the `solver.lq.*` table; a name
        // written `.suffix` extends the first name's prefix.
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### `solver.lq.*`")
            .nth(1)
            .expect("OBSERVABILITY.md has the solver.lq.* section");
        let section = section.split("\n#").next().unwrap_or(section);
        let mut documented: BTreeSet<String> = BTreeSet::new();
        for line in section.lines().filter(|line| line.starts_with("| `")) {
            let cell = line.split('|').nth(1).unwrap_or_default();
            let names: Vec<&str> = cell.split('`').skip(1).step_by(2).collect();
            let prefix = names[0].rsplit_once('.').map_or("", |(p, _)| p);
            documented.extend(names.iter().map(|name| match name.strip_prefix('.') {
                Some(suffix) => format!("{prefix}.{suffix}"),
                None => name.to_string(),
            }));
        }
        for name in untriggered {
            assert!(documented.contains(name), "{name} is not documented");
            assert!(!emitted.contains(name), "{name} was emitted after all");
        }
        let expected: BTreeSet<&str> = documented
            .iter()
            .map(String::as_str)
            .filter(|name| !untriggered.contains(name))
            .collect();
        assert_eq!(emitted, expected, "emitted vs documented solver metrics");
    }

    /// Only the corrector, the step the iterate takes, is refined: a cold
    /// strict solve, a warm strict solve and a relaxed solve that ends on
    /// its fallback each observe one refined solve per Newton step, and
    /// two timed solves (predictor and corrector) per step.
    #[test]
    fn only_the_corrector_is_refined() {
        let check = |name: &str, telemetry: &Recorder, steps: usize| {
            let steps = steps as u64;
            assert!(steps > 0, "{name}: no Newton step");
            let snap = telemetry.snapshot().unwrap();
            let count = |metric: &str| snap.histogram(metric).map_or(0, |h| h.count);
            assert_eq!(snap.counter("solver.lq.schur_factor"), steps, "{name}");
            assert_eq!(count("solver.lq.refinement_passes"), steps, "{name}");
            let error = snap.histogram("solver.lq.refinement_error").unwrap();
            assert_eq!(error.count, steps, "{name}");
            assert!(error.max <= ROUND_OFF, "{name}: a refined step stalled");
            assert_eq!(count("solver.lq.schur_solve_seconds"), 2 * steps, "{name}");
        };
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let ipm = IpmSettings::default();
        let telemetry = Recorder::enabled();
        let cold = solve_structured_warm_traced(&slq, &ipm, None, None, &telemetry).unwrap();
        check("cold", &telemetry, cold.iterations);
        let telemetry = Recorder::enabled();
        let warm =
            solve_structured_warm_traced(&slq, &ipm, Some(&cold.us), None, &telemetry).unwrap();
        check("warm", &telemetry, warm.iterations);
        let telemetry = Recorder::enabled();
        let relaxed = solve_structured_relaxed_traced(
            &instance(2, 3, 4, 800.0, 30.0),
            &SoftSpec::uniform(3, 1e4, 1e-4),
            &ipm,
            None,
            &telemetry,
        )
        .unwrap();
        let fallbacks = telemetry
            .snapshot()
            .unwrap()
            .counter("solver.lq.fallback_exits");
        assert_eq!(fallbacks, 1, "the relaxed solve ends on its fallback");
        check("relaxed", &telemetry, relaxed.solution.iterations);
    }

    #[test]
    fn traced_solve_reports_schur_metrics() {
        let telemetry = Recorder::enabled();
        let slq = instance(2, 3, 3, 4.0, 30.0);
        let sol =
            solve_structured_warm_traced(&slq, &IpmSettings::default(), None, None, &telemetry)
                .unwrap();
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
        // With data center 1 dark in slots 2 and 3 of 4, its two vacuous
        // capacity rows keep only their diagonal entries: 64 − 26 of 64.
        let telemetry = Recorder::enabled();
        let slq = with_outage(instance(2, 3, 4, 4.0, 30.0), 3, 1, &[2, 3]);
        solve_structured_warm_traced(&slq, &IpmSettings::default(), None, None, &telemetry)
            .unwrap();
        let snap = telemetry.snapshot().unwrap();
        let fill = snap.histogram("solver.lq.schur_fill").unwrap();
        assert_eq!((fill.count, fill.sum), (1, 38.0 / 64.0));
    }
}

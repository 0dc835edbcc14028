//! Compact representation of DSPP-shaped stage-structured problems.
//!
//! The horizon-truncated placement problem is almost entirely structure:
//! identity dynamics `x⁺ = x + u` over the per-(l,v) arc states, diagonal
//! quadratic input costs, linear state costs, and per-period constraint
//! rows that are either *diagonal* (touching one arc: non-negativity,
//! per-arc caps) or *aggregate coupling* rows (demand rows summing over a
//! location's arcs, capacity rows summing over a data center's arcs). A
//! dense stage-structured expansion stores the identity `A`/`B` and the
//! mostly-zero constraint matrix explicitly — `O(n²)` per stage — which
//! caps a dense solver at a few hundred arcs. [`StructuredLq`] stores
//! exactly the nonzero data: `O(n + rows)` per stage, so 100 DCs × 1000
//! locations fits in a few megabytes.
//!
//! Beyond the per-slot rows, a problem may carry a box bound
//! `|u_{k,e}| ≤ u_max` on every input ([`StructuredLq::with_input_bound`]),
//! and a solve may soften the leading rows of every slot into the
//! always-feasible recovery relaxation
//! ([`solve_structured_relaxed_traced`](crate::solve_structured_relaxed_traced)).
//! Slots where a coupling row with positive coefficients has a zero
//! right-hand side over non-negative arcs (a dead data center) pin those
//! arcs to zero for the slot; the rows the pin makes vacuous leave the
//! interior-point iteration instead of degenerating it.
//!
//! The read-only accessors expose the compact data, so the `dspp-oracle`
//! test crate can expand a problem into the equivalent dense one that the
//! test suites and the solver-scaling sweep cross-check against. The
//! interior-point loop that consumes this type lives in the `skkt` module.

use crate::SolverError;
use dspp_linalg::Vector;

/// A constraint row touching exactly one arc: `coeff · x_arc ≤ d_row`.
///
/// Folded straight into the per-arc tridiagonal KKT blocks — diagonal rows
/// never enter the Schur system.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagRow {
    /// Index of this row within each constrained slot's row order.
    pub row: usize,
    /// The arc (state index) the row constrains.
    pub arc: usize,
    /// The row's coefficient (e.g. `-1` for non-negativity).
    pub coeff: f64,
}

/// An aggregate coupling row `Σ_e coeff_e · x_e ≤ d_row` over several arcs
/// (a demand row over one location's arcs, or a capacity row over one data
/// center's arcs).
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingRow {
    /// Index of this row within each constrained slot's row order.
    pub row: usize,
    /// `(arc, coefficient)` pairs; arcs are distinct within a row.
    pub entries: Vec<(usize, f64)>,
}

/// A DSPP-shaped LQ problem in compact form; see the module docs.
///
/// Slots `1..=W` (stages `1..W-1` plus the terminal) each carry the same
/// `m_rows` constraint rows — the same sparsity *and* coefficients, with
/// only the right-hand sides varying per slot — split into diagonal rows
/// and two groups of coupling rows whose supports are disjoint *within*
/// each group (demand rows partition arcs by location; capacity rows by
/// data center). That two-group "arrow" structure is what the structured
/// KKT factorization eliminates in two levels.
#[derive(Debug, Clone)]
pub struct StructuredLq {
    /// Arc count `n` (state and input dimension).
    pub(crate) n: usize,
    /// Horizon `W` (stage count; slots `1..=W` are constrained).
    pub(crate) w: usize,
    /// Initial state.
    pub(crate) x0: Vector,
    /// Stage-0 linear state cost on the *fixed* `x0` (a constant in the
    /// objective, kept so objectives match the dense problem exactly).
    pub(crate) q0: Vector,
    /// Linear state costs per slot `k = 1..=W` (index `k-1`).
    pub(crate) qs: Vec<Vector>,
    /// Input cost Hessian diagonals `R_k` per stage `k = 0..W-1`.
    pub(crate) r_diags: Vec<Vector>,
    /// Linear input costs per stage.
    pub(crate) r_vecs: Vec<Vector>,
    /// Constraint rows per constrained slot.
    pub(crate) m_rows: usize,
    /// Right-hand sides per slot `k = 1..=W` (index `k-1`), original row
    /// order.
    pub(crate) ds: Vec<Vector>,
    /// Single-arc rows.
    pub(crate) diag_rows: Vec<DiagRow>,
    /// First coupling group (disjoint supports; demand rows in DSPP).
    pub(crate) group_a: Vec<CouplingRow>,
    /// Second coupling group (disjoint supports; capacity rows in DSPP).
    pub(crate) group_b: Vec<CouplingRow>,
    /// Arc `e` → index into `group_b` of the row containing it (or
    /// [`NO_ROW`]), plus that row's coefficient on `e`; the structured
    /// factorization uses it to find the capacity row each arc feeds.
    pub(crate) arc_b: Vec<(usize, f64)>,
    /// Box bound `|u_{k,e}| ≤ u_max` on every stage's input, if any.
    pub(crate) u_max: Option<f64>,
    /// Flat chain index `e·W + (k−1)` → whether slot `k` forces
    /// `x_{k,e} = 0` (see [`StructuredLq::pins`]).
    pub(crate) pinned: Vec<bool>,
    /// Per slot `k = 1..=W` (index `k-1`), the rows a pin makes vacuous;
    /// they take no part in the iteration (zero multiplier).
    pub(crate) vacuous: Vec<Vec<bool>>,
}

/// Marker for "arc not in any row of this group".
pub(crate) const NO_ROW: usize = usize::MAX;

impl StructuredLq {
    /// Builds a structured problem from its compact parts.
    ///
    /// Shapes: `x0`, `q0`, every entry of `qs`/`r_diags`/`r_vecs` have
    /// length `n`; `qs`, `r_vecs` and `ds` have one entry per slot
    /// `1..=W`, `r_diags` one per stage `0..W-1` (the two counts are both
    /// `W`); every `ds[k]` has length `m_rows`. Row indices of
    /// `diag_rows` ∪ `group_a` ∪ `group_b` must partition `0..m_rows`,
    /// and each group's rows must have pairwise-disjoint arc supports. A
    /// coupling row may be empty (a data center no location can reach):
    /// `0 ≤ d` is vacuous for `d ≥ 0`.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] describing the first violated
    /// requirement.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        x0: Vector,
        q0: Vector,
        qs: Vec<Vector>,
        r_diags: Vec<Vector>,
        r_vecs: Vec<Vector>,
        ds: Vec<Vector>,
        diag_rows: Vec<DiagRow>,
        group_a: Vec<CouplingRow>,
        group_b: Vec<CouplingRow>,
        m_rows: usize,
    ) -> Result<Self, SolverError> {
        let bad = |msg: String| Err(SolverError::InvalidProblem(msg));
        let n = x0.len();
        let w = qs.len();
        if n == 0 {
            return bad("structured problem needs at least one arc".into());
        }
        if w == 0 {
            return bad("structured problem needs a positive horizon".into());
        }
        if r_diags.len() != w || r_vecs.len() != w || ds.len() != w {
            return bad(format!(
                "per-slot series disagree: qs {w}, r_diags {}, r_vecs {}, ds {}",
                r_diags.len(),
                r_vecs.len(),
                ds.len()
            ));
        }
        if !x0.is_finite() || !q0.is_finite() || q0.len() != n {
            return bad("x0/q0 must be finite vectors of the arc dimension".into());
        }
        for (k, (q, (r, rv))) in qs.iter().zip(r_diags.iter().zip(&r_vecs)).enumerate() {
            if q.len() != n || r.len() != n || rv.len() != n {
                return bad(format!("slot {k}: cost vectors must have length {n}"));
            }
            if !q.is_finite() || !rv.is_finite() {
                return bad(format!("slot {k}: non-finite cost data"));
            }
            if r.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                return bad(format!("stage {k}: input cost diagonal must be positive"));
            }
        }
        for (k, d) in ds.iter().enumerate() {
            if d.len() != m_rows {
                return bad(format!(
                    "slot {}: rhs has {} rows, expected {m_rows}",
                    k + 1,
                    d.len()
                ));
            }
            if !d.is_finite() {
                return bad(format!("slot {}: non-finite rhs", k + 1));
            }
        }
        let mut row_seen = vec![false; m_rows];
        let mut claim_row = |row: usize| -> Result<(), SolverError> {
            if row >= m_rows {
                return Err(SolverError::InvalidProblem(format!(
                    "row index {row} out of range (m_rows = {m_rows})"
                )));
            }
            if row_seen[row] {
                return Err(SolverError::InvalidProblem(format!(
                    "row {row} classified twice"
                )));
            }
            row_seen[row] = true;
            Ok(())
        };
        for dr in &diag_rows {
            claim_row(dr.row)?;
            if dr.arc >= n || !dr.coeff.is_finite() || dr.coeff == 0.0 {
                return bad(format!("diagonal row {} has invalid arc/coeff", dr.row));
            }
        }
        let mut arc_a = vec![(NO_ROW, 0.0); n];
        let mut arc_b = vec![(NO_ROW, 0.0); n];
        for (group, map, name) in [(&group_a, &mut arc_a, "A"), (&group_b, &mut arc_b, "B")] {
            for (gi, c) in group.iter().enumerate() {
                claim_row(c.row)?;
                for &(e, coeff) in &c.entries {
                    if e >= n || !coeff.is_finite() || coeff == 0.0 {
                        return bad(format!("coupling row {} has invalid entry", c.row));
                    }
                    if map[e].0 != NO_ROW {
                        return bad(format!(
                            "group {name}: arc {e} appears in two rows — supports must be disjoint"
                        ));
                    }
                    map[e] = (gi, coeff);
                }
            }
        }
        if let Some(row) = row_seen.iter().position(|&s| !s) {
            return bad(format!("row {row} is not classified"));
        }
        let mut slq = StructuredLq {
            n,
            w,
            x0,
            q0,
            qs,
            r_diags,
            r_vecs,
            m_rows,
            ds,
            diag_rows,
            group_a,
            group_b,
            arc_b,
            u_max: None,
            pinned: Vec::new(),
            vacuous: Vec::new(),
        };
        slq.detect_pins();
        Ok(slq)
    }

    /// Adds the box bound `|u_{k,e}| ≤ u_max` on every input of every
    /// stage (a reconfiguration rate limit). Each bound is a pair of input
    /// rows whose barrier weight lands on its arc's chain term, so the
    /// condensed KKT system keeps its shape.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] unless `u_max` is positive and
    /// finite.
    pub fn with_input_bound(mut self, u_max: f64) -> Result<Self, SolverError> {
        if !(u_max.is_finite() && u_max > 0.0) {
            return Err(SolverError::InvalidProblem(format!(
                "input bound must be positive and finite, got {u_max}"
            )));
        }
        self.u_max = Some(u_max);
        Ok(self)
    }

    /// Finds the slots where a coupling row forces its arcs to zero: all
    /// coefficients positive, right-hand side exactly zero, and every arc
    /// held non-negative by a single-arc row `coeff·x ≤ 0` with
    /// `coeff < 0`. Such a row (a data center with no capacity in that
    /// period) has an empty interior, so its arcs are pinned and every row
    /// the pin satisfies identically — the row itself, the pinned arcs'
    /// single-arc rows, and coupling rows left with no free arc — becomes
    /// vacuous for the slot.
    pub(crate) fn detect_pins(&mut self) {
        let (n, w) = (self.n, self.w);
        let mut nonneg = vec![Vec::new(); n];
        for dr in &self.diag_rows {
            if dr.coeff < 0.0 {
                nonneg[dr.arc].push(dr.row);
            }
        }
        let mut pinned = vec![false; n * w];
        self.vacuous = vec![vec![false; self.m_rows]; w];
        for k in 0..w {
            let d = &self.ds[k];
            let vacuous = &mut self.vacuous[k];
            for c in self.group_a.iter().chain(&self.group_b) {
                let pins = d[c.row] == 0.0
                    && c.entries.iter().all(|&(e, coeff)| {
                        coeff > 0.0 && nonneg[e].iter().any(|&row| d[row] == 0.0)
                    });
                if pins {
                    vacuous[c.row] = true;
                    for &(e, _) in &c.entries {
                        pinned[e * w + k] = true;
                    }
                }
            }
            for dr in &self.diag_rows {
                if pinned[dr.arc * w + k] && d[dr.row] >= 0.0 {
                    vacuous[dr.row] = true;
                }
            }
            for c in self.group_a.iter().chain(&self.group_b) {
                if d[c.row] >= 0.0 && c.entries.iter().all(|&(e, _)| pinned[e * w + k]) {
                    vacuous[c.row] = true;
                }
            }
        }
        self.pinned = pinned;
    }

    /// The `(slot, arc)` pairs pinned to zero by a zero-capacity coupling
    /// row (slot `k ∈ 1..=W` constrains `x_k`), in arc-major order.
    pub fn pins(&self) -> Vec<(usize, usize)> {
        (0..self.pinned.len())
            .filter(|&i| self.pinned[i])
            .map(|i| (i % self.w + 1, i / self.w))
            .collect()
    }

    /// The fixed initial state `x_0`.
    pub fn x0(&self) -> &Vector {
        &self.x0
    }

    /// Linear state cost of slot `k ∈ 0..=W`; slot 0's multiplies the
    /// fixed `x_0`, a constant in the objective.
    ///
    /// # Panics
    ///
    /// Panics if `k > W`.
    pub fn state_cost(&self, k: usize) -> &Vector {
        if k == 0 {
            &self.q0
        } else {
            &self.qs[k - 1]
        }
    }

    /// Input cost Hessian diagonal `R_k` of stage `k ∈ 0..W`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ W`.
    pub fn input_cost_diag(&self, k: usize) -> &Vector {
        &self.r_diags[k]
    }

    /// Linear input cost of stage `k ∈ 0..W`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ W`.
    pub fn input_cost_linear(&self, k: usize) -> &Vector {
        &self.r_vecs[k]
    }

    /// Constraint right-hand side of slot `k ∈ 1..=W`, in row order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ W`.
    pub fn rhs(&self, k: usize) -> &Vector {
        &self.ds[k - 1]
    }

    /// The single-arc rows.
    pub fn diag_rows(&self) -> &[DiagRow] {
        &self.diag_rows
    }

    /// The first coupling group (demand rows in DSPP).
    pub fn group_a(&self) -> &[CouplingRow] {
        &self.group_a
    }

    /// The second coupling group (capacity rows in DSPP).
    pub fn group_b(&self) -> &[CouplingRow] {
        &self.group_b
    }

    /// The box bound `u_max` on every input, if any
    /// ([`StructuredLq::with_input_bound`]).
    pub fn input_bound(&self) -> Option<f64> {
        self.u_max
    }

    /// Arc count (state and input dimension).
    pub fn state_dim(&self) -> usize {
        self.n
    }

    /// Horizon `W`.
    pub fn horizon(&self) -> usize {
        self.w
    }

    /// Constraint rows per constrained slot.
    pub fn num_rows(&self) -> usize {
        self.m_rows
    }

    /// Constraint left-hand side `C x` for one slot, written into `out`
    /// (length at least `m_rows`; only the first `m_rows` entries are
    /// written).
    pub(crate) fn row_lhs_into(&self, x: &Vector, out: &mut Vector) {
        for dr in &self.diag_rows {
            out[dr.row] = dr.coeff * x[dr.arc];
        }
        for c in self.group_a.iter().chain(&self.group_b) {
            let mut acc = 0.0;
            for &(e, coeff) in &c.entries {
                acc += coeff * x[e];
            }
            out[c.row] = acc;
        }
    }

    /// Constraint-transpose accumulation `out += Cᵀ t` for one slot (reads
    /// the first `m_rows` entries of `t`).
    pub(crate) fn row_t_acc(&self, t: &Vector, out: &mut Vector) {
        for dr in &self.diag_rows {
            out[dr.arc] += dr.coeff * t[dr.row];
        }
        for c in self.group_a.iter().chain(&self.group_b) {
            let tr = t[c.row];
            for &(e, coeff) in &c.entries {
                out[e] += coeff * tr;
            }
        }
    }

    /// Objective of a trajectory, matching the dense expansion's.
    #[allow(clippy::needless_range_loop)] // `k` is a stage index, offset by one
    pub(crate) fn objective(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        let mut j = self.q0.dot(&xs[0]);
        for k in 1..=self.w {
            j += self.qs[k - 1].dot(&xs[k]);
        }
        for k in 0..self.w {
            let u = &us[k];
            let r = &self.r_diags[k];
            for e in 0..self.n {
                j += 0.5 * r[e] * u[e] * u[e];
            }
            j += self.r_vecs[k].dot(u);
        }
        j
    }

    /// Problem scale for the stopping test, matching the dense path.
    pub(crate) fn scale(&self) -> f64 {
        let mut scale: f64 = 1.0;
        scale = scale.max(self.q0.norm_inf());
        for q in &self.qs {
            scale = scale.max(q.norm_inf());
        }
        for r in &self.r_vecs {
            scale = scale.max(r.norm_inf());
        }
        for d in &self.ds {
            scale = scale.max(d.norm_inf());
        }
        scale.max(self.u_max.unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_linalg::Matrix;

    /// Two DCs × two locations, every arc usable: 4 arcs, 2 demand rows
    /// (group A), 2 capacity rows (group B), 4 non-negativity diag rows.
    fn dspp_like(w: usize) -> StructuredLq {
        let n = 4; // arcs: (dc0,v0) (dc0,v1) (dc1,v0) (dc1,v1)
        let m_rows = 2 + 2 + n;
        let diag_rows = (0..n)
            .map(|e| DiagRow {
                row: 4 + e,
                arc: e,
                coeff: -1.0,
            })
            .collect();
        let group_a = vec![
            CouplingRow {
                row: 0,
                entries: vec![(0, -1.0), (2, -1.2)],
            },
            CouplingRow {
                row: 1,
                entries: vec![(1, -0.8), (3, -1.0)],
            },
        ];
        let group_b = vec![
            CouplingRow {
                row: 2,
                entries: vec![(0, 1.0), (1, 1.0)],
            },
            CouplingRow {
                row: 3,
                entries: vec![(2, 1.0), (3, 1.0)],
            },
        ];
        let mut d = Vector::zeros(m_rows);
        d[0] = -5.0;
        d[1] = -3.0;
        d[2] = 40.0;
        d[3] = 40.0;
        StructuredLq::new(
            Vector::zeros(n),
            Vector::zeros(n),
            vec![Vector::from(vec![1.0, 2.0, 3.0, 1.5]); w],
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

    /// `A x`.
    fn matvec(a: &Matrix, x: &Vector) -> Vector {
        (0..a.rows())
            .map(|i| a.row(i).iter().zip(x.iter()).map(|(a, x)| a * x).sum())
            .collect()
    }

    /// `Aᵀ x`.
    fn matvec_t(a: &Matrix, x: &Vector) -> Vector {
        (0..a.cols())
            .map(|j| (0..a.rows()).map(|i| a[(i, j)] * x[i]).sum())
            .collect()
    }

    /// The slot constraint matrix `C`, written out densely.
    fn dense_rows(slq: &StructuredLq) -> Matrix {
        let mut cx = Matrix::zeros(slq.m_rows, slq.n);
        for dr in &slq.diag_rows {
            cx[(dr.row, dr.arc)] = dr.coeff;
        }
        for c in slq.group_a.iter().chain(&slq.group_b) {
            for &(e, coeff) in &c.entries {
                cx[(c.row, e)] = coeff;
            }
        }
        cx
    }

    #[test]
    fn row_products_match_dense_matrices() {
        let slq = dspp_like(2);
        let cx = dense_rows(&slq);
        assert_eq!(cx[(0, 2)], -1.2);
        assert_eq!(cx[(3, 3)], 1.0);
        let x: Vector = (0..4).map(|e| e as f64 * 0.7 - 1.0).collect();
        let mut lhs = Vector::zeros(slq.num_rows());
        slq.row_lhs_into(&x, &mut lhs);
        let want = matvec(&cx, &x);
        assert!((&lhs - &want).norm_inf() < 1e-15);
        let t: Vector = (0..slq.num_rows()).map(|i| i as f64 * 0.3 - 1.1).collect();
        let mut acc = Vector::zeros(4);
        slq.row_t_acc(&t, &mut acc);
        let want_t = matvec_t(&cx, &t);
        assert!((&acc - &want_t).norm_inf() < 1e-15);
    }

    #[test]
    fn objective_matches_dense() {
        let slq = dspp_like(3);
        let us: Vec<Vector> = (0..3)
            .map(|k| (0..4).map(|e| (k + e) as f64 * 0.4 - 0.5).collect())
            .collect();
        // Identity dynamics from x_0, dense stage costs
        // `qᵀx + ½uᵀRu + rᵀu` and the terminal cost `qᵀx_W`.
        let mut xs = vec![slq.x0.clone()];
        for u in &us {
            xs.push(xs.last().unwrap() + u);
        }
        let mut want = 0.0;
        for k in 0..3 {
            let ru: Vector = slq.r_diags[k]
                .iter()
                .zip(&us[k])
                .map(|(r, u)| r * u)
                .collect();
            want +=
                slq.state_cost(k).dot(&xs[k]) + 0.5 * us[k].dot(&ru) + slq.r_vecs[k].dot(&us[k]);
        }
        want += slq.state_cost(3).dot(&xs[3]);
        assert!((slq.objective(&xs, &us) - want).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_pins_the_data_centers_arcs() {
        let mut slq = dspp_like(3);
        // DC 1 (row 3, arcs 2 and 3) is dark in slot 2 only.
        slq.ds[1][3] = 0.0;
        slq.detect_pins();
        assert_eq!(slq.pins(), vec![(2, 2), (2, 3)]);
        assert!(slq.vacuous[1][3], "the dead capacity row leaves the slot");
        assert!(slq.vacuous[1][4 + 2] && slq.vacuous[1][4 + 3]);
        assert!(!slq.vacuous[1][4], "live arcs keep their rows");
        // Demand rows keep a live arc each, so they stay.
        assert!(!slq.vacuous[1][0] && !slq.vacuous[1][1]);
        assert!(slq.vacuous[0].iter().all(|v| !v));
        // A location left with no live arc and no demand is vacuous too.
        slq.ds[1][2] = 0.0;
        slq.ds[1][1] = 0.0;
        slq.detect_pins();
        assert_eq!(slq.pins().len(), 4);
        assert!(
            slq.vacuous[1][1],
            "demand row with no live arc and zero demand"
        );
        assert!(
            !slq.vacuous[1][0],
            "positive demand stays (infeasible or soft)"
        );
    }

    #[test]
    fn constructor_rejects_malformed_input() {
        let ok = dspp_like(2);
        // Overlapping supports within one group.
        let mut group_a = ok.group_a.clone();
        group_a[1].entries[0].0 = 0; // arc 0 already in row 0's support
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            ok.r_diags.clone(),
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows.clone(),
            group_a,
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
        // Unclassified row.
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            ok.r_diags.clone(),
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows[1..].to_vec(),
            ok.group_a.clone(),
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
        // Non-positive input cost.
        assert!(StructuredLq::new(
            ok.x0.clone(),
            ok.q0.clone(),
            ok.qs.clone(),
            vec![Vector::zeros(4); 2],
            ok.r_vecs.clone(),
            ok.ds.clone(),
            ok.diag_rows.clone(),
            ok.group_a.clone(),
            ok.group_b.clone(),
            ok.m_rows,
        )
        .is_err());
    }
}

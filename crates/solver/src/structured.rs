//! Compact representation of the horizon-truncated DSPP.
//!
//! The placement problem over a horizon is almost entirely structure:
//! identity dynamics `x⁺ = x + u` over the per-(l,v) arc states, linear
//! hosting prices, a diagonal quadratic reconfiguration cost shared by
//! every stage, and per-period constraint rows of three kinds — demand
//! rows summing over a location's arcs, capacity rows summing over a data
//! center's arcs, and one non-negativity row per arc. A dense
//! stage-structured expansion stores the identity `A`/`B` and the
//! mostly-zero constraint matrix explicitly — `O(n²)` per stage — which
//! caps a dense solver at a few hundred arcs. [`StructuredLq`] stores
//! exactly the nonzero data: `O(n + rows)` per stage, so 100 DCs × 1000
//! locations fits in a few megabytes.
//!
//! A solve may soften the leading (demand) rows of every slot into the
//! always-feasible recovery relaxation
//! ([`solve_structured_relaxed_traced`](crate::solve_structured_relaxed_traced)).
//! Slots where a coupling row with positive coefficients has a zero
//! right-hand side (a dead data center) pin its arcs to zero for the slot;
//! the rows the pin makes vacuous leave the interior-point iteration
//! instead of degenerating it.
//!
//! The read-only accessors expose the compact data, so the `dspp-oracle`
//! test crate can expand a problem into the equivalent dense one that the
//! test suites and the solver-scaling sweep cross-check against. The
//! interior-point loop that consumes this type lives in the `skkt` module.

use crate::SolverError;
use dspp_linalg::Vector;

/// An aggregate coupling row `Σ_e coeff_e · x_e ≤ d_row` over several arcs
/// (a demand row over one location's arcs, or a capacity row over one data
/// center's arcs).
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingRow {
    /// `(arc, coefficient)` pairs; arcs are distinct within a row.
    pub entries: Vec<(usize, f64)>,
}

/// A DSPP horizon problem in compact form; see the module docs.
///
/// ```text
/// min Σ_{k=1..W} pₖᵀxₖ + Σ_{k=0..W−1} ½ uₖᵀ diag(r) uₖ
/// s.t. xₖ₊₁ = xₖ + uₖ,   and on every slot k = 1..=W:
///      demand rows, then capacity rows:  C xₖ ≤ dₖ
///      non-negativity, one row per arc:  −xₖ ≤ 0
/// ```
///
/// Slots `1..=W` (stages `1..W-1` plus the terminal) each carry the same
/// rows — the same sparsity *and* coefficients, with only the right-hand
/// sides varying per slot. Within each group of coupling rows the supports
/// are disjoint (demand rows partition arcs by location; capacity rows by
/// data center). That two-group "arrow" structure is what the structured
/// KKT factorization eliminates in two levels. A slot's row `i` is the
/// `i`-th demand row for `i < #demand`, then the capacity rows, then arc
/// `e`'s non-negativity row at `#demand + #capacity + e`; duals and
/// infeasibility certificates use that order.
#[derive(Debug, Clone)]
pub struct StructuredLq {
    /// Arc count `n` (state and input dimension).
    pub(crate) n: usize,
    /// Horizon `W` (stage count; slots `1..=W` are constrained).
    pub(crate) w: usize,
    /// Initial state.
    pub(crate) x0: Vector,
    /// Hosting prices per slot `k = 1..=W` (index `k-1`).
    pub(crate) qs: Vec<Vector>,
    /// Reconfiguration Hessian diagonal `R`, the same at every stage.
    pub(crate) r_diag: Vector,
    /// Right-hand sides of the demand and capacity rows per slot
    /// `k = 1..=W` (index `k-1`); non-negativity rows have a zero one.
    pub(crate) ds: Vec<Vector>,
    /// Demand rows (disjoint supports).
    pub(crate) demand: Vec<CouplingRow>,
    /// Capacity rows (disjoint supports).
    pub(crate) capacity: Vec<CouplingRow>,
    /// Arc `e` → index into `capacity` of the row containing it (or
    /// [`NO_ROW`]), plus that row's coefficient on `e`; the structured
    /// factorization uses it to find the capacity row each arc feeds.
    pub(crate) arc_b: Vec<(usize, f64)>,
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
    /// Builds a problem from the DSPP's parts: the initial state `x0`, the
    /// hosting prices of each slot `1..=W`, the reconfiguration diagonal
    /// `R` used at every stage, the demand and capacity rows, and their
    /// right-hand sides per slot (demand rows first).
    ///
    /// Shapes: `x0`, every entry of `prices` and `reconfiguration` have
    /// length `n`; `prices` and `rhs` have one entry per slot; every
    /// `rhs[k]` has one entry per demand and capacity row. Each group's
    /// rows must have pairwise-disjoint arc supports. A coupling row may be
    /// empty (a data center no location can reach): `0 ≤ d` is vacuous for
    /// `d ≥ 0`.
    ///
    /// # Errors
    ///
    /// [`SolverError::InvalidProblem`] describing the first violated
    /// requirement.
    pub fn new(
        x0: Vector,
        prices: Vec<Vector>,
        reconfiguration: Vector,
        demand: Vec<CouplingRow>,
        capacity: Vec<CouplingRow>,
        rhs: Vec<Vector>,
    ) -> Result<Self, SolverError> {
        let bad = |msg: String| Err(SolverError::InvalidProblem(msg));
        let n = x0.len();
        let w = prices.len();
        if n == 0 {
            return bad("structured problem needs at least one arc".into());
        }
        if w == 0 {
            return bad("structured problem needs a positive horizon".into());
        }
        if rhs.len() != w {
            return bad(format!(
                "per-slot series disagree: prices {w}, rhs {}",
                rhs.len()
            ));
        }
        if !x0.is_finite() {
            return bad("x0 must be finite".into());
        }
        for (k, p) in prices.iter().enumerate() {
            if p.len() != n || !p.is_finite() {
                return bad(format!(
                    "slot {}: prices must be finite with length {n}",
                    k + 1
                ));
            }
        }
        if reconfiguration.len() != n
            || reconfiguration.iter().any(|&v| !(v.is_finite() && v > 0.0))
        {
            return bad(format!(
                "reconfiguration diagonal must be positive with length {n}"
            ));
        }
        let rows = demand.len() + capacity.len();
        for (k, d) in rhs.iter().enumerate() {
            if d.len() != rows {
                return bad(format!(
                    "slot {}: rhs has {} rows, expected {rows}",
                    k + 1,
                    d.len()
                ));
            }
            if !d.is_finite() {
                return bad(format!("slot {}: non-finite rhs", k + 1));
            }
        }
        let mut arc_a = vec![(NO_ROW, 0.0); n];
        let mut arc_b = vec![(NO_ROW, 0.0); n];
        for (group, map, name) in [
            (&demand, &mut arc_a, "demand"),
            (&capacity, &mut arc_b, "capacity"),
        ] {
            for (gi, c) in group.iter().enumerate() {
                for &(e, coeff) in &c.entries {
                    if e >= n || !coeff.is_finite() || coeff == 0.0 {
                        return bad(format!("{name} row {gi} has an invalid entry"));
                    }
                    if map[e].0 != NO_ROW {
                        return bad(format!(
                            "{name} rows: arc {e} appears in two rows — supports must be disjoint"
                        ));
                    }
                    map[e] = (gi, coeff);
                }
            }
        }
        let mut slq = StructuredLq {
            n,
            w,
            x0,
            qs: prices,
            r_diag: reconfiguration,
            ds: rhs,
            demand,
            capacity,
            arc_b,
            pinned: Vec::new(),
            vacuous: Vec::new(),
        };
        slq.detect_pins();
        Ok(slq)
    }

    /// Slot row of capacity row `j`.
    pub(crate) fn capacity_row(&self, j: usize) -> usize {
        self.demand.len() + j
    }

    /// Slot row of arc `e`'s non-negativity row.
    pub(crate) fn nonneg_row(&self, e: usize) -> usize {
        self.demand.len() + self.capacity.len() + e
    }

    /// The demand rows, then the capacity rows, each with its slot row.
    fn coupling_rows(&self) -> impl Iterator<Item = (usize, &CouplingRow)> {
        self.demand.iter().chain(&self.capacity).enumerate()
    }

    /// Finds the slots where a coupling row forces its arcs to zero: all
    /// coefficients positive and right-hand side exactly zero over
    /// non-negative arcs. Such a row (a data center with no capacity in
    /// that period) has an empty interior, so its arcs are pinned and
    /// every row the pin satisfies identically — the row itself, the
    /// pinned arcs' non-negativity rows, and coupling rows left with no
    /// free arc — becomes vacuous for the slot.
    pub(crate) fn detect_pins(&mut self) {
        let (n, w) = (self.n, self.w);
        let mut pinned = vec![false; n * w];
        self.vacuous = vec![vec![false; self.num_rows()]; w];
        for k in 0..w {
            let d = &self.ds[k];
            let mut vacuous = std::mem::take(&mut self.vacuous[k]);
            for (i, c) in self.coupling_rows() {
                if d[i] == 0.0 && c.entries.iter().all(|&(_, coeff)| coeff > 0.0) {
                    vacuous[i] = true;
                    for &(e, _) in &c.entries {
                        pinned[e * w + k] = true;
                    }
                }
            }
            for e in 0..n {
                if pinned[e * w + k] {
                    vacuous[self.nonneg_row(e)] = true;
                }
            }
            for (i, c) in self.coupling_rows() {
                if d[i] >= 0.0 && c.entries.iter().all(|&(e, _)| pinned[e * w + k]) {
                    vacuous[i] = true;
                }
            }
            self.vacuous[k] = vacuous;
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

    /// Hosting prices of slot `k ∈ 1..=W`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ W`.
    pub fn prices(&self, k: usize) -> &Vector {
        &self.qs[k - 1]
    }

    /// The reconfiguration Hessian diagonal `R`, the same at every stage.
    pub fn reconfiguration(&self) -> &Vector {
        &self.r_diag
    }

    /// Right-hand side of slot `k ∈ 1..=W`'s demand and capacity rows, in
    /// row order (the non-negativity rows' is zero).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ W`.
    pub fn rhs(&self, k: usize) -> &Vector {
        &self.ds[k - 1]
    }

    /// The demand rows.
    pub fn demand_rows(&self) -> &[CouplingRow] {
        &self.demand
    }

    /// The capacity rows.
    pub fn capacity_rows(&self) -> &[CouplingRow] {
        &self.capacity
    }

    /// Arc count (state and input dimension).
    pub fn state_dim(&self) -> usize {
        self.n
    }

    /// Horizon `W`.
    pub fn horizon(&self) -> usize {
        self.w
    }

    /// Constraint rows per constrained slot: demand, capacity, and one
    /// non-negativity row per arc.
    pub fn num_rows(&self) -> usize {
        self.nonneg_row(self.n)
    }

    /// Constraint left-hand side `C x` for one slot, written into `out`
    /// (length at least [`StructuredLq::num_rows`]; only the first
    /// `num_rows` entries are written).
    pub(crate) fn row_lhs_into(&self, x: &Vector, out: &mut Vector) {
        let (coupling, nonneg) =
            out.as_mut_slice()[..self.num_rows()].split_at_mut(self.nonneg_row(0));
        for (o, &xe) in nonneg.iter_mut().zip(&x.as_slice()[..self.n]) {
            *o = -xe;
        }
        for (o, (_, c)) in coupling.iter_mut().zip(self.coupling_rows()) {
            let mut acc = 0.0;
            for &(e, coeff) in &c.entries {
                acc += coeff * x[e];
            }
            *o = acc;
        }
    }

    /// Constraint-transpose accumulation `out += Cᵀ t` for one slot (reads
    /// the first [`StructuredLq::num_rows`] entries of `t`):
    /// non-negativity rows, then demand, then capacity.
    pub(crate) fn row_t_acc(&self, t: &Vector, out: &mut Vector) {
        let (coupling, nonneg) = t.as_slice()[..self.num_rows()].split_at(self.nonneg_row(0));
        for (o, &te) in out.as_mut_slice()[..self.n].iter_mut().zip(nonneg) {
            *o -= te;
        }
        for (&tr, (_, c)) in coupling.iter().zip(self.coupling_rows()) {
            for &(e, coeff) in &c.entries {
                out[e] += coeff * tr;
            }
        }
    }

    /// Objective of a trajectory, matching the dense expansion's.
    pub(crate) fn objective(&self, xs: &[Vector], us: &[Vector]) -> f64 {
        let mut j = 0.0;
        for (q, x) in self.qs.iter().zip(&xs[1..]) {
            j += q.dot(x);
        }
        for u in &us[..self.w] {
            for (&r, &u) in self.r_diag.iter().zip(&u.as_slice()[..self.n]) {
                j += 0.5 * r * u * u;
            }
        }
        j
    }

    /// The largest hosting price of the horizon, `max_k ‖q_k‖∞`: the unit
    /// of its duals.
    pub(crate) fn price_scale(&self) -> f64 {
        self.qs.iter().map(Vector::norm_inf).fold(0.0, f64::max)
    }

    /// Problem scale for the stopping test, matching the dense path.
    pub(crate) fn scale(&self) -> f64 {
        let mut scale = self.price_scale().max(1.0);
        for d in &self.ds {
            scale = scale.max(d.norm_inf());
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_linalg::Matrix;

    /// Two DCs × two locations, every arc usable: 4 arcs, 2 demand rows,
    /// 2 capacity rows, 4 implicit non-negativity rows.
    fn dspp_like(w: usize) -> StructuredLq {
        let n = 4; // arcs: (dc0,v0) (dc0,v1) (dc1,v0) (dc1,v1)
        let demand = vec![
            CouplingRow {
                entries: vec![(0, -1.0), (2, -1.2)],
            },
            CouplingRow {
                entries: vec![(1, -0.8), (3, -1.0)],
            },
        ];
        let capacity = vec![
            CouplingRow {
                entries: vec![(0, 1.0), (1, 1.0)],
            },
            CouplingRow {
                entries: vec![(2, 1.0), (3, 1.0)],
            },
        ];
        let d = Vector::from(vec![-5.0, -3.0, 40.0, 40.0]);
        StructuredLq::new(
            Vector::zeros(n),
            vec![Vector::from(vec![1.0, 2.0, 3.0, 1.5]); w],
            Vector::filled(n, 0.2),
            demand,
            capacity,
            vec![d; w],
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
        let mut cx = Matrix::zeros(slq.num_rows(), slq.n);
        for e in 0..slq.n {
            cx[(slq.nonneg_row(e), e)] = -1.0;
        }
        for (i, c) in slq.coupling_rows() {
            for &(e, coeff) in &c.entries {
                cx[(i, e)] = coeff;
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
        assert_eq!(cx[(4 + 2, 2)], -1.0);
        let x: Vector = (0..4).map(|e| e as f64 * 0.7 - 1.0).collect();
        let mut lhs = Vector::zeros(slq.num_rows());
        slq.row_lhs_into(&x, &mut lhs);
        let want = matvec(&cx, &x);
        for i in 0..slq.num_rows() {
            assert!((lhs[i] - want[i]).abs() < 1e-15);
        }
        let t: Vector = (0..slq.num_rows()).map(|i| i as f64 * 0.3 - 1.1).collect();
        let mut acc = Vector::zeros(4);
        slq.row_t_acc(&t, &mut acc);
        let want_t = matvec_t(&cx, &t);
        for e in 0..4 {
            assert!((acc[e] - want_t[e]).abs() < 1e-15);
        }
    }

    #[test]
    fn objective_matches_dense() {
        let slq = dspp_like(3);
        let us: Vec<Vector> = (0..3)
            .map(|k| (0..4).map(|e| (k + e) as f64 * 0.4 - 0.5).collect())
            .collect();
        // Identity dynamics from x_0, dense stage costs `½uᵀRu` and the
        // hosting cost `pᵀx` of every slot.
        let mut xs = vec![slq.x0.clone()];
        for u in &us {
            let mut x = xs.last().unwrap().clone();
            x.axpy(1.0, u);
            xs.push(x);
        }
        let mut want = 0.0;
        for k in 0..3 {
            let ru: Vector = slq.r_diag.iter().zip(&us[k]).map(|(r, u)| r * u).collect();
            want += slq.prices(k + 1).dot(&xs[k + 1]) + 0.5 * us[k].dot(&ru);
        }
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
        let rebuild = |demand: Vec<CouplingRow>, r: Vector, rhs: Vec<Vector>| {
            StructuredLq::new(
                ok.x0.clone(),
                ok.qs.clone(),
                r,
                demand,
                ok.capacity.clone(),
                rhs,
            )
        };
        assert!(rebuild(ok.demand.clone(), ok.r_diag.clone(), ok.ds.clone()).is_ok());
        // Overlapping supports within one group.
        let mut demand = ok.demand.clone();
        demand[1].entries[0].0 = 0; // arc 0 already in row 0's support
        assert!(rebuild(demand, ok.r_diag.clone(), ok.ds.clone()).is_err());
        // A right-hand side of the wrong length.
        let short = vec![Vector::from(vec![-5.0, -3.0, 40.0]); 2];
        assert!(rebuild(ok.demand.clone(), ok.r_diag.clone(), short).is_err());
        // Non-positive reconfiguration cost.
        assert!(rebuild(ok.demand.clone(), Vector::zeros(4), ok.ds.clone()).is_err());
    }
}

//! Preflight feasibility analysis for stage-structured DSPP problems.
//!
//! Solving an infeasible horizon QP wastes a full interior-point run just
//! to learn that no placement exists. The preflight implemented here costs
//! one pass over the sparse constraint rows — `O(nnz + W·rows)` — and
//! certifies the cheapest necessary condition: per period, the SLA-scaled
//! aggregate demand `Σ_v D_k^v · min_l (a^{lv} · s)` cannot exceed the total
//! capacity `Σ_l C^l`. The bound ignores how demand splits across data
//! centers, so a clean report does not *guarantee* feasibility — but any
//! reported deficit is a true lower bound on the SLA shortfall that every
//! relaxation (see [`crate::solve_structured_relaxed_traced`]) must incur,
//! which is exactly the contract the recovery solve and its tests rely on.
//!
//! The preflight reads the [`StructuredLq`] row convention used by the
//! core crate's horizon builder, described to it by an [`LqRowLayout`]:
//! each constrained slot leads with the demand rows
//! (`-Σ_e x_e/a_e ≤ -D_v`), followed by the capacity rows
//! (`Σ_e s·x_e ≤ C_l`); any further rows (non-negativity) are ignored by
//! the aggregate check.

use crate::{SolverError, StructuredLq};

/// Describes which leading constraint rows of each constrained stage are
/// demand rows and which are capacity rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LqRowLayout {
    /// Number of leading demand rows (`-Σ_e x_e/a_e ≤ -D_v`) per
    /// constrained slot.
    pub demand_rows: usize,
    /// Number of capacity rows (`Σ_e s·x_e ≤ C_l`) following the demand
    /// rows.
    pub capacity_rows: usize,
}

/// Aggregate demand-versus-capacity balance of one period (stage slot).
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodFeasibility {
    /// Stage slot index within the horizon (the terminal slot is the
    /// horizon length).
    pub period: usize,
    /// Minimum aggregate resource the period's demand requires,
    /// `Σ_v D_v · min_e(resource per served demand unit via arc e)`.
    pub required: f64,
    /// Total capacity across the period's capacity rows, `Σ_l C^l`.
    pub available: f64,
    /// Aggregate capacity deficit `max(0, required − available)`; zero for
    /// a period that passes the check, infinite when a positive demand has
    /// no serving arc at all.
    pub deficit: f64,
}

/// Result of the aggregate preflight over a whole horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityReport {
    /// One entry per constrained stage slot, in horizon order.
    pub periods: Vec<PeriodFeasibility>,
}

impl FeasibilityReport {
    /// `true` when no period shows an aggregate deficit. A `true` report
    /// is necessary but not sufficient for feasibility of the full QP.
    pub fn is_feasible(&self) -> bool {
        self.periods.iter().all(|p| p.deficit <= 0.0)
    }

    /// The period with the largest deficit, if any period has one.
    pub fn worst(&self) -> Option<&PeriodFeasibility> {
        self.periods
            .iter()
            .filter(|p| p.deficit > 0.0)
            .max_by(|a, b| a.deficit.total_cmp(&b.deficit))
    }

    /// The first period (in horizon order) with a positive deficit.
    pub fn first_infeasible(&self) -> Option<&PeriodFeasibility> {
        self.periods.iter().find(|p| p.deficit > 0.0)
    }

    /// Sum of all per-period deficits.
    pub fn total_deficit(&self) -> f64 {
        self.periods.iter().map(|p| p.deficit).sum()
    }

    /// Per-period deficits in horizon order.
    pub fn deficits(&self) -> Vec<f64> {
        self.periods.iter().map(|p| p.deficit).collect()
    }
}

/// Runs the aggregate preflight on `slq` under the row convention
/// `layout`.
///
/// For every constrained slot `1..=W` the check computes, per demand row
/// `v`, the cheapest resource cost of serving one demand unit over the arcs
/// that can serve it — the capacity-row coefficient of arc `e` divided by
/// its demand-row rate `1/a_e` — and compares the summed requirement
/// against the summed capacity right-hand sides.
///
/// # Errors
///
/// Returns [`SolverError::InvalidProblem`] when the slots have fewer rows
/// than the layout promises (the horizon builder never produces that, so a
/// failure here means the problem was assembled by hand and is malformed).
pub fn preflight_structured(
    slq: &StructuredLq,
    layout: &LqRowLayout,
) -> Result<FeasibilityReport, SolverError> {
    let nv = layout.demand_rows;
    let nl = layout.capacity_rows;
    if slq.m_rows < nv + nl {
        return Err(SolverError::InvalidProblem(format!(
            "feasibility preflight: slots have {} constraint rows, \
             fewer than the declared {} demand+capacity rows",
            slq.m_rows,
            nv + nl
        )));
    }
    // Sparse row view: the (arc, coefficient) entries of every row.
    let mut entries: Vec<Vec<(usize, f64)>> = vec![Vec::new(); slq.m_rows];
    for dr in &slq.diag_rows {
        entries[dr.row].push((dr.arc, dr.coeff));
    }
    for c in slq.group_a.iter().chain(&slq.group_b) {
        entries[c.row].extend_from_slice(&c.entries);
    }
    // Resource an arc consumes per server, summed over the capacity rows.
    let mut resource = vec![0.0f64; slq.n];
    for row in &entries[nv..nv + nl] {
        for &(e, coeff) in row {
            resource[e] += coeff.max(0.0);
        }
    }
    // Cheapest resource cost per served demand unit, per demand row.
    let cheapest: Vec<Option<f64>> = entries[..nv]
        .iter()
        .map(|row| {
            row.iter()
                .filter(|&&(_, coeff)| -coeff > 0.0)
                .map(|&(e, coeff)| resource[e] / -coeff)
                .reduce(f64::min)
        })
        .collect();
    let periods = (1..=slq.w)
        .map(|slot| {
            let d = &slq.ds[slot - 1];
            let mut required = 0.0f64;
            for (v, best) in cheapest.iter().enumerate() {
                let demand = -d[v];
                if demand <= 0.0 {
                    continue;
                }
                match best {
                    Some(cost) => required += demand * cost,
                    // Positive demand with no serving arc: structurally
                    // unservable, regardless of capacity.
                    None => required = f64::INFINITY,
                }
            }
            let available: f64 = (0..nl).map(|l| d[nv + l]).sum();
            PeriodFeasibility {
                period: slot,
                required,
                available,
                deficit: (required - available).max(0.0),
            }
        })
        .collect();
    Ok(FeasibilityReport { periods })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CouplingRow, DiagRow};
    use dspp_linalg::Vector;

    /// One DC (capacity `cap`), one location, arc coefficient `a`,
    /// server size 1: demand row `-x/a ≤ -demand`, capacity row `x ≤ cap`,
    /// non-negativity `-x ≤ 0`, one slot per entry of `demands`.
    fn one_arc_problem(a: f64, cap: f64, demands: &[f64]) -> StructuredLq {
        let w = demands.len();
        StructuredLq::new(
            Vector::zeros(1),
            Vector::zeros(1),
            vec![Vector::filled(1, 1.0); w],
            vec![Vector::filled(1, 0.2); w],
            vec![Vector::zeros(1); w],
            demands
                .iter()
                .map(|&dem| Vector::from(vec![-dem, cap, 0.0]))
                .collect(),
            vec![DiagRow {
                row: 2,
                arc: 0,
                coeff: -1.0,
            }],
            vec![CouplingRow {
                row: 0,
                entries: vec![(0, -1.0 / a)],
            }],
            vec![CouplingRow {
                row: 1,
                entries: vec![(0, 1.0)],
            }],
            3,
        )
        .unwrap()
    }

    fn layout() -> LqRowLayout {
        LqRowLayout {
            demand_rows: 1,
            capacity_rows: 1,
        }
    }

    #[test]
    fn feasible_horizon_reports_zero_deficit() {
        let p = one_arc_problem(0.5, 10.0, &[8.0, 12.0, 16.0]);
        let report = preflight_structured(&p, &layout()).unwrap();
        assert!(report.is_feasible());
        assert_eq!(report.periods.len(), 3);
        // Period 1 needs 0.5 · 8 = 4 servers of 10.
        assert!((report.periods[0].required - 4.0).abs() < 1e-12);
        assert!((report.periods[0].available - 10.0).abs() < 1e-12);
        assert_eq!(report.worst(), None);
        assert_eq!(report.total_deficit(), 0.0);
    }

    #[test]
    fn overload_reports_exact_deficit() {
        // Demand 30 at a = 0.5 needs 15 servers; only 10 exist.
        let p = one_arc_problem(0.5, 10.0, &[8.0, 30.0, 8.0]);
        let report = preflight_structured(&p, &layout()).unwrap();
        assert!(!report.is_feasible());
        let worst = report.worst().unwrap();
        assert_eq!(worst.period, 2);
        assert!((worst.deficit - 5.0).abs() < 1e-12);
        assert_eq!(report.first_infeasible().unwrap().period, 2);
        assert!((report.total_deficit() - 5.0).abs() < 1e-12);
        assert_eq!(report.deficits(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn unservable_demand_is_an_infinite_deficit() {
        // The demand row's only arc cannot serve it (wrong-signed rate).
        let mut p = one_arc_problem(0.5, 10.0, &[5.0]);
        p.group_a[0].entries[0].1 = 1.0;
        let report = preflight_structured(&p, &layout()).unwrap();
        assert_eq!(report.periods.len(), 1);
        assert!(report.periods[0].deficit.is_infinite());
    }

    #[test]
    fn short_slots_are_rejected() {
        let p = one_arc_problem(0.5, 10.0, &[5.0]);
        let layout = LqRowLayout {
            demand_rows: 2,
            capacity_rows: 2,
        };
        assert!(matches!(
            preflight_structured(&p, &layout),
            Err(SolverError::InvalidProblem(_))
        ));
    }
}

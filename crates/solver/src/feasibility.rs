//! Preflight feasibility analysis for DSPP horizon problems.
//!
//! Solving an infeasible horizon QP wastes a full interior-point run just
//! to learn that no placement exists. The preflight implemented here costs
//! one pass over the sparse demand and capacity rows — `O(nnz + W·rows)` —
//! and certifies the cheapest necessary condition: per period, the
//! SLA-scaled aggregate demand `Σ_v D_k^v · min_l (a^{lv} · s)` cannot
//! exceed the total capacity `Σ_l C^l`. The bound ignores how demand
//! splits across data centers, so a clean report does not *guarantee*
//! feasibility — but any reported deficit is a true lower bound on the SLA
//! shortfall that every relaxation (see
//! [`crate::solve_structured_relaxed_traced`]) must incur, which is exactly
//! the contract the recovery solve and its tests rely on.
//!
//! The preflight reads a [`StructuredLq`]'s demand rows
//! (`-Σ_e x_e/a_e ≤ -D_v`) and capacity rows (`Σ_e s·x_e ≤ C_l`); the
//! non-negativity rows play no part in the aggregate check.

use crate::StructuredLq;

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

    /// Sum of all per-period deficits.
    pub fn total_deficit(&self) -> f64 {
        self.periods.iter().map(|p| p.deficit).sum()
    }

    /// Per-period deficits in horizon order.
    pub fn deficits(&self) -> Vec<f64> {
        self.periods.iter().map(|p| p.deficit).collect()
    }
}

/// Runs the aggregate preflight on `slq`.
///
/// For every constrained slot `1..=W` the check computes, per demand row
/// `v`, the cheapest resource cost of serving one demand unit over the arcs
/// that can serve it — the capacity-row coefficient of arc `e` divided by
/// its demand-row rate `1/a_e` — and compares the summed requirement
/// against the summed capacity right-hand sides.
pub fn preflight_structured(slq: &StructuredLq) -> FeasibilityReport {
    let nv = slq.demand.len();
    // Resource an arc consumes per server, summed over the capacity rows.
    let mut resource = vec![0.0f64; slq.n];
    for row in &slq.capacity {
        for &(e, coeff) in &row.entries {
            resource[e] += coeff.max(0.0);
        }
    }
    // Cheapest resource cost per served demand unit, per demand row.
    let cheapest: Vec<Option<f64>> = slq
        .demand
        .iter()
        .map(|row| {
            row.entries
                .iter()
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
            let available: f64 = d.as_slice()[nv..].iter().sum();
            PeriodFeasibility {
                period: slot,
                required,
                available,
                deficit: (required - available).max(0.0),
            }
        })
        .collect();
    FeasibilityReport { periods }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CouplingRow;
    use dspp_linalg::Vector;

    /// One DC (capacity `cap`), one location, arc coefficient `a`,
    /// server size 1: demand row `-x/a ≤ -demand`, capacity row `x ≤ cap`,
    /// one slot per entry of `demands`.
    fn one_arc_problem(a: f64, cap: f64, demands: &[f64]) -> StructuredLq {
        let w = demands.len();
        StructuredLq::new(
            Vector::zeros(1),
            vec![Vector::filled(1, 1.0); w],
            Vector::filled(1, 0.2),
            vec![CouplingRow {
                entries: vec![(0, -1.0 / a)],
            }],
            vec![CouplingRow {
                entries: vec![(0, 1.0)],
            }],
            demands
                .iter()
                .map(|&dem| Vector::from(vec![-dem, cap]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn feasible_horizon_reports_zero_deficit() {
        let p = one_arc_problem(0.5, 10.0, &[8.0, 12.0, 16.0]);
        let report = preflight_structured(&p);
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
        let report = preflight_structured(&p);
        assert!(!report.is_feasible());
        let worst = report.worst().unwrap();
        assert_eq!(worst.period, 2);
        assert!((worst.deficit - 5.0).abs() < 1e-12);
        let first = report.periods.iter().find(|p| p.deficit > 0.0).unwrap();
        assert_eq!(first.period, 2);
        assert!((report.total_deficit() - 5.0).abs() < 1e-12);
        assert_eq!(report.deficits(), vec![0.0, 5.0, 0.0]);
    }

    #[test]
    fn unservable_demand_is_an_infinite_deficit() {
        // The demand row's only arc cannot serve it (wrong-signed rate).
        let mut p = one_arc_problem(0.5, 10.0, &[5.0]);
        p.demand[0].entries[0].1 = 1.0;
        let report = preflight_structured(&p);
        assert_eq!(report.periods.len(), 1);
        assert!(report.periods[0].deficit.is_infinite());
    }
}

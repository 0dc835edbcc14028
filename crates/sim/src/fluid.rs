use dspp_core::{Allocation, Dspp, RoutingPolicy};
use serde::{Deserialize, Serialize};

/// Analytic (fluid) SLA evaluation of one period.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaReport {
    /// Arcs whose total latency exceeded the SLA target.
    pub violated_arcs: usize,
    /// Arcs carrying positive load.
    pub loaded_arcs: usize,
    /// Worst total (network + queueing) latency observed, seconds;
    /// `f64::INFINITY` if some loaded arc was overloaded (`λ ≥ μ`).
    pub worst_latency: f64,
    /// Fraction of total demand that was routed to *some* arc (demand at
    /// locations with zero routing weight is dropped).
    pub served_fraction: f64,
}

/// Evaluates the M/M/1 SLA model for an allocation, routing policy and
/// realized demand (the paper's eq. 7–8 applied ex post).
///
/// # Panics
///
/// Panics if `demand.len()` differs from the problem's location count.
pub fn evaluate_sla(
    problem: &Dspp,
    allocation: &Allocation,
    routing: &RoutingPolicy,
    demand: &[f64],
) -> SlaReport {
    assert_eq!(
        demand.len(),
        problem.num_locations(),
        "demand length mismatch"
    );
    let sigma = routing.assign(problem, demand);
    let mut violated = 0usize;
    let mut loaded = 0usize;
    let mut worst: f64 = 0.0;
    let mut served = 0.0;
    for (e, &(l, v)) in problem.arcs().iter().enumerate() {
        if sigma[e] <= 0.0 {
            continue;
        }
        loaded += 1;
        served += sigma[e];
        let x = allocation.arc_values()[e];
        match problem.sla().queueing_delay(x, sigma[e]) {
            Some(q) => {
                let total = problem.latency(l, v) + q;
                worst = worst.max(total);
                if total > problem.sla().max_latency + 1e-9 {
                    violated += 1;
                }
            }
            None => {
                violated += 1;
                worst = f64::INFINITY;
            }
        }
    }
    let total_demand: f64 = demand.iter().sum();
    SlaReport {
        violated_arcs: violated,
        loaded_arcs: loaded,
        worst_latency: worst,
        served_fraction: if total_demand > 0.0 {
            served / total_demand
        } else {
            1.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::DsppBuilder;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.020]])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn adequate_allocation_is_compliant() {
        let p = problem();
        // Provision both arcs exactly at a·(their share) with slack 1.2×.
        let a0 = p.arc_coeff(0);
        let a1 = p.arc_coeff(1);
        let x = Allocation::from_arc_values(&p, vec![1.2 * a0 * 30.0, 1.2 * a1 * 30.0]);
        let routing = RoutingPolicy::from_allocation(&p, &x);
        let report = evaluate_sla(&p, &x, &routing, &[50.0]);
        assert_eq!(report.violated_arcs, 0, "{report:?}");
        assert!((report.served_fraction - 1.0).abs() < 1e-9, "{report:?}");
        assert_eq!(report.loaded_arcs, 2);
        assert!(report.worst_latency <= p.sla().max_latency);
    }

    #[test]
    fn starved_allocation_violates() {
        let p = problem();
        let x = Allocation::from_arc_values(&p, vec![0.01, 0.0]); // grossly undersized
        let routing = RoutingPolicy::from_allocation(&p, &x);
        let report = evaluate_sla(&p, &x, &routing, &[100.0]);
        assert!(report.violated_arcs >= 1);
    }

    #[test]
    fn unrouted_demand_counts_as_unserved() {
        let p = problem();
        let x = Allocation::zeros(&p);
        let routing = RoutingPolicy::from_allocation(&p, &x);
        let report = evaluate_sla(&p, &x, &routing, &[10.0]);
        assert_eq!(report.served_fraction, 0.0);
        assert_eq!(report.loaded_arcs, 0);
        // No demand at all is trivially served.
        let report = evaluate_sla(&p, &x, &routing, &[0.0]);
        assert_eq!(report.served_fraction, 1.0);
        assert_eq!(report.violated_arcs, 0);
    }
}

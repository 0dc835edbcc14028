//! Integer-valued allocations (the paper's future-work item).
//!
//! The DSPP relaxes server counts to reals; the paper notes that real
//! deployments need integers and that the exact mixed-integer program is
//! NP-hard, leaving "an efficient approximation algorithm" as future work.
//! This module provides that approximation: a rounding post-processor with
//! *feasibility repair*.
//!
//! 1. Round every arc value to the nearest integer.
//! 2. **Demand repair**: while a location's capability `Σ x/a` falls short
//!    of its demand, bump the arc with the cheapest marginal cost per unit
//!    of restored capability (`price·a`), respecting capacities.
//! 3. **Capacity repair**: while a data center is oversubscribed, shave the
//!    arc whose decrement loses the least needed capability (preferring
//!    arcs with slack in their location's demand constraint).
//!
//! The result is integral, demand- and capacity-feasible whenever a
//! feasible integral point exists in the rounding neighbourhood, and in
//! practice within a few percent of the continuous optimum (see the
//! `integerization_gap_is_small` test).

use crate::{Allocation, CoreError, Dspp, PeriodCost, PlacementPolicy, RoutingPolicy, StepOutcome};

/// Rounds a continuous allocation to integers and repairs feasibility.
///
/// `demand` is the demand vector the result must support and `k` the
/// period whose prices guide the repair choices.
///
/// # Errors
///
/// Returns [`CoreError::Solver`]-free errors only: [`CoreError::InvalidSpec`]
/// if the inputs are malformed, or [`CoreError::UnservableLocation`] if
/// repair cannot reach feasibility (capacity too tight for any integral
/// point).
pub fn integerize(
    problem: &Dspp,
    allocation: &Allocation,
    demand: &[f64],
    k: usize,
) -> Result<Allocation, CoreError> {
    if demand.len() != problem.num_locations() {
        return Err(CoreError::InvalidSpec(format!(
            "demand has {} locations, problem has {}",
            demand.len(),
            problem.num_locations()
        )));
    }
    let mut x: Vec<f64> = allocation
        .arc_values()
        .iter()
        .map(|&v| v.max(0.0).round())
        .collect();

    // --- capacity repair (shave before bumping so bumps see true slack) ---
    let per_dc = |x: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0; problem.num_dcs()];
        for (e, &(l, _)) in problem.arcs().iter().enumerate() {
            out[l] += x[e] * problem.server_size();
        }
        out
    };
    let capability = |x: &[f64]| -> Vec<f64> {
        let mut out = vec![0.0; problem.num_locations()];
        for (e, &(_, v)) in problem.arcs().iter().enumerate() {
            out[v] += x[e] / problem.arc_coeff(e);
        }
        out
    };

    let mut used = per_dc(&x);
    for (l, used_l) in used.iter_mut().enumerate() {
        while *used_l > problem.capacity(l) + 1e-9 {
            // Shave the arc of this DC whose location has the most
            // capability slack; ties broken by highest price (cheapest to
            // lose).
            let caps = capability(&x);
            let mut best: Option<(usize, f64)> = None;
            for e in problem.arcs_for_dc(l) {
                if x[e] < 1.0 {
                    continue;
                }
                let (_, v) = problem.arcs()[e];
                let slack = caps[v] - demand[v];
                let score = slack; // more slack = safer to shave
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((e, score));
                }
            }
            match best {
                Some((e, _)) => {
                    x[e] -= 1.0;
                    *used_l -= problem.server_size();
                }
                None => {
                    return Err(CoreError::InvalidSpec(format!(
                        "data center {l} oversubscribed with no shaveable arc"
                    )))
                }
            }
        }
    }

    // --- demand repair ---
    for (v, &demand_v) in demand.iter().enumerate().take(problem.num_locations()) {
        loop {
            let cap_v: f64 = problem
                .arcs_for_location(v)
                .into_iter()
                .map(|e| x[e] / problem.arc_coeff(e))
                .sum();
            if cap_v >= demand_v - 1e-9 {
                break;
            }
            // Bump the cheapest arc (price × a = cost per unit capability)
            // that still has capacity headroom.
            let used_now = per_dc(&x);
            let mut best: Option<(usize, f64)> = None;
            for e in problem.arcs_for_location(v) {
                let (l, _) = problem.arcs()[e];
                if used_now[l] + problem.server_size() > problem.capacity(l) + 1e-9 {
                    continue;
                }
                let marginal = problem.price(l, k) * problem.arc_coeff(e);
                if best.is_none_or(|(_, m)| marginal < m) {
                    best = Some((e, marginal));
                }
            }
            match best {
                Some((e, _)) => x[e] += 1.0,
                None => return Err(CoreError::UnservableLocation { location: v }),
            }
        }
    }

    Ok(Allocation::from_arc_values(problem, x))
}

/// A [`PlacementPolicy`] decorator that integerizes every step.
///
/// Wraps any controller (typically [`crate::MpcController`]): after the
/// inner step, the continuous allocation is rounded and repaired against
/// the demand the step was planned for, and the outcome's allocation,
/// control, routing and costs are recomputed from the integral point. This
/// is the deployable variant of Algorithm 1 the paper's future-work
/// section asks for.
pub struct IntegerizingController<C> {
    inner: C,
    state: Allocation,
}

impl<C: PlacementPolicy> IntegerizingController<C> {
    /// Wraps a controller (which must be at its initial, zero state).
    pub fn new(inner: C) -> Self {
        let state = Allocation::zeros(inner.problem());
        IntegerizingController { inner, state }
    }
}

impl<C: PlacementPolicy> PlacementPolicy for IntegerizingController<C> {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        let out = self.inner.step(observed_demand)?;
        let problem = self.inner.problem();
        // Repair against what the allocation will actually serve: the
        // first-step forecast (the plan's own target). Falling back to the
        // observation only if a predictor returned nothing.
        let target: Vec<f64> = observed_demand
            .iter()
            .enumerate()
            .map(|(v, &d)| {
                out.predicted_demand
                    .get(v)
                    .and_then(|s| s.first())
                    .copied()
                    .unwrap_or(d)
            })
            .collect();
        let integral = integerize(problem, &out.allocation, &target, out.period + 1)?;
        let control: Vec<f64> = integral
            .arc_values()
            .iter()
            .zip(self.state.arc_values())
            .map(|(new, old)| new - old)
            .collect();
        let routing = RoutingPolicy::from_allocation(problem, &integral);
        let step_cost = PeriodCost::compute(problem, &integral, &control, out.period + 1);
        self.state = integral.clone();
        Ok(StepOutcome {
            allocation: integral,
            control,
            routing,
            step_cost,
            ..out
        })
    }

    fn allocation(&self) -> &Allocation {
        &self.state
    }

    fn problem(&self) -> &Dspp {
        self.inner.problem()
    }

    fn name(&self) -> &str {
        "integer"
    }

    fn attach_telemetry(&mut self, telemetry: dspp_telemetry::Recorder) {
        self.inner.attach_telemetry(telemetry);
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        // The integral placement is held as-is; the wrapped controller
        // still needs to see time (and the observation) move on.
        self.inner.note_fallback(observed_demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DsppBuilder, HorizonProblem};
    use dspp_solver::IpmSettings;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .capacities(vec![50.0, 50.0])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn result_is_integral_and_feasible() {
        let p = problem();
        let demand = [100.0, 80.0];
        // Start from the continuous optimum of a 1-stage horizon.
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(
            &p,
            &x0,
            &[vec![demand[0]], vec![demand[1]]],
            &[vec![1.0], vec![2.0]],
        )
        .unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        let cont = Allocation::from_arc_values(&p, sol.xs[1].as_slice().to_vec());
        let int = integerize(&p, &cont, &demand, 0).unwrap();
        for &v in int.arc_values() {
            assert_eq!(v, v.round(), "non-integral value {v}");
            assert!(v >= 0.0);
        }
        assert!(int.satisfies_demand(&p, &demand, 1e-9));
        assert!(int.satisfies_capacity(&p, 1e-9));
    }

    #[test]
    fn integerization_gap_is_small() {
        // The continuous relaxation is justified for services needing tens
        // to hundreds of servers (the paper's argument); at that scale the
        // rounding gap is ~1/x per arc.
        let p = DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .capacities(vec![500.0, 500.0])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![2.0])
            .build()
            .unwrap();
        let demand = [10_000.0, 8_000.0];
        let x0 = Allocation::zeros(&p);
        let h = HorizonProblem::build(
            &p,
            &x0,
            &[vec![demand[0]], vec![demand[1]]],
            &[vec![1.0], vec![2.0]],
        )
        .unwrap();
        let sol = h.solve(&IpmSettings::default()).unwrap();
        let cont = Allocation::from_arc_values(&p, sol.xs[1].as_slice().to_vec());
        let int = integerize(&p, &cont, &demand, 0).unwrap();
        let cost = |a: &Allocation| -> f64 {
            p.arcs()
                .iter()
                .enumerate()
                .map(|(e, &(l, _))| p.price(l, 0) * a.arc_values()[e])
                .sum()
        };
        let gap = (cost(&int) - cost(&cont)) / cost(&cont);
        // Rounding a handful of arcs adds at most a few servers out of ~225.
        assert!(gap >= -1e-9, "integral cheaper than relaxation: {gap}");
        assert!(gap < 0.03, "integerization gap {gap:.3} too large");
    }

    #[test]
    fn demand_repair_bumps_cheapest_arc() {
        let p = problem();
        // Under-provisioned non-integral start.
        let mut start = Allocation::zeros(&p);
        start.set(&p, 0, 0, 0.4); // rounds to 0
        let int = integerize(&p, &start, &[50.0, 0.0], 0).unwrap();
        assert!(int.satisfies_demand(&p, &[50.0, 0.0], 1e-9));
        // The cheap local arc (DC 0, price 1, small a) should do the work.
        let a00 = p.arc_coeff(p.arc_index(0, 0).unwrap());
        assert!(int.get(&p, 0, 0) >= (50.0 * a00).floor());
        assert_eq!(int.get(&p, 1, 0), 0.0);
    }

    #[test]
    fn capacity_repair_shaves_over_quota() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 3.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let mut start = Allocation::zeros(&p);
        start.set(&p, 0, 0, 5.4); // over the capacity of 3
        let int = integerize(&p, &start, &[10.0], 0).unwrap();
        assert!(int.satisfies_capacity(&p, 1e-9));
        assert_eq!(int.get(&p, 0, 0), 3.0);
    }

    #[test]
    fn impossible_demand_is_reported() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .capacity(0, 1.0)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let start = Allocation::zeros(&p);
        // Needs far more than 1 server.
        let err = integerize(&p, &start, &[1000.0], 0).unwrap_err();
        assert!(matches!(err, CoreError::UnservableLocation { .. }));
    }

    #[test]
    fn integerizing_controller_stays_integral_and_feasible() {
        use crate::{MpcController, MpcSettings};
        use dspp_predict::OraclePredictor;
        let p = DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .capacities(vec![500.0, 500.0])
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![2.0])
            .build()
            .unwrap();
        let demand = vec![
            vec![1000.0, 2000.0, 3000.0, 2000.0],
            vec![800.0, 900.0, 1000.0, 900.0],
        ];
        let inner = MpcController::new(
            p.clone(),
            Box::new(OraclePredictor::new(demand.clone())),
            MpcSettings {
                horizon: 2,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        let mut c = IntegerizingController::new(inner);
        for k in 0..3 {
            let obs: Vec<f64> = demand.iter().map(|d| d[k]).collect();
            let next: Vec<f64> = demand.iter().map(|d| d[k + 1]).collect();
            let out = c.step(&obs).unwrap();
            for &x in out.allocation.arc_values() {
                assert_eq!(x, x.round(), "period {k}: non-integral {x}");
            }
            assert!(out.allocation.satisfies_demand(&p, &next, 1e-9));
            assert!(out.allocation.satisfies_capacity(&p, 1e-9));
            // Controls are consistent with the integral state sequence.
            assert_eq!(c.allocation(), &out.allocation);
        }
        assert_eq!(c.name(), "integer");
    }

    #[test]
    fn validates_demand_length() {
        let p = problem();
        let start = Allocation::zeros(&p);
        assert!(integerize(&p, &start, &[1.0], 0).is_err());
    }
}

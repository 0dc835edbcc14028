//! Per-decision correctness checks. A failed check counts against
//! `decision_ok_share` and makes the run exit non-zero.

use dspp_core::{Allocation, Dspp, RoutingPolicy};

/// Absolute slack on capacity comparisons (the solvers are interior-point
/// methods, so a binding row can sit a rounding error past its bound).
pub const CAPACITY_TOL: f64 = 1e-6;
/// How far below 0 an executed arc value may sit: interior-point solutions
/// carry tiny negative values, which the controller clamps to 0.
pub const SIGN_TOL: f64 = 1e-6;

/// Every arc value of a placement is a number no further below 0 than
/// [`SIGN_TOL`].
pub fn nonnegative(values: &[f64]) -> Result<(), String> {
    match values.iter().position(|&x| x.is_nan() || x < -SIGN_TOL) {
        None => Ok(()),
        Some(e) => Err(format!("arc {e} has allocation {}", values[e])),
    }
}

/// The allocation a controller step executed before clamping,
/// `x_k + u_k` per arc. The controller's own allocation is clamped at 0
/// (which also turns NaN into 0), so the sign check runs on this one.
pub fn unclamped(prior: &[f64], control: &[f64]) -> Vec<f64> {
    prior.iter().zip(control).map(|(x, u)| x + u).collect()
}

/// Server-size-weighted usage per DC: what the capacity rows constrain.
pub fn usage_per_dc(problem: &Dspp, allocation: &Allocation) -> Vec<f64> {
    allocation
        .per_dc(problem)
        .into_iter()
        .map(|x| x * problem.server_size())
        .collect()
}

/// Usage per DC stays within `capacity` (+ [`CAPACITY_TOL`]).
pub fn usage_within(usage: &[f64], capacity: &[f64]) -> Result<(), String> {
    for (l, (&used, &cap)) in usage.iter().zip(capacity).enumerate() {
        if used.is_nan() || used > cap + CAPACITY_TOL {
            return Err(format!("DC {l} uses {used} of capacity {cap}"));
        }
    }
    Ok(())
}

/// Eq. 13: the router splits every covered location's demand across its
/// arcs without creating or losing any (locations with no placement are
/// shed, not routed, and carry no weight).
pub fn routing_conserves(
    problem: &Dspp,
    routing: &RoutingPolicy,
    demand: &[f64],
) -> Result<(), String> {
    let sigma = routing.assign(problem, demand);
    let mut routed = vec![0.0; problem.num_locations()];
    for (e, &(_, v)) in problem.arcs().iter().enumerate() {
        routed[v] += sigma[e];
    }
    for v in routing.covered_locations() {
        let d = demand[v];
        if (routed[v] - d).abs() > 1e-9 * d.abs().max(1.0) {
            return Err(format!("location {v}: routed {} of demand {d}", routed[v]));
        }
    }
    Ok(())
}

/// Per location `v`, the cheapest server cost of one demand unit,
/// `min_e a_e · s` — converts demand into server units.
pub fn resource_per_demand(problem: &Dspp) -> Vec<f64> {
    let mut out = vec![f64::INFINITY; problem.num_locations()];
    for (e, &(_, v)) in problem.arcs().iter().enumerate() {
        out[v] = out[v].min(problem.arc_coeff(e) * problem.server_size());
    }
    out
}

/// `(shed, required)` server units when `allocation` faces `demand`:
/// required is the demand in server units, shed the part the placement's
/// service capability cannot absorb.
pub fn shed_and_required(problem: &Dspp, allocation: &Allocation, demand: &[f64]) -> (f64, f64) {
    let capability = allocation.capability_per_location(problem);
    let rpd = resource_per_demand(problem);
    let mut shed = 0.0;
    let mut required = 0.0;
    for v in 0..demand.len() {
        required += demand[v] * rpd[v];
        shed += (demand[v] - capability[v]).max(0.0) * rpd[v];
    }
    (shed, required)
}

/// The standard check set for one controller decision: `unclamped` is
/// the executed allocation before the controller clamped it (see
/// [`unclamped`]), `allocation` the clamped one it serves with.
pub fn placement(
    problem: &Dspp,
    unclamped: &[f64],
    allocation: &Allocation,
    routing: &RoutingPolicy,
    capacity: &[f64],
    demand: &[f64],
) -> Result<(), String> {
    if unclamped.len() != problem.num_arcs() {
        return Err(format!(
            "control has {} arcs, the problem {}",
            unclamped.len(),
            problem.num_arcs()
        ));
    }
    nonnegative(unclamped)?;
    usage_within(&usage_per_dc(problem, allocation), capacity)?;
    routing_conserves(problem, routing, demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::DsppBuilder;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacity(0, 2.0)
            .capacity(1, 2.0)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn checks_accept_a_valid_placement_and_reject_violations() {
        let p = problem();
        let x = Allocation::from_arc_values(&p, vec![1.0, 0.5]);
        let r = RoutingPolicy::from_allocation(&p, &x);
        let raw = unclamped(&[0.5, 0.5], &[0.5, 0.0]);
        assert!(placement(&p, &raw, &x, &r, &[2.0, 2.0], &[50.0]).is_ok());
        assert!(placement(&p, &raw, &x, &r, &[0.5, 2.0], &[50.0]).is_err());
        // The controller would serve 0 on arc 0; the check sees -1 and NaN.
        let negative = unclamped(&[0.5, 0.5], &[-1.5, 0.0]);
        assert!(placement(&p, &negative, &x, &r, &[2.0, 2.0], &[50.0]).is_err());
        assert!(nonnegative(&[f64::NAN, 0.5]).is_err());
        assert!(nonnegative(&[-0.5 * SIGN_TOL, 0.5]).is_ok());
        let (shed, required) = shed_and_required(&p, &x, &[1e6]);
        assert!(shed > 0.0 && shed < required);
    }
}

//! Capacity-proportional demand splitting.

use crate::policy::guard::{clamp_to_capacity, closed_form_outcome, validate_observation};
use crate::policy::PlacementPolicy;
use crate::{Allocation, ControllerCheckpoint, CoreError, Dspp, StepOutcome};
use dspp_telemetry::Recorder;

/// Proportional-greedy baseline: every period, split each location's
/// observed demand across its usable data centers in proportion to their
/// capacity, then clamp to capacity.
///
/// For location `v` with usable arcs to data centers `L(v)`, the demand
/// share sent to `l` is `σ^{lv} = D^v · C^l / Σ_{l' ∈ L(v)} C^{l'}`, and
/// the placement is the exact SLA cover `x^{lv} = a^{lv}·σ^{lv}` — the
/// load-balancer default of spreading work by rated size. The split
/// ignores prices entirely (it pays wherever capacity is) and carries no
/// deadband (it re-fits the placement every period), which is precisely
/// the cost structure the tournament compares against
/// [`MpcController`](crate::MpcController). The shared guard clamps the result and
/// reports shed demand when the instance is infeasible.
///
/// Uncapacitated problems (the builder's effectively-infinite default
/// capacity) degenerate to an equal split across usable arcs.
#[derive(Debug)]
pub struct ProportionalGreedy {
    problem: Dspp,
    /// Per-arc demand weight `C^l / Σ_{l' ∈ L(v)} C^{l'}`, precomputed.
    weights: Vec<f64>,
    state: Allocation,
    period: usize,
    telemetry: Recorder,
}

impl ProportionalGreedy {
    /// Creates the policy starting from the zero placement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when some location has usable
    /// arcs only to zero-capacity data centers (the split would be
    /// undefined).
    pub fn new(problem: Dspp) -> Result<Self, CoreError> {
        let mut weights = vec![0.0; problem.num_arcs()];
        for v in 0..problem.num_locations() {
            let arcs = problem.arcs_for_location(v);
            if arcs.is_empty() {
                continue;
            }
            let total: f64 = arcs
                .iter()
                .map(|&e| problem.capacity(problem.arcs()[e].0))
                .sum();
            if total <= 0.0 {
                return Err(CoreError::InvalidSpec(format!(
                    "location {v} is served only by zero-capacity data centers"
                )));
            }
            for &e in &arcs {
                weights[e] = problem.capacity(problem.arcs()[e].0) / total;
            }
        }
        let state = Allocation::zeros(&problem);
        Ok(ProportionalGreedy {
            problem,
            weights,
            state,
            period: 0,
            telemetry: Recorder::disabled(),
        })
    }
}

impl PlacementPolicy for ProportionalGreedy {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        validate_observation(&self.problem, observed_demand)?;
        let p = &self.problem;
        let previous = self.state.clone();
        let desired: Vec<f64> = (0..p.num_arcs())
            .map(|e| {
                let (_, v) = p.arcs()[e];
                p.arc_coeff(e) * observed_demand[v] * self.weights[e]
            })
            .collect();
        let (allocation, recovery) = clamp_to_capacity(p, desired, observed_demand);
        self.state = allocation.clone();
        let predicted = observed_demand.iter().map(|&d| vec![d]).collect();
        let outcome = closed_form_outcome(
            p,
            &previous,
            allocation,
            self.period,
            predicted,
            recovery,
            &self.telemetry,
        );
        self.period += 1;
        Ok(outcome)
    }

    fn allocation(&self) -> &Allocation {
        &self.state
    }

    fn problem(&self) -> &Dspp {
        &self.problem
    }

    fn name(&self) -> &str {
        "proportional-greedy"
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.telemetry = telemetry;
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        Some(ControllerCheckpoint {
            period: self.period,
            allocation: self.state.arc_values().to_vec(),
            history: Vec::new(),
            warm_us: None,
        })
    }

    fn restore(&mut self, ck: &ControllerCheckpoint) -> Result<(), CoreError> {
        if ck.allocation.len() != self.problem.num_arcs() {
            return Err(CoreError::InvalidSpec(format!(
                "checkpoint allocation has {} arcs, problem has {}",
                ck.allocation.len(),
                self.problem.num_arcs()
            )));
        }
        self.period = ck.period;
        self.state = Allocation::from_arc_values(&self.problem, ck.allocation.clone());
        Ok(())
    }

    fn note_fallback(&mut self, _observed_demand: &[f64]) {
        self.period += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsppBuilder;

    #[test]
    fn splits_demand_by_capacity_share() {
        let p = DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacity(0, 30.0)
            .capacity(1, 10.0)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let mut c = ProportionalGreedy::new(p).unwrap();
        let out = c.step(&[100.0]).unwrap();
        // 3:1 capacity ratio → 75 and 25 units of demand.
        assert!((out.allocation.arc_values()[0] - 75.0 * a).abs() < 1e-9);
        assert!((out.allocation.arc_values()[1] - 25.0 * a).abs() < 1e-9);
        assert!(out.allocation.satisfies_demand(c.problem(), &[100.0], 1e-9));
    }

    #[test]
    fn refits_every_period() {
        let p = DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let mut c = ProportionalGreedy::new(p).unwrap();
        assert!((c.step(&[50.0]).unwrap().allocation.total() - 50.0 * a).abs() < 1e-12);
        assert!((c.step(&[10.0]).unwrap().allocation.total() - 10.0 * a).abs() < 1e-12);
    }
}

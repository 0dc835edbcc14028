//! One-shot static provisioning at the cheapest data centers.

use crate::policy::guard::{closed_form_outcome, measure_shortfall, validate_observation};
use crate::policy::PlacementPolicy;
use crate::{Allocation, ControllerCheckpoint, CoreError, Dspp, StepOutcome};
use dspp_telemetry::Recorder;

/// Static cheapest-DC baseline: provision once for peak demand, greedily
/// at the cheapest data centers, then never reconfigure.
///
/// On the first step every location's `peak_demand` is routed to its
/// usable arcs in ascending order of the serving data center's
/// time-averaged posted price `p̄^l` (ties broken by the SLA coefficient
/// `a^{lv}`, then by arc index), filling each data center to capacity
/// before spilling to the next. The resulting placement
/// `x^{lv} = a^{lv}·σ^{lv}` is held for the rest of the run — the classic
/// static replica placement the paper's references [6, 8] correspond to.
///
/// With the placement frozen, demand above the provisioned capability is
/// shed and reported as [`RecoveryInfo`](crate::RecoveryInfo); demand
/// below it pays for idle servers. Both effects are exactly the gap the
/// policy tournament measures against [`MpcController`](crate::MpcController).
#[derive(Debug)]
pub struct StaticCheapestDc {
    problem: Dspp,
    peak_demand: Vec<f64>,
    state: Allocation,
    provisioned: bool,
    period: usize,
    telemetry: Recorder,
}

impl StaticCheapestDc {
    /// Creates the policy; it will provision for `peak_demand` (one entry
    /// per client location) on its first step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] if `peak_demand` has the wrong
    /// length or a negative/non-finite entry.
    pub fn new(problem: Dspp, peak_demand: Vec<f64>) -> Result<Self, CoreError> {
        validate_observation(&problem, &peak_demand).map_err(|_| {
            CoreError::InvalidSpec(format!(
                "peak demand must be {} non-negative finite entries",
                problem.num_locations()
            ))
        })?;
        let state = Allocation::zeros(&problem);
        Ok(StaticCheapestDc {
            problem,
            peak_demand,
            state,
            provisioned: false,
            period: 0,
            telemetry: Recorder::disabled(),
        })
    }

    /// The greedy cheapest-first provisioning pass.
    fn provision(&self) -> Vec<f64> {
        let p = &self.problem;
        // Time-averaged posted price per data center.
        let avg_price: Vec<f64> = (0..p.num_dcs())
            .map(|l| {
                let n = p.price_periods();
                (0..n).map(|k| p.price(l, k)).sum::<f64>() / n as f64
            })
            .collect();
        let mut values = vec![0.0; p.num_arcs()];
        let mut spare: Vec<f64> = (0..p.num_dcs()).map(|l| p.capacity(l)).collect();
        for (v, &d) in self.peak_demand.iter().enumerate() {
            let mut arcs = p.arcs_for_location(v);
            arcs.sort_by(|&ea, &eb| {
                let (la, lb) = (p.arcs()[ea].0, p.arcs()[eb].0);
                avg_price[la]
                    .partial_cmp(&avg_price[lb])
                    .unwrap()
                    .then(p.arc_coeff(ea).partial_cmp(&p.arc_coeff(eb)).unwrap())
                    .then(ea.cmp(&eb))
            });
            let mut remaining = d;
            for e in arcs {
                if remaining <= 0.0 {
                    break;
                }
                let l = p.arcs()[e].0;
                let a = p.arc_coeff(e);
                let servers = (a * remaining).min(spare[l] / p.server_size());
                if servers <= 0.0 {
                    continue;
                }
                values[e] += servers;
                spare[l] -= servers * p.server_size();
                remaining -= servers / a;
            }
        }
        values
    }
}

impl PlacementPolicy for StaticCheapestDc {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        validate_observation(&self.problem, observed_demand)?;
        let previous = self.state.clone();
        if !self.provisioned {
            // The greedy pass respects capacity by construction; holding
            // the placement afterwards cannot violate it either.
            self.state = Allocation::from_arc_values(&self.problem, self.provision());
            self.provisioned = true;
        }
        // A frozen placement never scales up: demand above the provisioned
        // capability is shed and reported, mirroring the recovery contract.
        let recovery = measure_shortfall(&self.problem, &self.state, observed_demand);
        let predicted = self.peak_demand.iter().map(|&d| vec![d]).collect();
        let outcome = closed_form_outcome(
            &self.problem,
            &previous,
            self.state.clone(),
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
        "static-cheapest"
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
        // The one-shot provisioning step has happened iff time has moved.
        self.provisioned = ck.period > 0;
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

    fn problem() -> Dspp {
        DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacity(0, 2.0)
            .capacity(1, 10.0)
            .price_trace(0, vec![0.5])
            .price_trace(1, vec![2.0])
            .build()
            .unwrap()
    }

    #[test]
    fn provisions_cheapest_first_and_spills_on_capacity() {
        let p = problem();
        let a = p.arc_coeff(0);
        // Peak needs 5 servers; the cheap DC holds 2, the rest spills.
        let mut c = StaticCheapestDc::new(p, vec![5.0 / a]).unwrap();
        let out = c.step(&[1.0 / a]).unwrap();
        assert!((out.allocation.arc_values()[0] - 2.0).abs() < 1e-9);
        assert!((out.allocation.arc_values()[1] - 3.0).abs() < 1e-9);
        assert!(out.recovery.is_none());
    }

    #[test]
    fn holds_placement_and_sheds_above_peak() {
        let p = problem();
        let a = p.arc_coeff(0);
        let mut c = StaticCheapestDc::new(p, vec![4.0 / a]).unwrap();
        let first = c.step(&[1.0 / a]).unwrap();
        let second = c.step(&[20.0 / a]).unwrap();
        assert_eq!(first.allocation, second.allocation, "placement is frozen");
        assert_eq!(second.control, vec![0.0, 0.0]);
        let info = second.recovery.expect("demand above peak is shed");
        assert!((info.shortfall[0] - 16.0 / a).abs() < 1e-6);
    }

    #[test]
    fn rejects_malformed_peak() {
        let p = problem();
        assert!(StaticCheapestDc::new(p.clone(), vec![]).is_err());
        assert!(StaticCheapestDc::new(p, vec![-1.0]).is_err());
    }
}

//! Utilization-band autoscaling, the industry-standard reactive rule.

use crate::policy::guard::{clamp_to_capacity, closed_form_outcome, validate_observation};
use crate::policy::PlacementPolicy;
use crate::{Allocation, ControllerCheckpoint, CoreError, Dspp, StepOutcome};
use dspp_telemetry::Recorder;

/// The utilization band a [`ReactiveThreshold`] policy keeps each client
/// location inside.
///
/// Utilization is `ρ^v = D^v / cap^v` where `cap^v = Σ_l x^{lv}/a^{lv}`
/// is the location's provisioned service capability (the left-hand side
/// of the paper's demand constraint). While `low ≤ ρ ≤ high` the
/// placement holds; outside the band it is rescaled so `ρ = target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationBands {
    /// Scale down when utilization drops below this (default `0.5`).
    pub low: f64,
    /// Scale up when utilization rises above this (default `0.95`).
    pub high: f64,
    /// Utilization to re-center on after a scaling action (default `0.8`);
    /// must sit inside `(0, 1]` so the rescaled placement still serves the
    /// observed demand.
    pub target: f64,
}

impl Default for UtilizationBands {
    fn default() -> Self {
        UtilizationBands {
            low: 0.5,
            high: 0.95,
            target: 0.8,
        }
    }
}

impl UtilizationBands {
    fn validate(&self) -> Result<(), CoreError> {
        let ok = self.low.is_finite()
            && self.high.is_finite()
            && self.target.is_finite()
            && 0.0 <= self.low
            && self.low < self.high
            && 0.0 < self.target
            && self.target <= 1.0;
        if ok {
            Ok(())
        } else {
            Err(CoreError::InvalidSpec(format!(
                "utilization bands need 0 <= low < high and 0 < target <= 1, got {self:?}"
            )))
        }
    }
}

/// Reactive threshold scaling: hold the placement while every location's
/// utilization stays inside its [`UtilizationBands`]; when a location
/// leaves the band, rescale its arcs proportionally so utilization
/// returns to `target`.
///
/// The deadband means small demand wobbles cause *no* reconfiguration
/// (unlike [`MpcController`](crate::MpcController), which re-optimizes
/// every period), while the `target < 1` headroom over-provisions by
/// `1/target − 1` compared to the exact-cover optimum — the classic
/// autoscaler trade-off the tournament prices against the controller. A
/// location scaling up from zero bootstraps on its cheapest arc (lowest
/// SLA coefficient `a^{lv}`, i.e. fewest servers per unit of demand); the
/// shared capacity guard then spills across data centers if that arc's
/// capacity is exhausted.
#[derive(Debug)]
pub struct ReactiveThreshold {
    problem: Dspp,
    bands: UtilizationBands,
    state: Allocation,
    period: usize,
    telemetry: Recorder,
}

impl ReactiveThreshold {
    /// Creates the policy starting from the zero placement.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] for malformed bands.
    pub fn new(problem: Dspp, bands: UtilizationBands) -> Result<Self, CoreError> {
        bands.validate()?;
        let state = Allocation::zeros(&problem);
        Ok(ReactiveThreshold {
            problem,
            bands,
            state,
            period: 0,
            telemetry: Recorder::disabled(),
        })
    }
}

impl PlacementPolicy for ReactiveThreshold {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        validate_observation(&self.problem, observed_demand)?;
        let p = &self.problem;
        let previous = self.state.clone();
        let capability = self.state.capability_per_location(p);
        let mut desired = self.state.arc_values().to_vec();
        for (v, &d) in observed_demand.iter().enumerate() {
            let cap = capability[v];
            if cap <= 0.0 {
                if d > 0.0 {
                    // Bootstrap an empty location on its cheapest arc.
                    if let Some(e) = p.arcs_for_location(v).into_iter().min_by(|&ea, &eb| {
                        p.arc_coeff(ea)
                            .partial_cmp(&p.arc_coeff(eb))
                            .unwrap()
                            .then(ea.cmp(&eb))
                    }) {
                        desired[e] = p.arc_coeff(e) * d / self.bands.target;
                    }
                }
                continue;
            }
            let rho = d / cap;
            if rho > self.bands.high || rho < self.bands.low {
                // Rescale every arc serving v so utilization returns to
                // target: new capability = d / target.
                let factor = rho / self.bands.target;
                for e in p.arcs_for_location(v) {
                    desired[e] *= factor;
                }
            }
        }
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
        "reactive-threshold"
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

    fn problem() -> Dspp {
        DsppBuilder::new(1, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010]])
            .price_trace(0, vec![1.0])
            .build()
            .unwrap()
    }

    #[test]
    fn bootstraps_to_target_utilization() {
        let p = problem();
        let a = p.arc_coeff(0);
        let mut c = ReactiveThreshold::new(p, UtilizationBands::default()).unwrap();
        let out = c.step(&[80.0]).unwrap();
        // capability = 80 / 0.8 = 100 → x = 100 a.
        assert!((out.allocation.total() - 100.0 * a).abs() < 1e-9);
    }

    #[test]
    fn holds_inside_the_band_and_rescales_outside() {
        let p = problem();
        let mut c = ReactiveThreshold::new(p, UtilizationBands::default()).unwrap();
        let provisioned = c.step(&[80.0]).unwrap().allocation;
        // 85 against capability 100: ρ = 0.85, inside [0.5, 0.95] — hold.
        let held = c.step(&[85.0]).unwrap();
        assert_eq!(held.allocation, provisioned, "deadband must hold");
        assert_eq!(held.control, vec![0.0]);
        // 20 against capability 100: ρ = 0.2 < 0.5 — scale down to 25.
        let shrunk = c.step(&[20.0]).unwrap();
        let cap = shrunk.allocation.capability_per_location(c.problem())[0];
        assert!((cap - 25.0).abs() < 1e-9, "capability {cap}, expected 25");
        // 120 against capability 25: ρ = 4.8 > 0.95 — scale up to 150.
        let grown = c.step(&[120.0]).unwrap();
        let cap = grown.allocation.capability_per_location(c.problem())[0];
        assert!((cap - 150.0).abs() < 1e-9, "capability {cap}, expected 150");
    }

    #[test]
    fn zero_demand_releases_everything() {
        let p = problem();
        let mut c = ReactiveThreshold::new(p, UtilizationBands::default()).unwrap();
        c.step(&[80.0]).unwrap();
        let out = c.step(&[0.0]).unwrap();
        assert_eq!(out.allocation.total(), 0.0);
    }

    #[test]
    fn rejects_malformed_bands() {
        let p = problem();
        let bad = |low, high, target| {
            ReactiveThreshold::new(p.clone(), UtilizationBands { low, high, target }).is_err()
        };
        assert!(bad(0.9, 0.5, 0.8), "low above high");
        assert!(bad(0.5, 0.9, 0.0), "zero target");
        assert!(bad(0.5, 0.9, 1.5), "target above 1");
        assert!(bad(f64::NAN, 0.9, 0.8), "non-finite");
    }
}

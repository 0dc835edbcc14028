//! Fault injection for closed-loop scenarios.
//!
//! A [`FaultPlan`] is a declarative list of adversities to throw at a
//! run: solver outages (the controller's optimizer "times out" for a
//! window of periods), flash-crowd demand spikes (reusing
//! [`dspp_workload::FlashCrowd`], treating the period index as hours),
//! and price shocks. Demand/price faults rewrite the traces before the
//! simulation starts; solver outages are injected live by wrapping the
//! controller in a [`FaultingController`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dspp_core::{Allocation, ControllerCheckpoint, CoreError, Dspp, PlacementPolicy, StepOutcome};
use dspp_solver::SolverError;
use dspp_telemetry::{AttrValue, Recorder};
use dspp_workload::FlashCrowd;

/// One injected adversity.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The solver fails (as [`SolverError::MaxIterations`]) for every
    /// attempt during periods `from .. from + periods`.
    SolverOutage {
        /// First affected period.
        from: usize,
        /// Number of consecutive affected periods.
        periods: usize,
    },
    /// A multiplicative demand surge, interpreting the trace's period
    /// index as the flash crowd's hour axis.
    DemandSpike(FlashCrowd),
    /// Multiplies one data center's posted price by `factor` during
    /// periods `from .. from + periods`.
    PriceShock {
        /// Data center hit by the shock.
        dc: usize,
        /// First affected period.
        from: usize,
        /// Number of consecutive affected periods.
        periods: usize,
        /// Price multiplier (e.g. `3.0` for a 3× spot-price spike).
        factor: f64,
    },
    /// A full datacenter outage: capacity at `dc` drops to zero during
    /// periods `start .. start + duration`.
    DcOutage {
        /// Data center that goes dark.
        dc: usize,
        /// First affected period.
        start: usize,
        /// Number of consecutive affected periods.
        duration: usize,
    },
    /// Partial capacity loss: capacity at `dc` is multiplied by
    /// `factor` (clamped to `[0, 1]`) during
    /// `start .. start + duration`. Overlapping degradations compose
    /// multiplicatively; an overlapping [`Fault::DcOutage`] wins (the
    /// composed factor is zero).
    CapacityDegrade {
        /// Data center losing capacity.
        dc: usize,
        /// Remaining-capacity fraction (e.g. `0.4` keeps 40%).
        factor: f64,
        /// First affected period.
        start: usize,
        /// Number of consecutive affected periods.
        duration: usize,
    },
}

/// A declarative set of faults to inject into a scenario.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a solver outage covering `periods` periods starting at `from`.
    pub fn solver_outage(mut self, from: usize, periods: usize) -> Self {
        self.faults.push(Fault::SolverOutage { from, periods });
        self
    }

    /// Adds a flash-crowd demand spike.
    pub fn demand_spike(mut self, crowd: FlashCrowd) -> Self {
        self.faults.push(Fault::DemandSpike(crowd));
        self
    }

    /// Adds a price shock on data center `dc`.
    pub fn price_shock(mut self, dc: usize, from: usize, periods: usize, factor: f64) -> Self {
        self.faults.push(Fault::PriceShock {
            dc,
            from,
            periods,
            factor,
        });
        self
    }

    /// Adds a full outage of data center `dc` covering
    /// `start .. start + duration`.
    pub fn dc_outage(mut self, dc: usize, start: usize, duration: usize) -> Self {
        self.faults.push(Fault::DcOutage {
            dc,
            start,
            duration,
        });
        self
    }

    /// Adds a capacity degradation on data center `dc`: the remaining
    /// fraction `factor` of its capacity survives during
    /// `start .. start + duration`.
    pub fn capacity_degrade(
        mut self,
        dc: usize,
        factor: f64,
        start: usize,
        duration: usize,
    ) -> Self {
        self.faults.push(Fault::CapacityDegrade {
            dc,
            factor,
            start,
            duration,
        });
        self
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The individual faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True if some solver outage covers period `k`.
    pub fn outage_at(&self, k: usize) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::SolverOutage { from, periods } => (*from..from + periods).contains(&k),
            _ => false,
        })
    }

    /// Applies every demand spike to a `[location][period]` trace,
    /// treating the period index as the flash crowd's hour axis.
    pub fn apply_to_demand(&self, demand: &mut [Vec<f64>]) {
        for fault in &self.faults {
            let Fault::DemandSpike(crowd) = fault else {
                continue;
            };
            for (v, series) in demand.iter_mut().enumerate() {
                for (k, d) in series.iter_mut().enumerate() {
                    *d *= crowd.multiplier_for(v, k as f64);
                }
            }
        }
    }

    /// Applies every price shock to a `[dc][period]` price trace.
    pub fn apply_to_prices(&self, prices: &mut [Vec<f64>]) {
        for fault in &self.faults {
            let Fault::PriceShock {
                dc,
                from,
                periods,
                factor,
            } = fault
            else {
                continue;
            };
            if let Some(series) = prices.get_mut(*dc) {
                for k in *from..(from + periods).min(series.len()) {
                    series[k] *= factor;
                }
            }
        }
    }

    /// True when the plan removes capacity (any [`Fault::DcOutage`] or
    /// [`Fault::CapacityDegrade`]).
    pub fn has_capacity_faults(&self) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::DcOutage { .. } | Fault::CapacityDegrade { .. }))
    }

    /// Fraction of data center `dc`'s nominal capacity that survives at
    /// period `k`. Overlapping degradations compose multiplicatively; an
    /// active outage forces zero.
    pub fn capacity_factor(&self, dc: usize, k: usize) -> f64 {
        let mut factor = 1.0f64;
        for fault in &self.faults {
            match fault {
                Fault::DcOutage {
                    dc: l,
                    start,
                    duration,
                } if *l == dc && (*start..start + duration).contains(&k) => {
                    return 0.0;
                }
                Fault::CapacityDegrade {
                    dc: l,
                    factor: f,
                    start,
                    duration,
                } if *l == dc && (*start..start + duration).contains(&k) => {
                    factor *= f.clamp(0.0, 1.0);
                }
                _ => {}
            }
        }
        factor
    }

    /// Materializes the plan's capacity faults as a per-period capacity
    /// schedule `[period][dc]` over `periods` periods, scaling the
    /// problem's nominal capacities. Returns `None` when the plan has no
    /// capacity faults, so fault-free runs keep the static-capacity
    /// fast path.
    pub fn capacity_schedule(&self, problem: &Dspp, periods: usize) -> Option<Vec<Vec<f64>>> {
        if !self.has_capacity_faults() {
            return None;
        }
        let nl = problem.num_dcs();
        Some(
            (0..periods)
                .map(|k| {
                    (0..nl)
                        .map(|l| problem.capacity(l) * self.capacity_factor(l, k))
                        .collect()
                })
                .collect(),
        )
    }

    /// Number of data centers with zero surviving capacity at period `k`.
    pub fn dcs_down(&self, num_dcs: usize, k: usize) -> usize {
        (0..num_dcs)
            .filter(|&l| self.capacity_factor(l, k) == 0.0)
            .count()
    }

    /// Capacity faults whose window opens exactly at period `k`, as
    /// `(kind, dc)` pairs for telemetry onset events.
    pub fn capacity_onsets(&self, k: usize) -> Vec<(&'static str, usize)> {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::DcOutage { dc, start, .. } if *start == k => Some(("dc_outage", *dc)),
                Fault::CapacityDegrade { dc, start, .. } if *start == k => {
                    Some(("capacity_degrade", *dc))
                }
                _ => None,
            })
            .collect()
    }
}

/// Shared view of how many faults a [`FaultingController`] has injected.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    injected: Arc<AtomicU64>,
}

impl FaultStats {
    /// Number of solver failures injected so far (one per failed attempt,
    /// so retries during an outage count individually).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// Wraps a controller and fails its `step` during planned solver outages.
///
/// The wrapper tracks wall-clock periods itself (advancing on successful
/// steps and acknowledged fallbacks), so an outage window refers to the
/// same periods the simulator sees, regardless of how many failed
/// attempts a supervisor makes inside one period.
pub struct FaultingController {
    inner: Box<dyn PlacementPolicy>,
    plan: FaultPlan,
    period: usize,
    /// Next period whose capacity-fault state still needs telemetry
    /// (retried attempts within one period must not double-count).
    capacity_cursor: usize,
    stats: FaultStats,
    telemetry: Recorder,
}

impl FaultingController {
    /// Wraps `inner` with the outage schedule of `plan`.
    pub fn new(inner: Box<dyn PlacementPolicy>, plan: FaultPlan) -> Self {
        FaultingController {
            inner,
            plan,
            period: 0,
            capacity_cursor: 0,
            stats: FaultStats::default(),
            telemetry: Recorder::disabled(),
        }
    }

    /// Once per period, records the plan's capacity-fault state: onset
    /// events for windows opening this period, the `faults.dc_down_periods`
    /// counter backing the `dc_outage` SLO, and the lost-capacity gauge.
    fn note_capacity_state(&mut self) {
        if !self.plan.has_capacity_faults() || self.period < self.capacity_cursor {
            return;
        }
        self.capacity_cursor = self.period + 1;
        for (kind, dc) in self.plan.capacity_onsets(self.period) {
            let counter = match kind {
                "dc_outage" => "faults.dc_outage_onsets",
                _ => "faults.capacity_degrade_onsets",
            };
            self.telemetry.incr(counter, 1);
            self.telemetry.tracer().event_with(
                "runtime.fault_injected",
                [
                    ("severity", AttrValue::Str("warning".into())),
                    ("kind", AttrValue::Str(kind.into())),
                    ("dc", AttrValue::UInt(dc as u64)),
                    ("period", AttrValue::UInt(self.period as u64)),
                ],
            );
        }
        let nl = self.inner.problem().num_dcs();
        if self.plan.dcs_down(nl, self.period) > 0 {
            self.telemetry.incr("faults.dc_down_periods", 1);
        }
        let lost: f64 = (0..nl)
            .map(|l| {
                self.inner.problem().capacity(l) * (1.0 - self.plan.capacity_factor(l, self.period))
            })
            .sum();
        self.telemetry.gauge("faults.capacity_lost", lost);
    }

    /// Emits `runtime.injected_faults` and fault events to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Recorder) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A cloneable handle counting injected failures.
    pub fn stats(&self) -> FaultStats {
        self.stats.clone()
    }
}

impl PlacementPolicy for FaultingController {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        self.note_capacity_state();
        if self.plan.outage_at(self.period) {
            self.stats.injected.fetch_add(1, Ordering::Relaxed);
            self.telemetry.incr("runtime.injected_faults", 1);
            self.telemetry.tracer().event_with(
                "runtime.fault_injected",
                [
                    ("severity", AttrValue::Str("warning".into())),
                    ("kind", AttrValue::Str("solver_outage".into())),
                    ("period", AttrValue::UInt(self.period as u64)),
                ],
            );
            return Err(CoreError::Solver(SolverError::MaxIterations {
                limit: 0,
                gap: f64::INFINITY,
            }));
        }
        let outcome = self.inner.step(observed_demand)?;
        self.period += 1;
        Ok(outcome)
    }

    fn allocation(&self) -> &Allocation {
        self.inner.allocation()
    }

    fn problem(&self) -> &Dspp {
        self.inner.problem()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.inner.attach_telemetry(telemetry);
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        self.inner.checkpoint()
    }

    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        self.inner.restore(checkpoint)?;
        self.period = checkpoint.period;
        self.capacity_cursor = checkpoint.period;
        Ok(())
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        self.inner.note_fallback(observed_demand);
        self.period += 1;
    }

    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        self.inner.set_capacity_schedule(schedule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_windows_cover_half_open_ranges() {
        let plan = FaultPlan::new().solver_outage(2, 2).solver_outage(7, 1);
        let hit: Vec<usize> = (0..10).filter(|&k| plan.outage_at(k)).collect();
        assert_eq!(hit, vec![2, 3, 7]);
        assert!(!FaultPlan::new().outage_at(0));
    }

    #[test]
    fn demand_spike_scales_the_window_only() {
        let plan = FaultPlan::new().demand_spike(FlashCrowd::new(2.0, 4.0, 3.0).at_location(0));
        let mut demand = vec![vec![10.0; 10], vec![10.0; 10]];
        plan.apply_to_demand(&mut demand);
        assert_eq!(demand[1], vec![10.0; 10], "other locations untouched");
        assert_eq!(demand[0][0], 10.0, "before the window untouched");
        assert_eq!(demand[0][9], 10.0, "after the window untouched");
        assert!(demand[0][4] > 25.0, "plateau reaches the 3x magnitude");
    }

    #[test]
    fn price_shock_scales_the_window_only() {
        let plan = FaultPlan::new().price_shock(1, 2, 3, 4.0);
        let mut prices = vec![vec![1.0; 6], vec![1.0; 6]];
        plan.apply_to_prices(&mut prices);
        assert_eq!(prices[0], vec![1.0; 6]);
        assert_eq!(prices[1], vec![1.0, 1.0, 4.0, 4.0, 4.0, 1.0]);
        // Out-of-range dc or window tail is ignored, not a panic.
        let plan = FaultPlan::new().price_shock(5, 0, 99, 2.0);
        plan.apply_to_prices(&mut prices);
    }

    #[test]
    fn capacity_factor_composes_degrade_and_outage() {
        let plan = FaultPlan::new()
            .dc_outage(0, 2, 2)
            .capacity_degrade(0, 0.5, 1, 4)
            .capacity_degrade(1, 0.4, 3, 1);
        assert!(plan.has_capacity_faults());
        assert_eq!(plan.capacity_factor(0, 0), 1.0);
        assert_eq!(plan.capacity_factor(0, 1), 0.5);
        // Outage wins over the degradation in the overlap.
        assert_eq!(plan.capacity_factor(0, 2), 0.0);
        assert_eq!(plan.capacity_factor(0, 3), 0.0);
        assert_eq!(plan.capacity_factor(0, 4), 0.5);
        assert_eq!(plan.capacity_factor(0, 5), 1.0);
        assert_eq!(plan.capacity_factor(1, 3), 0.4);
        assert_eq!(plan.dcs_down(2, 2), 1);
        assert_eq!(plan.dcs_down(2, 0), 0);
        assert!(!FaultPlan::new().solver_outage(0, 1).has_capacity_faults());
    }

    #[test]
    fn capacity_schedule_scales_nominal_capacities() {
        let problem = dspp_core::DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.100)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacity(0, 40.0)
            .capacity(1, 20.0)
            .price_trace(0, vec![1.0; 8])
            .price_trace(1, vec![1.0; 8])
            .build()
            .unwrap();
        assert!(FaultPlan::new().capacity_schedule(&problem, 4).is_none());
        let plan = FaultPlan::new()
            .dc_outage(1, 1, 2)
            .capacity_degrade(0, 0.5, 2, 1);
        let schedule = plan.capacity_schedule(&problem, 4).unwrap();
        assert_eq!(schedule.len(), 4);
        assert_eq!(schedule[0], vec![40.0, 20.0]);
        assert_eq!(schedule[1], vec![40.0, 0.0]);
        assert_eq!(schedule[2], vec![20.0, 0.0]);
        assert_eq!(schedule[3], vec![40.0, 20.0]);
    }

    #[test]
    fn capacity_onsets_report_opening_windows_only() {
        let plan = FaultPlan::new()
            .dc_outage(0, 3, 2)
            .capacity_degrade(1, 0.6, 3, 1)
            .dc_outage(1, 5, 1);
        assert_eq!(
            plan.capacity_onsets(3),
            vec![("dc_outage", 0), ("capacity_degrade", 1)]
        );
        assert_eq!(plan.capacity_onsets(4), vec![]);
        assert_eq!(plan.capacity_onsets(5), vec![("dc_outage", 1)]);
    }
}

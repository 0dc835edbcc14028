//! The pluggable placement-policy framework.
//!
//! The paper evaluates exactly one placement strategy — Algorithm 1's
//! W-step MPC controller. To ask the Carlsson–Eager question ("how close
//! do *simple* allocation policies get to the optimal dynamic policy?")
//! this module puts the controller behind the [`PlacementPolicy`] trait
//! and ships a suite of baseline policies next to the reference
//! [`MpcController`](crate::MpcController) implementation:
//!
//! | Policy | Decision rule | Solver |
//! |---|---|---|
//! | [`MpcController`](crate::MpcController) | Algorithm 1: predict `W` periods, solve the horizon QP, execute `u_{k\|k}` | yes |
//! | [`StaticCheapestDc`] | provision once for peak demand at the cheapest data centers, never move | no |
//! | [`ReactiveThreshold`] | scale a location up/down when utilization leaves a band | no |
//! | [`ProportionalGreedy`] | split each location's demand across data centers in proportion to capacity | no |
//!
//! Every policy is feasibility-guarded: solver-backed policies degrade
//! through the recovery ladder of
//! [`HorizonProblem`](crate::HorizonProblem), closed-form policies through
//! the equivalent arithmetic guard in this module — both report shed
//! demand as [`RecoveryInfo`](crate::RecoveryInfo), so infeasible
//! instances degrade identically across policies.
//!
//! `docs/POLICIES.md` is the handbook: per-policy decision rules with
//! their equation references, the tournament methodology
//! (`policy_tournament` binary in `dspp-experiments`), and the measured
//! simple-vs-optimal gap.

pub(crate) mod guard;
mod proportional;
mod static_cheapest;
mod threshold;

pub use proportional::ProportionalGreedy;
pub use static_cheapest::StaticCheapestDc;
pub use threshold::{ReactiveThreshold, UtilizationBands};

use crate::{Allocation, ControllerCheckpoint, CoreError, Dspp, StepOutcome};
use dspp_telemetry::Recorder;

/// Common interface of placement policies, so the closed-loop simulator,
/// the `dspp-runtime` supervisors, and the experiment harnesses can drive
/// any of them interchangeably.
///
/// A policy owns a [`Dspp`] instance and a current [`Allocation`], starting
/// from [`PlacementPolicy::initial_placement`]. Each control period the
/// driver feeds it the realized demand through [`PlacementPolicy::step`]
/// and receives the next placement plus its cost breakdown as a
/// [`StepOutcome`]. The checkpoint/restore and fallback hooks let the
/// `dspp-runtime` degradation ladder freeze, resume, and hold any policy
/// without knowing which one it is.
///
/// # Examples
///
/// Drive the reference MPC policy and a closed-form baseline through the
/// same trait object:
///
/// ```
/// use dspp_core::policy::{PlacementPolicy, ProportionalGreedy};
/// use dspp_core::{DsppBuilder, MpcController, MpcSettings};
/// use dspp_predict::LastValue;
///
/// # fn main() -> Result<(), dspp_core::CoreError> {
/// let problem = DsppBuilder::new(2, 1)
///     .service_rate(100.0)
///     .sla_latency(0.060)
///     .latency_rows(vec![vec![0.010], vec![0.010]])
///     .price_trace(0, vec![1.0])
///     .price_trace(1, vec![2.0])
///     .build()?;
/// let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
///     Box::new(MpcController::new(
///         problem.clone(),
///         Box::new(LastValue),
///         MpcSettings { horizon: 3, ..MpcSettings::default() },
///     )?),
///     Box::new(ProportionalGreedy::new(problem.clone())?),
/// ];
/// for policy in &mut policies {
///     assert_eq!(policy.initial_placement().total(), 0.0);
///     let outcome = policy.step(&[40.0])?;
///     // Whatever the decision rule, the placement serves the demand...
///     assert!(outcome.allocation.satisfies_demand(policy.problem(), &[40.0], 1e-4));
///     // ...and the eq. 13 router covers the location.
///     assert_eq!(outcome.routing.covered_locations(), vec![0]);
/// }
/// # Ok(())
/// # }
/// ```
pub trait PlacementPolicy {
    /// The placement the policy starts from, before any demand has been
    /// observed — the pyFogSim-style "initial allocation" half of the
    /// contract. Defaults to the current allocation, which equals the
    /// construction-time placement until the first step runs.
    fn initial_placement(&self) -> Allocation {
        self.allocation().clone()
    }

    /// Observes the demand realized in period `k` and decides the
    /// allocation for period `k+1`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on solver failures or malformed input.
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError>;

    /// The current allocation.
    fn allocation(&self) -> &Allocation;

    /// The problem being controlled.
    fn problem(&self) -> &Dspp;

    /// A short name for reports.
    fn name(&self) -> &str;

    /// Routes the policy's metrics (`controller.*`) to `telemetry`.
    /// Policies built before a recorder exists — e.g. inside a
    /// `ScenarioPool` factory — get one attached through this hook; the
    /// default discards it for policies that emit nothing.
    fn attach_telemetry(&mut self, telemetry: Recorder) {
        let _ = telemetry;
    }

    /// Freezes the policy's internal state for a later
    /// [`PlacementPolicy::restore`]. Returns `None` for policies that do
    /// not support checkpointing (the default).
    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        None
    }

    /// Restores state previously frozen by
    /// [`PlacementPolicy::checkpoint`] into this policy, which must have
    /// been built with the same construction parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when the snapshot does not fit
    /// this policy, or (the default) when the policy does not support
    /// checkpointing.
    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        let _ = checkpoint;
        Err(CoreError::InvalidSpec(format!(
            "policy {:?} does not support checkpoint/restore",
            self.name()
        )))
    }

    /// Tells the policy that a supervisor absorbed a failed step by
    /// holding the current placement (`u = 0`) for one period — the
    /// runtime's graceful-degradation path. Implementations advance their
    /// period counter (so price lookups stay aligned with wall-clock
    /// periods) and record the observation; they must not solve anything.
    fn note_fallback(&mut self, observed_demand: &[f64]) {
        let _ = observed_demand;
    }

    /// Installs a time-varying capacity schedule `[absolute period][dc]`
    /// — the infrastructure fault plane's view of datacenter outages and
    /// degradations. Periods beyond the schedule fall back to the
    /// problem's nominal capacities. Solver-backed policies thread the
    /// schedule into the horizon build so the preflight → recovery
    /// ladder sheds exactly the analytic deficit; the default ignores it
    /// (closed-form baselines assume nominal capacity).
    fn set_capacity_schedule(&mut self, schedule: Vec<Vec<f64>>) {
        let _ = schedule;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DsppBuilder, MpcController, MpcSettings};
    use dspp_predict::LastValue;

    fn problem() -> Dspp {
        DsppBuilder::new(2, 2)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
            .capacity(0, 50.0)
            .capacity(1, 50.0)
            .price_trace(0, vec![0.5])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap()
    }

    fn all_policies() -> Vec<Box<dyn PlacementPolicy>> {
        let p = problem();
        vec![
            Box::new(
                MpcController::new(p.clone(), Box::new(LastValue), MpcSettings::default()).unwrap(),
            ),
            Box::new(StaticCheapestDc::new(p.clone(), vec![60.0, 60.0]).unwrap()),
            Box::new(ReactiveThreshold::new(p.clone(), UtilizationBands::default()).unwrap()),
            Box::new(ProportionalGreedy::new(p).unwrap()),
        ]
    }

    #[test]
    fn every_policy_serves_feasible_demand_through_the_trait() {
        let demand = [40.0, 25.0];
        for policy in &mut all_policies() {
            assert_eq!(
                policy.initial_placement().total(),
                0.0,
                "{}: policies start from the zero placement",
                policy.name()
            );
            let out = policy.step(&demand).unwrap();
            assert!(
                out.allocation
                    .satisfies_demand(policy.problem(), &demand, 1e-4),
                "{}: placement must serve the observed demand",
                policy.name()
            );
            assert!(
                out.allocation.satisfies_capacity(policy.problem(), 1e-6),
                "{}: placement must respect capacity",
                policy.name()
            );
            assert!(
                out.recovery.is_none(),
                "{}: a feasible instance must not trigger recovery",
                policy.name()
            );
        }
    }

    #[test]
    fn policy_names_are_unique() {
        let names: Vec<String> = all_policies()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate names in {names:?}");
    }

    #[test]
    fn overload_degrades_identically_across_closed_form_policies() {
        // 2 + 2 servers of capacity against demand needing 6 servers: every
        // guarded policy must stay within capacity and report the same two
        // missing servers through RecoveryInfo, exactly like the MPC
        // recovery path does.
        let p = DsppBuilder::new(2, 1)
            .service_rate(100.0)
            .sla_latency(0.060)
            .latency_rows(vec![vec![0.010], vec![0.010]])
            .capacity(0, 2.0)
            .capacity(1, 2.0)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap();
        let a = p.arc_coeff(0);
        let demand = [6.0 / a];
        let mut policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(
                MpcController::new(p.clone(), Box::new(LastValue), MpcSettings::default()).unwrap(),
            ),
            Box::new(StaticCheapestDc::new(p.clone(), vec![6.0 / a]).unwrap()),
            Box::new(ReactiveThreshold::new(p.clone(), UtilizationBands::default()).unwrap()),
            Box::new(ProportionalGreedy::new(p).unwrap()),
        ];
        for policy in &mut policies {
            let out = policy.step(&demand).unwrap();
            assert!(
                out.allocation.satisfies_capacity(policy.problem(), 1e-6),
                "{}: clamp must hold under overload",
                policy.name()
            );
            let info = out
                .recovery
                .unwrap_or_else(|| panic!("{}: overload must report recovery", policy.name()));
            assert!(
                (info.resource_shortfall - 2.0).abs() < 1e-4,
                "{}: expected 2 missing servers, got {}",
                policy.name(),
                info.resource_shortfall
            );
        }
    }
}

//! The `W = 1` degenerate MPC — the lookahead ablation.

use crate::policy::PlacementPolicy;
use crate::{
    Allocation, ControllerCheckpoint, CoreError, Dspp, MpcController, MpcSettings, StepOutcome,
};
use dspp_predict::Predictor;
use dspp_telemetry::Recorder;

/// Myopic MPC: Algorithm 1 run with a one-period horizon.
///
/// Structurally identical to [`MpcController`] — same predictor
/// interface, same horizon QP, same recovery ladder — but the horizon is
/// pinned to `W = 1`, so the controller optimizes each period in
/// isolation and the quadratic reconfiguration penalty is its only
/// smoothing. The gap between this policy and [`MpcController`] isolates
/// the value of lookahead (the paper's Figure 6 ablation; `MyopicW1`
/// equals `MpcController` with `horizon: 1` bit-for-bit).
pub struct MyopicW1 {
    inner: MpcController,
}

impl std::fmt::Debug for MyopicW1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MyopicW1")
            .field("inner", &self.inner)
            .finish()
    }
}

impl MyopicW1 {
    /// Creates the myopic policy. `settings.horizon` is ignored and forced
    /// to `1`; every other knob (IPM settings, rate limit, telemetry,
    /// recovery) applies unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] for invalid IPM settings.
    pub fn new(
        problem: Dspp,
        predictor: Box<dyn Predictor>,
        settings: MpcSettings,
    ) -> Result<Self, CoreError> {
        let inner = MpcController::new(
            problem,
            predictor,
            MpcSettings {
                horizon: 1,
                ..settings
            },
        )?;
        Ok(MyopicW1 { inner })
    }
}

impl PlacementPolicy for MyopicW1 {
    fn step(&mut self, observed_demand: &[f64]) -> Result<StepOutcome, CoreError> {
        self.inner.step(observed_demand)
    }

    fn allocation(&self) -> &Allocation {
        PlacementPolicy::allocation(&self.inner)
    }

    fn problem(&self) -> &Dspp {
        PlacementPolicy::problem(&self.inner)
    }

    fn name(&self) -> &str {
        "myopic-w1"
    }

    fn attach_telemetry(&mut self, telemetry: Recorder) {
        self.inner.attach_telemetry(telemetry);
    }

    fn checkpoint(&self) -> Option<ControllerCheckpoint> {
        PlacementPolicy::checkpoint(&self.inner)
    }

    fn restore(&mut self, checkpoint: &ControllerCheckpoint) -> Result<(), CoreError> {
        PlacementPolicy::restore(&mut self.inner, checkpoint)
    }

    fn note_fallback(&mut self, observed_demand: &[f64]) {
        PlacementPolicy::note_fallback(&mut self.inner, observed_demand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsppBuilder;
    use dspp_predict::LastValue;

    #[test]
    fn horizon_is_pinned_to_one() {
        let p = DsppBuilder::new(1, 1)
            .price_trace(0, vec![1.0])
            .build()
            .unwrap();
        let c = MyopicW1::new(
            p,
            Box::new(LastValue),
            MpcSettings {
                horizon: 7,
                ..MpcSettings::default()
            },
        )
        .unwrap();
        assert_eq!(c.inner.horizon(), 1);
        assert_eq!(c.name(), "myopic-w1");
    }
}

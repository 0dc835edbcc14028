//! Property-based tests on the infrastructure fault plane.
//!
//! The analytic fixture is the chaos drill's: two 2-server DCs, one
//! city, per-server effective rate `100 − 1/(0.060 − 0.010) = 80`
//! req/s, flat demand 240 — exactly 3 servers of work. Losing either
//! DC leaves 2 surviving servers, so each dark period carries a
//! preflight deficit of exactly 1 server-unit. The property: for *any*
//! outage placement the recovery rung sheds exactly that analytic
//! deficit — never more (over-shedding), never less (SLA fiction) —
//! and never falls back to holding the stale placement.

use dspp::core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy};
use dspp::predict::LastValue;
use dspp::runtime::{run_scenario, FaultPlan, ScenarioSpec};
use dspp::telemetry::Recorder;
use proptest::prelude::*;

const PERIODS: usize = 8;
const DEMAND: f64 = 240.0;
/// Per-server effective service rate under the fixture's SLA.
const EFFECTIVE_RATE: f64 = 80.0;
/// Capacity of each of the two DCs, in servers.
const DC_CAP: f64 = 2.0;

fn controller() -> Box<dyn PlacementPolicy> {
    let problem = DsppBuilder::new(2, 1)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010], vec![0.010]])
        .reconfiguration_weights(vec![0.02, 0.02])
        .capacity(0, DC_CAP)
        .capacity(1, DC_CAP)
        .price_trace(0, vec![1.0])
        .price_trace(1, vec![1.0])
        .build()
        .expect("valid problem");
    Box::new(
        MpcController::new(
            problem,
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                ..MpcSettings::default()
            },
        )
        .expect("valid controller"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recovery shortfall equals the preflight deficit for any outage
    /// placement: `dark_periods × (demand/rate − surviving_capacity)`,
    /// to 1e-6, with zero fallback periods.
    #[test]
    fn prop_outage_shortfall_matches_preflight_deficit(
        dc in 0usize..2,
        start in 0usize..PERIODS,
        duration in 1usize..4,
    ) {
        let spec = ScenarioSpec::new("outage", vec![vec![DEMAND; PERIODS]])
            .with_faults(FaultPlan::new().dc_outage(dc, start, duration));
        let outcome =
            run_scenario(controller(), &spec, &Recorder::disabled()).expect("scenario runs");

        // The closed loop executes N−1 periods of an N-period trace
        // (the last demand entry is lookahead only), so clip the dark
        // window against what actually ran.
        let executed = outcome.report.periods.len();
        let dark = (start + duration).min(executed).saturating_sub(start.min(executed));
        let deficit = dark as f64 * (DEMAND / EFFECTIVE_RATE - DC_CAP).max(0.0);
        prop_assert!(
            (outcome.sla_shortfall - deficit).abs() <= 1e-6,
            "shortfall {} != analytic deficit {} for dc={} start={} duration={}",
            outcome.sla_shortfall,
            deficit,
            dc,
            start,
            duration
        );
        prop_assert_eq!(
            outcome.fallback_periods, 0,
            "outage must be absorbed by recovery solves, not fallback"
        );
    }
}

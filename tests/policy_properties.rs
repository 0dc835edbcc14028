//! Cross-policy invariants: every placement policy — solver-backed or
//! closed-form — must route all demand (eq. 13), respect data-center
//! capacity, and never emit a negative split.

use dspp::core::{
    Dspp, DsppBuilder, MpcController, MpcSettings, PlacementPolicy, ProportionalGreedy,
    ReactiveThreshold, StaticCheapestDc, UtilizationBands,
};
use dspp::predict::LastValue;
use proptest::prelude::*;

fn two_dc_problem(capacity: f64) -> Dspp {
    DsppBuilder::new(2, 2)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.010]])
        .capacities(vec![capacity, capacity])
        .price_trace(0, vec![0.5])
        .price_trace(1, vec![1.0])
        .reconfiguration_weights(vec![0.1, 0.1])
        .build()
        .expect("valid spec")
}

/// Every entrant of the policy suite on a fresh copy of `problem`.
fn all_policies(problem: &Dspp, peak: &[f64]) -> Vec<Box<dyn PlacementPolicy>> {
    let mpc = |horizon| {
        let settings = MpcSettings {
            horizon,
            ..MpcSettings::default()
        };
        MpcController::new(problem.clone(), Box::new(LastValue), settings).unwrap()
    };
    vec![
        Box::new(mpc(3)),
        Box::new(mpc(1)),
        Box::new(StaticCheapestDc::new(problem.clone(), peak.to_vec()).unwrap()),
        Box::new(ReactiveThreshold::new(problem.clone(), UtilizationBands::default()).unwrap()),
        Box::new(ProportionalGreedy::new(problem.clone()).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On any demand path, every policy keeps the three placement
    /// invariants: non-negative arc splits, per-DC capacity, and eq. 13
    /// routing that conserves each location's observed demand. When a
    /// step reports no recovery, the placement must actually cover the
    /// demand it planned for.
    #[test]
    fn prop_policies_keep_placement_invariants(
        capacity in 2.0f64..40.0,
        demands in prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 1..5),
    ) {
        let problem = two_dc_problem(capacity);
        let peak = vec![
            demands.iter().map(|d| d.0).fold(0.0, f64::max),
            demands.iter().map(|d| d.1).fold(0.0, f64::max),
        ];
        for mut policy in all_policies(&problem, &peak) {
            for &(d0, d1) in &demands {
                let observed = [d0, d1];
                let out = policy.step(&observed).unwrap();
                for &x in out.allocation.arc_values() {
                    prop_assert!(x >= 0.0, "{}: negative split {x}", policy.name());
                }
                prop_assert!(
                    out.allocation.satisfies_capacity(&problem, 1e-6),
                    "{}: capacity violated: {:?}",
                    policy.name(),
                    out.allocation.arc_values()
                );
                // Eq. 13 conservation: wherever the placement gives a
                // location any serving weight, the router assigns its
                // full observed demand across its arcs (shed demand
                // still routes; it shows up as queueing overload, not
                // as lost mass).
                let sigma = out.routing.assign(&problem, &observed);
                let capability = out.allocation.capability_per_location(&problem);
                for (v, &d) in observed.iter().enumerate() {
                    if d == 0.0 || capability[v] <= 0.0 {
                        continue;
                    }
                    let routed: f64 = problem
                        .arcs_for_location(v)
                        .into_iter()
                        .map(|e| sigma[e])
                        .sum();
                    prop_assert!(
                        (routed - d).abs() < 1e-9 * (1.0 + d),
                        "{}: location {v} routed {routed} of demand {d}",
                        policy.name()
                    );
                }
                if out.recovery.is_none() {
                    prop_assert!(
                        out.allocation.satisfies_demand(&problem, &observed, 1e-6),
                        "{}: no recovery reported but demand {:?} unmet by {:?}",
                        policy.name(),
                        observed,
                        out.allocation.arc_values()
                    );
                }
            }
        }
    }
}

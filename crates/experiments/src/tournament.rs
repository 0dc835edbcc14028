//! The policy tournament: every [`PlacementPolicy`] against every stock
//! workload family, reported as a simple-vs-optimal gap table.
//!
//! Four deterministic workload families — `steady`, `diurnal`,
//! `flash-crowd` and `price-shock` — run against five entrants: the
//! reference [`MpcController`] (Algorithm 1 with an oracle forecast), the
//! same controller with a one-period horizon (`myopic-w1`), and the three
//! closed-form baselines [`StaticCheapestDc`], [`ReactiveThreshold`] and
//! [`ProportionalGreedy`]. Each family × policy pair is one
//! [`ScenarioSpec`] on the shared [`ScenarioPool`], so the sweep
//! parallelizes with `--jobs` while the emitted table stays
//! byte-identical for any worker count (outcomes return in submission
//! order).
//!
//! The table reports absolute costs plus `cost_vs_wmpc`, each policy's
//! total cost normalized by full W-MPC on the same family — the measured
//! price of simplicity. Methodology, per-policy decision rules and the
//! interpretation of the shipped numbers live in `docs/POLICIES.md`.
//!
//! [`PlacementPolicy`]: dspp_core::PlacementPolicy

use dspp_core::{
    CoreError, Dspp, DsppBuilder, MpcController, MpcSettings, PlacementPolicy, ProportionalGreedy,
    ReactiveThreshold, StaticCheapestDc, UtilizationBands,
};
use dspp_predict::OraclePredictor;
use dspp_runtime::{run_scenarios, FaultPlan, ScenarioPool, ScenarioSpec};
use dspp_telemetry::Recorder;
use dspp_workload::{DemandModel, DiurnalProfile, FlashCrowd};

use crate::{ExpResult, Figure};

/// The stock workload families, in tournament (and emission) order.
pub const FAMILIES: [&str; 4] = ["steady", "diurnal", "flash-crowd", "price-shock"];

/// The competing policies, in tournament order. `wmpc` is the reference
/// every other row is normalized against.
pub const POLICIES: [&str; 5] = [
    "wmpc",
    "myopic-w1",
    "static-cheapest",
    "reactive-threshold",
    "proportional-greedy",
];

/// Two simulated days at one-hour control periods.
const PERIODS: usize = 48;
/// Prediction horizon `W` for the reference W-MPC entrant.
const HORIZON: usize = 6;
/// Per-data-center capacity in servers: generous for the nominal
/// families, binding under the flash crowd so every policy must degrade.
const CAPACITY: f64 = 18.0;

/// Relative population weights of the three client locations.
fn population() -> Vec<f64> {
    vec![1.2, 1.0, 0.8]
}

/// The `[location][period]` base demand of one family (before faults).
///
/// Deterministic by construction: no stochastic noise is mixed in, so a
/// re-run — at any `--jobs` value — reproduces every byte.
pub fn family_demand(family: &str) -> Vec<Vec<f64>> {
    let profile = if family == "steady" {
        DiurnalProfile::constant(400.0)
    } else {
        DiurnalProfile::working_hours(600.0, 120.0)
    };
    let trace = DemandModel::new(profile)
        .with_population_weights(population())
        .generate(PERIODS, 1.0);
    (0..trace.num_locations())
        .map(|v| trace.location(v).to_vec())
        .collect()
}

/// The adversity a family injects on top of its base demand.
///
/// * `flash-crowd` — a 2× surge across hours 33–39 (the second day's
///   peak), pushing required servers past the installed capacity.
/// * `price-shock` — a 3× spot-price spike at data center 0 during the
///   first day's working hours; applied to the price traces by
///   [`family_problem`] before the problem is built, since posted prices
///   are immutable once a [`Dspp`] exists.
pub fn family_faults(family: &str) -> FaultPlan {
    match family {
        "flash-crowd" => FaultPlan::new().demand_spike(FlashCrowd::new(33.0, 6.0, 2.0)),
        "price-shock" => FaultPlan::new().price_shock(0, 9, 8, 3.0),
        _ => FaultPlan::new(),
    }
}

/// The shared wide-area instance every entrant solves: 2 data centers ×
/// 3 metro locations, M/M/1 service rate 100 req/s, 60 ms SLA, expensive
/// reconfiguration (weight 5.0 against hosting prices of ~0.05) so
/// lookahead genuinely pays. Price shocks are folded into the posted
/// price traces here, which is how the W-MPC horizon sees them coming.
///
/// # Errors
///
/// Propagates [`CoreError`] if the instance specification is rejected.
pub fn family_problem(family: &str) -> Result<Dspp, CoreError> {
    let trace_len = PERIODS + HORIZON + 2;
    let mut prices = vec![vec![0.05; trace_len], vec![0.055; trace_len]];
    family_faults(family).apply_to_prices(&mut prices);
    let mut rows = prices.into_iter();
    DsppBuilder::new(2, 3)
        .service_rate(100.0)
        .sla_latency(0.060)
        .latency_rows(vec![vec![0.010, 0.030, 0.020], vec![0.030, 0.010, 0.020]])
        .reconfiguration_weights(vec![5.0, 5.0])
        .capacity(0, CAPACITY)
        .capacity(1, CAPACITY)
        .price_trace(0, rows.next().unwrap())
        .price_trace(1, rows.next().unwrap())
        .build()
}

/// The full cross product as scenario specs, family-major in
/// [`FAMILIES`] × [`POLICIES`] order, each named `"family/policy"`.
pub fn specs() -> Vec<ScenarioSpec> {
    let mut out = Vec::with_capacity(FAMILIES.len() * POLICIES.len());
    for family in FAMILIES {
        let demand = family_demand(family);
        let faults = family_faults(family);
        for policy in POLICIES {
            out.push(
                ScenarioSpec::new(format!("{family}/{policy}"), demand.clone())
                    .with_faults(faults.clone()),
            );
        }
    }
    out
}

/// The scenario factory: parses a spec's `"family/policy"` name and
/// builds the matching entrant. Both solver-backed entrants get the same
/// oracle forecast of the *post-fault* demand, so the `wmpc` vs
/// `myopic-w1` gap isolates the value of the horizon alone.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSpec`] for an unrecognized spec name and
/// propagates construction failures.
pub fn build_policy(spec: &ScenarioSpec) -> Result<Box<dyn PlacementPolicy>, CoreError> {
    let (family, policy) = spec
        .name
        .split_once('/')
        .ok_or_else(|| CoreError::InvalidSpec(format!("malformed spec name {:?}", spec.name)))?;
    let problem = family_problem(family)?;
    let mut truth = family_demand(family);
    family_faults(family).apply_to_demand(&mut truth);
    Ok(match policy {
        "wmpc" | "myopic-w1" => {
            let horizon = if policy == "wmpc" { HORIZON } else { 1 };
            Box::new(MpcController::new(
                problem,
                Box::new(OraclePredictor::new(truth)),
                MpcSettings {
                    horizon,
                    ..MpcSettings::default()
                },
            )?)
        }
        "static-cheapest" => {
            let peak: Vec<f64> = family_demand(family)
                .iter()
                .map(|row| row.iter().cloned().fold(0.0, f64::max))
                .collect();
            Box::new(StaticCheapestDc::new(problem, peak)?)
        }
        "reactive-threshold" => Box::new(ReactiveThreshold::new(
            problem,
            UtilizationBands::default(),
        )?),
        "proportional-greedy" => Box::new(ProportionalGreedy::new(problem)?),
        other => {
            return Err(CoreError::InvalidSpec(format!(
                "unknown policy {other:?} in spec {:?}",
                spec.name
            )))
        }
    })
}

/// What one reduced benchmark sweep measured (see [`small_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SmallSweep {
    /// Scenarios executed (one per policy).
    pub scenarios: usize,
    /// Total cost summed over every policy, in submission order.
    pub total_cost: f64,
    /// SLA shortfall summed over every policy.
    pub sla_shortfall: f64,
    /// Recovery-solve periods summed over every policy.
    pub recovery_periods: u64,
    /// True when the W-MPC entry's total cost is the (weak) minimum.
    pub wmpc_is_cheapest: bool,
}

/// The reduced sweep behind the `policy.tournament_small` perf-baseline
/// workload: the diurnal family truncated to its first day, all five
/// policies on the given pool. Every field of the result is
/// deterministic for a fixed build, so `dspp-bench compare-metrics` can
/// enforce it exactly.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn small_sweep(pool: &ScenarioPool, telemetry: &Recorder) -> ExpResult<SmallSweep> {
    const SMALL_PERIODS: usize = 24;
    let mut demand = family_demand("diurnal");
    for row in &mut demand {
        row.truncate(SMALL_PERIODS);
    }
    let specs: Vec<ScenarioSpec> = POLICIES
        .iter()
        .map(|policy| ScenarioSpec::new(format!("diurnal/{policy}"), demand.clone()))
        .collect();
    let results = run_scenarios(pool, specs, build_policy, telemetry);
    let mut out = SmallSweep {
        scenarios: 0,
        total_cost: 0.0,
        sla_shortfall: 0.0,
        recovery_periods: 0,
        wmpc_is_cheapest: true,
    };
    let mut reference = f64::INFINITY;
    for (i, result) in results.into_iter().enumerate() {
        let outcome = result.map_err(|e| format!("scenario {i} failed: {e}"))?;
        let total = outcome.report.ledger.total();
        if i == 0 {
            reference = total;
        } else if total < reference * (1.0 - 1e-9) {
            out.wmpc_is_cheapest = false;
        }
        out.scenarios += 1;
        out.total_cost += total;
        out.sla_shortfall += outcome.sla_shortfall;
        out.recovery_periods += outcome.recovery_periods;
    }
    Ok(out)
}

/// One tournament row, already paired with its family reference cost.
struct Entry {
    family: usize,
    policy: usize,
    total: f64,
    hosting: f64,
    reconfig: f64,
    shortfall: f64,
    recoveries: f64,
}

/// Runs the tournament on a `jobs`-worker pool and returns the gap
/// table. Submission-order collection makes the output byte-identical
/// for any `jobs` value.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn run(telemetry: &Recorder, jobs: usize) -> ExpResult<Figure> {
    let pool = ScenarioPool::new(jobs).with_telemetry(telemetry.clone());
    let results = run_scenarios(&pool, specs(), build_policy, telemetry);
    let mut entries = Vec::with_capacity(results.len());
    for (i, result) in results.into_iter().enumerate() {
        let outcome = result.map_err(|e| format!("scenario {i} failed: {e}"))?;
        entries.push(Entry {
            family: i / POLICIES.len(),
            policy: i % POLICIES.len(),
            total: outcome.report.ledger.total(),
            hosting: outcome.report.ledger.total_hosting(),
            reconfig: outcome.report.ledger.total_reconfiguration(),
            shortfall: outcome.sla_shortfall,
            recoveries: outcome.recovery_periods as f64,
        });
    }

    // Reference cost per family: the wmpc entry (policy index 0).
    let reference: Vec<f64> = entries
        .iter()
        .filter(|e| e.policy == 0)
        .map(|e| e.total)
        .collect();

    let rows: Vec<Vec<f64>> = entries
        .iter()
        .map(|e| {
            vec![
                e.family as f64,
                e.policy as f64,
                e.total,
                e.hosting,
                e.reconfig,
                e.shortfall,
                e.recoveries,
                e.total / reference[e.family],
            ]
        })
        .collect();

    let mut notes = vec![
        format!(
            "families: {}; policies: {}",
            FAMILIES
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{i}={f}"))
                .collect::<Vec<_>>()
                .join(" "),
            POLICIES
                .iter()
                .enumerate()
                .map(|(i, p)| format!("{i}={p}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        "cost_vs_wmpc: total cost normalized by the W-MPC entry of the same family".into(),
    ];
    let mut dominated = true;
    for (f, family) in FAMILIES.iter().enumerate() {
        let mut worst = (1.0f64, 0usize);
        for e in entries.iter().filter(|e| e.family == f) {
            let ratio = e.total / reference[f];
            if ratio < 1.0 - 1e-6 {
                dominated = false;
            }
            if ratio > worst.0 {
                worst = (ratio, e.policy);
            }
        }
        notes.push(format!(
            "{family}: worst gap x{:.3} ({})",
            worst.0, POLICIES[worst.1]
        ));
    }
    notes.push(if dominated {
        "W-MPC weakly dominates every baseline on total cost in all families".into()
    } else {
        "DOMINANCE VIOLATED: some baseline beat W-MPC on total cost".into()
    });

    Ok(Figure {
        id: "policy_tournament",
        title: "Policy tournament: simple-vs-optimal gap across workload families".into(),
        header: [
            "family",
            "policy",
            "total_cost",
            "hosting_cost",
            "reconfig_cost",
            "sla_shortfall",
            "recovery_periods",
            "cost_vs_wmpc",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_cross_product_with_parseable_names() {
        let all = specs();
        assert_eq!(all.len(), FAMILIES.len() * POLICIES.len());
        for spec in &all {
            let controller = build_policy(spec).unwrap();
            let (_, policy) = spec.name.split_once('/').unwrap();
            // Both solver-backed entrants are the controller, named "mpc";
            // every other entrant matches its spec label.
            let expected = match policy {
                "wmpc" | "myopic-w1" => "mpc",
                other => other,
            };
            assert_eq!(controller.name(), expected);
            assert_eq!(spec.demand.len(), 3);
            assert_eq!(spec.demand[0].len(), PERIODS);
        }
    }

    /// The `myopic-w1` entrant is the controller itself, so `run_scenario`
    /// hands a DC outage's capacity schedule to its solve: nothing is
    /// placed on the dark data center while it is down.
    #[test]
    fn myopic_entrant_places_nothing_on_a_dark_data_center() {
        let (start, duration) = (10, 6);
        let spec = ScenarioSpec::new("diurnal/myopic-w1", family_demand("diurnal"))
            .with_faults(FaultPlan::new().dc_outage(1, start, duration));
        let policy = build_policy(&spec).unwrap();
        let outcome = dspp_runtime::run_scenario(policy, &spec, &Recorder::disabled()).unwrap();
        for p in &outcome.report.periods[start..start + duration] {
            assert_eq!(p.per_dc[1], 0.0, "period {}: {:?}", p.period, p.per_dc);
        }
    }

    #[test]
    fn unknown_specs_are_rejected() {
        let demand = family_demand("steady");
        assert!(build_policy(&ScenarioSpec::new("nope", demand.clone())).is_err());
        assert!(build_policy(&ScenarioSpec::new("steady/nope", demand)).is_err());
    }

    #[test]
    fn flash_crowd_overloads_the_installed_capacity() {
        let mut demand = family_demand("flash-crowd");
        family_faults("flash-crowd").apply_to_demand(&mut demand);
        let problem = family_problem("flash-crowd").unwrap();
        let peak: f64 = (0..PERIODS)
            .map(|k| {
                (0..demand.len())
                    .map(|v| {
                        let a = problem
                            .arcs_for_location(v)
                            .iter()
                            .map(|&e| problem.arc_coeff(e))
                            .fold(f64::INFINITY, f64::min);
                        a * demand[v][k]
                    })
                    .sum::<f64>()
            })
            .fold(0.0, f64::max);
        assert!(
            peak > 2.0 * CAPACITY,
            "flash peak needs {peak:.1} servers, capacity is {}",
            2.0 * CAPACITY
        );
    }

    #[test]
    fn price_shock_rewrites_only_the_shocked_window() {
        let base = family_problem("steady").unwrap();
        let shocked = family_problem("price-shock").unwrap();
        assert_eq!(shocked.price(0, 8), base.price(0, 8));
        assert!((shocked.price(0, 12) - 3.0 * base.price(0, 12)).abs() < 1e-12);
        assert_eq!(shocked.price(0, 17), base.price(0, 17));
        assert_eq!(shocked.price(1, 12), base.price(1, 12));
    }

    #[test]
    fn small_sweep_is_deterministic_and_wmpc_cheapest() {
        let a = small_sweep(&ScenarioPool::new(1), &Recorder::disabled()).unwrap();
        let b = small_sweep(&ScenarioPool::new(3), &Recorder::disabled()).unwrap();
        assert_eq!(a, b, "reduced sweep must not depend on pool width");
        assert_eq!(a.scenarios, POLICIES.len());
        assert!(a.wmpc_is_cheapest);
        assert!(a.total_cost > 0.0);
    }

    #[test]
    fn tournament_is_deterministic_and_wmpc_weakly_dominates() {
        let fig1 = run(&Recorder::disabled(), 1).unwrap();
        let fig4 = run(&Recorder::disabled(), 4).unwrap();
        let csv = |f: &Figure| {
            f.rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|x| format!("{x:.6}"))
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            csv(&fig1),
            csv(&fig4),
            "gap table must not depend on --jobs"
        );
        assert_eq!(fig1.rows.len(), FAMILIES.len() * POLICIES.len());
        for row in &fig1.rows {
            let ratio = row[7];
            assert!(
                ratio >= 1.0 - 1e-6,
                "policy {} beat wmpc on family {} (ratio {ratio})",
                POLICIES[row[1] as usize],
                FAMILIES[row[0] as usize]
            );
        }
        // The flash crowd is the one family that must overload everyone.
        let flash = FAMILIES.iter().position(|f| *f == "flash-crowd").unwrap();
        for row in fig1.rows.iter().filter(|r| r[0] as usize == flash) {
            assert!(
                row[5] > 0.0,
                "policy {} reported no shortfall under the flash crowd",
                POLICIES[row[1] as usize]
            );
        }
        assert!(fig1.notes.iter().any(|n| n.contains("weakly dominates")));
    }
}

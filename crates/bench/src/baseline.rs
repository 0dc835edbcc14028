//! Perf-baseline recording and regression comparison (the `dspp-bench`
//! binary).
//!
//! `record` times the workloads in [`WORKLOADS`] — solves on the
//! structured KKT path at the paper's scale and at 100×, controller and
//! recovery steps, game runs and sweeps, runtime sweeps and drills, a
//! checkpoint round-trip, an ingest period and an SLO pass — and writes
//! their throughput plus latency quantiles as JSON (the committed
//! `BENCH_BASELINE.json`). The paper-scale solve first runs the no-op
//! telemetry contract. The table under "The perf-baseline gate" in
//! `docs/OBSERVABILITY.md` lists what one timed iteration of each runs
//! and which counters it pins; a test keeps it in step with
//! [`WORKLOADS`]. `compare` re-measures the same workloads and fails
//! with a readable delta report when throughput regresses beyond a
//! tolerance. Quantiles are reported for context but only throughput
//! gates: wall-clock quantiles on shared CI hardware are too noisy to
//! fail a build on. Each workload also carries *deterministic* counters
//! (IPM iterations, warm-start hits/savings, allocation counts, game
//! rounds); [`compare_metrics`] checks those exactly and backs the
//! enforcing `bench-metrics` CI job.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dspp_core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy, ProportionalGreedy};
use dspp_experiments::tournament;
use dspp_game::{GameConfig, ResourceGame, SpSampler};
use dspp_ingest::{BackpressureBudget, IngestConfig, IngestLoop};
use dspp_predict::LastValue;
use dspp_runtime::{run_scenario, run_scenarios, FaultPlan, ScenarioPool, ScenarioSpec};
use dspp_sim::{ClosedLoopSim, SimCheckpoint};
use dspp_solver::{solve_structured, IpmSettings};
use dspp_telemetry::json::{self, JsonValue};
use dspp_telemetry::{Recorder, SloEngine, SloSample, SloSpec, Snapshot};

use crate::{
    alloc_count, horizon_fixture, huge_problem, multi_dc_problem, paper_brownout_controller,
    paper_horizon, single_dc_problem, starved_single_dc_problem,
};

/// Largest tolerated no-op (disabled-recorder) telemetry overhead, as a
/// fraction of the untraced solve (the contract `solver.lq_solve` runs).
const MAX_NOOP_OVERHEAD: f64 = 0.05;

/// Interleaved rounds of the no-op overhead contract (one solve per
/// variant each).
const CONTRACT_ROUNDS: usize = 200;

/// Schema version of the baseline file.
///
/// Version 2 added per-workload deterministic `counters` and the
/// `game.round_4sp.*` / `solver.warm_vs_cold` workloads.
pub const BASELINE_SCHEMA_VERSION: u64 = 2;

/// Measured performance of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Workload name, e.g. `"solver.lq_solve"`.
    pub name: String,
    /// Timed iterations behind the numbers.
    pub samples: u64,
    /// Iterations per second, derived from the *median* per-iteration
    /// latency (the regression gate). Median-derived throughput is robust
    /// to scheduler outliers on shared hardware, where a handful of
    /// preempted iterations would otherwise swing a wall-clock mean by
    /// tens of percent.
    pub throughput: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Deterministic counters for this workload — IPM iteration totals,
    /// warm-start hits, allocation counts. Exactly reproducible for a
    /// fixed build, so [`compare_metrics`] can *enforce* them where the
    /// wall-clock comparison can only warn.
    pub counters: Vec<(String, f64)>,
}

/// A full baseline: one [`Metric`] per workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Schema version (see [`BASELINE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Measured workloads, in recording order.
    pub metrics: Vec<Metric>,
}

/// Nearest-rank quantile of a sorted sample vector.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times `iters` runs of `f` (after `warmup` untimed runs) and folds the
/// per-iteration latencies into a [`Metric`].
pub fn measure(name: &str, warmup: usize, iters: usize, mut f: impl FnMut()) -> Metric {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        f();
    }
    let mut samples_us = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    Metric {
        name: name.to_string(),
        samples: iters as u64,
        throughput: 1e6 / quantile(&samples_us, 0.50).max(1e-6),
        p50_us: quantile(&samples_us, 0.50),
        p90_us: quantile(&samples_us, 0.90),
        p99_us: quantile(&samples_us, 0.99),
        counters: Vec::new(),
    }
}

impl Metric {
    /// Attaches deterministic counters to a measured workload. Counters
    /// are kept sorted by name so a JSON round-trip (which stores them as
    /// an object) reproduces the in-memory value exactly.
    #[must_use]
    pub fn with_counters(mut self, mut counters: Vec<(String, f64)>) -> Metric {
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.counters = counters;
        self
    }
}

/// Every baseline workload, in canonical recording order. `record_selected`
/// validates its `only` filter against this list, and the committed
/// `BENCH_BASELINE.json` carries the workloads in exactly this order.
pub const WORKLOADS: [&str; 17] = [
    "solver.lq_solve",
    "controller.step",
    "controller.recovery_step",
    "game.best_response_run",
    "runtime.scenario_sweep",
    "runtime.checkpoint_roundtrip",
    "game.round_4sp.seq",
    "game.round_4sp.par",
    "solver.warm_vs_cold",
    "policy.tournament_small",
    "telemetry.slo_eval",
    "ingest.period",
    "runtime.dc_outage_drill",
    "solver.lq_solve.large",
    "solver.lq_solve.large_w8",
    "controller.recovery_step.large",
    "controller.recovery_step.paper",
];

/// Runs every baseline workload with `iters` timed iterations each.
pub fn record(iters: usize) -> Baseline {
    record_selected(iters, &[])
}

/// Like [`record`], but restricted to the workloads named in `only` (all
/// of them when `only` is empty). A skipped workload pays nothing — neither
/// its fixtures nor its measurement loop runs — which is what lets the CI
/// scaling job time `solver.lq_solve.large` in isolation.
///
/// # Panics
///
/// Panics when `only` names a workload not in [`WORKLOADS`].
pub fn record_selected(iters: usize, only: &[String]) -> Baseline {
    for name in only {
        assert!(
            WORKLOADS.contains(&name.as_str()),
            "unknown workload {name:?} (see baseline::WORKLOADS)"
        );
    }
    let pick = |name: &str| only.is_empty() || only.iter().any(|n| n == name);
    let warmup = (iters / 5).max(2);

    // 1. One horizon solve on the paper instance (4 DCs × 24 cities, 65
    // arcs, W = 5) through `HorizonProblem::solve`, the structured KKT
    // path every controller step runs, at the controller's default IPM
    // settings. Deterministic counters: IPM iterations and allocations
    // of one solve. The paper horizon and its cold solve are shared with
    // workload 9's warm/cold split.
    //
    // First, the no-op telemetry contract: a solve behind a disabled
    // recorder must stay < 5 % slower than the plain one, so every hot
    // path can ship instrumented. `HorizonProblem::solve` is
    // `solve_structured_warm_traced` with a disabled recorder, which
    // differs from `solve_structured` only by `trace_lq_solve`'s
    // `is_enabled()` branch: the IPM's own instrumentation runs on both
    // sides, so the contract bounds the traced wrapper's cost. The two
    // run interleaved, so load drift hits both alike, and the fastest of
    // each is compared. A breach panics wherever the workload runs.
    let ipm = IpmSettings::default();
    let paper = (pick("solver.lq_solve") || pick("solver.warm_vs_cold")).then(|| {
        let paper = paper_horizon(1.0);
        let cold = alloc_count::count(|| paper.solve(&ipm).expect("paper fixture solves"));
        (paper, cold)
    });
    let solver = pick("solver.lq_solve").then(|| {
        let (paper, (cold_sol, cold_allocs)) = paper.as_ref().expect("paper fixture built");
        let slq = paper.structured();
        let mut best_plain = Duration::MAX;
        let mut best_disabled = Duration::MAX;
        for _ in 0..CONTRACT_ROUNDS {
            let t = Instant::now();
            solve_structured(slq, &ipm).expect("solve");
            best_plain = best_plain.min(t.elapsed());
            let t = Instant::now();
            paper.solve(&ipm).expect("solve");
            best_disabled = best_disabled.min(t.elapsed());
        }
        let overhead = best_disabled.as_secs_f64() / best_plain.as_secs_f64() - 1.0;
        println!(
            "no-op telemetry overhead: {:+.2}% (untraced min {best_plain:?}, \
             traced-disabled min {best_disabled:?}, {CONTRACT_ROUNDS} interleaved rounds)",
            overhead * 100.0,
        );
        assert!(
            overhead < MAX_NOOP_OVERHEAD,
            "disabled-recorder overhead {:.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            MAX_NOOP_OVERHEAD * 100.0
        );
        measure("solver.lq_solve", warmup, iters, || {
            paper.solve(&ipm).expect("paper fixture solves");
        })
        .with_counters(vec![
            ("ipm_iterations".to_string(), cold_sol.iterations as f64),
            ("allocs".to_string(), *cold_allocs as f64),
        ])
    });

    // 2. One MPC controller step (horizon 6, single DC). A step advances
    // the controller's internal period, so give it a long price trace and
    // rebuild once the trace is exhausted.
    let horizon = 6usize;
    let periods = 512usize;
    let controller_metric = pick("controller.step").then(|| {
        let make = || {
            MpcController::new(
                single_dc_problem(periods),
                Box::new(LastValue),
                MpcSettings {
                    horizon,
                    ipm: IpmSettings::fast(),
                    ..MpcSettings::default()
                },
            )
            .expect("controller fixture")
        };
        let mut controller = make();
        let mut used = 0usize;
        measure("controller.step", warmup, iters, || {
            if used + horizon + 1 >= periods {
                controller = make();
                used = 0;
            }
            controller.step(&[12_000.0]).expect("step");
            used += 1;
        })
    });

    // 3. One capacity-starved MPC step: the strict horizon QP is
    // infeasible every period, so each step runs the preflight check plus
    // the slack-relaxed recovery solve — the feasibility guardian's hot
    // path under sustained overload.
    let recovery_metric = pick("controller.recovery_step").then(|| {
        let make_starved = || {
            MpcController::new(
                starved_single_dc_problem(periods),
                Box::new(LastValue),
                MpcSettings {
                    horizon,
                    ipm: IpmSettings::fast(),
                    ..MpcSettings::default()
                },
            )
            .expect("starved controller fixture")
        };
        let mut starved = make_starved();
        let mut starved_used = 0usize;
        measure("controller.recovery_step", warmup, iters, || {
            if starved_used + horizon + 1 >= periods {
                starved = make_starved();
                starved_used = 0;
            }
            let outcome = starved.step(&[12_000.0]).expect("recovery step");
            assert!(
                outcome.recovery.is_some(),
                "workload must exercise recovery"
            );
            starved_used += 1;
        })
    });

    // 4. One full best-response game run (Algorithm 2), 3 providers.
    // Counters: its rounds, IPM iterations and the iterations the later
    // rounds' warm starts saved.
    let game_metric = pick("game.best_response_run").then(|| {
        let providers = SpSampler::new(2, 2, 3)
            .with_seed(1)
            .sample(3)
            .expect("sample");
        let game = ResourceGame::new(providers, vec![120.0, 120.0]).expect("game");
        let config = GameConfig {
            ipm: IpmSettings::fast(),
            ..GameConfig::default()
        };
        let (counters, _) = game_counters(&game, &config);
        measure("game.best_response_run", warmup, iters, || {
            game.run(&config).expect("game run");
        })
        .with_counters(counters)
    });

    // 5. A dspp-runtime scenario sweep: three closed-loop scenarios (one
    // under an injected solver outage, one drilling checkpoint/restore)
    // fanned out on a two-worker pool. Times the whole engine:
    // controller wrappers, fault injection, pool scheduling.
    let sweep_demand = vec![vec![
        9_000.0, 10_500.0, 12_000.0, 13_000.0, 12_000.0, 10_500.0,
    ]];
    let make_controller = || -> Result<Box<dyn PlacementPolicy>, dspp_core::CoreError> {
        let mpc = MpcController::new(
            single_dc_problem(64),
            Box::new(LastValue),
            MpcSettings {
                horizon: 4,
                ipm: IpmSettings::fast(),
                ..MpcSettings::default()
            },
        )?;
        Ok(Box::new(mpc))
    };
    let runtime_metric = pick("runtime.scenario_sweep").then(|| {
        let pool = ScenarioPool::new(2);
        measure("runtime.scenario_sweep", warmup, iters, || {
            let specs = vec![
                ScenarioSpec::new("plain", sweep_demand.clone()),
                ScenarioSpec::new("outage", sweep_demand.clone())
                    .with_faults(FaultPlan::new().solver_outage(2, 1)),
                ScenarioSpec::new("drill", sweep_demand.clone()).with_checkpoint_at(2),
            ];
            let results = run_scenarios(
                &pool,
                specs,
                move |_| make_controller(),
                &Recorder::disabled(),
            );
            assert!(results.iter().all(Result::is_ok), "scenario sweep runs");
        })
    });

    // 6. A checkpoint JSON round-trip on a mid-run simulation: freeze,
    // serialize, parse, restore. Times the persistence path alone. The
    // run is long (48 executed periods) so the document is big enough
    // for the measurement to be dominated by serialization, not noise.
    let checkpoint_metric = pick("runtime.checkpoint_roundtrip").then(|| {
        let long_demand: Vec<f64> = (0..64)
            .map(|k| 10_000.0 + 3_000.0 * (k as f64 * 0.4).sin())
            .collect();
        let mut sim = ClosedLoopSim::new(
            make_controller().expect("controller fixture"),
            vec![long_demand],
        )
        .expect("sim fixture");
        sim.run_until(48).expect("sim runs to the checkpoint");
        measure("runtime.checkpoint_roundtrip", warmup, iters, || {
            let ck = sim.checkpoint().expect("checkpointable");
            let parsed = SimCheckpoint::from_json(&ck.to_json()).expect("round-trip");
            sim.restore(&parsed).expect("restore");
        })
    });

    // 7–8. One best-response game round sweep at 4 providers, sequential
    // (`jobs = 1`) vs parallel (`jobs = 4`). The deterministic counters —
    // rounds, total IPM iterations, warm-start hits/savings — must be
    // *identical* between the two: the Jacobi sweep merges in provider
    // order, so only wall-clock may differ. `compare-metrics` enforces
    // both the counters and, implicitly, that equality.
    let sweep_game = (pick("game.round_4sp.seq") || pick("game.round_4sp.par")).then(|| {
        let sweep_providers = SpSampler::new(2, 2, 3)
            .with_seed(3)
            .sample(4)
            .expect("sample");
        ResourceGame::new(sweep_providers, vec![60.0, 80.0]).expect("game")
    });
    let sweep_counters = |jobs: usize| -> Vec<(String, f64)> {
        let sweep_game = sweep_game.as_ref().expect("sweep fixture built");
        let config = GameConfig {
            ipm: IpmSettings::fast(),
            jobs,
            ..GameConfig::default()
        };
        let (mut counters, snap) = game_counters(sweep_game, &config);
        let solves = snap.counter("solver.lq.solves") as f64;
        let warm_hits = snap.counter("solver.lq.warm_hits") as f64;
        counters.push(("warm_hits".to_string(), warm_hits));
        counters.push(("warm_hit_rate".to_string(), warm_hits / solves.max(1.0)));
        counters
    };
    let sweep_timed = |name: &str, jobs: usize| -> Metric {
        let game = sweep_game.as_ref().expect("sweep fixture built");
        let config = GameConfig {
            ipm: IpmSettings::fast(),
            jobs,
            ..GameConfig::default()
        };
        measure(name, warmup, iters, || {
            game.run(&config).expect("game run");
        })
        .with_counters(sweep_counters(jobs))
    };
    let sweep_seq = pick("game.round_4sp.seq").then(|| sweep_timed("game.round_4sp.seq", 1));
    let sweep_par = pick("game.round_4sp.par").then(|| sweep_timed("game.round_4sp.par", 4));

    // 9. A warm solve on the paper horizon, seeded with the optimum of a
    // neighbouring horizon whose demand is 5 % higher (the MPC hot path
    // after the first period). Times the warm solve; the counters pin the
    // cold/warm iteration split the warm-start path is supposed to
    // deliver.
    let warm_metric = pick("solver.warm_vs_cold").then(|| {
        let (paper, (cold_sol, _)) = paper.as_ref().expect("paper fixture built");
        let near_sol = paper_horizon(1.05)
            .solve(&ipm)
            .expect("neighbour fixture solves");
        let warm = Some(near_sol.us.as_slice());
        let warm_sol = paper.solve_warm(&ipm, warm).expect("warm fixture solves");
        measure("solver.warm_vs_cold", warmup, iters, || {
            paper.solve_warm(&ipm, warm).expect("warm fixture solves");
        })
        .with_counters(vec![
            ("cold_iterations".to_string(), cold_sol.iterations as f64),
            ("warm_iterations".to_string(), warm_sol.iterations as f64),
            (
                "iterations_saved".to_string(),
                cold_sol.iterations.saturating_sub(warm_sol.iterations) as f64,
            ),
        ])
    });

    // 10. The policy tournament, reduced: all five placement policies on
    // a one-day diurnal trace, fanned out on a two-worker pool. Times the
    // whole pluggable-policy path (trait dispatch, closed-form guards,
    // the W-MPC reference); the counters pin the sweep's deterministic
    // outcome — total cost, shortfall, recovery count, and that W-MPC
    // stays the cheapest entrant.
    let tournament_metric = pick("policy.tournament_small").then(|| {
        let tournament_pool = ScenarioPool::new(2);
        let metric = measure("policy.tournament_small", warmup, iters, || {
            tournament::small_sweep(&tournament_pool, &Recorder::disabled())
                .expect("tournament sweep runs");
        });
        let sweep = tournament::small_sweep(&tournament_pool, &Recorder::disabled())
            .expect("tournament sweep runs");
        metric.with_counters(vec![
            ("scenarios".to_string(), sweep.scenarios as f64),
            ("total_cost".to_string(), sweep.total_cost),
            ("sla_shortfall".to_string(), sweep.sla_shortfall),
            (
                "recovery_periods".to_string(),
                sweep.recovery_periods as f64,
            ),
            (
                "wmpc_is_cheapest".to_string(),
                f64::from(u8::from(sweep.wmpc_is_cheapest)),
            ),
        ])
    });

    // 11. One per-period SLO evaluation on the default burn-rate set.
    // Registration happens at engine construction; the steady-state
    // `observe` pass — ring-window updates, burn computation, counter
    // bumps — must be allocation-free (`allocs` pins that at exactly 0).
    // Transition counts come from a scripted four-period outage replayed
    // on a fresh engine: both are fully deterministic.
    let slo_metric = pick("telemetry.slo_eval").then(|| {
        let slo_telemetry = Recorder::enabled();
        let mut slo_engine = SloEngine::with_defaults(slo_telemetry.clone());
        let healthy = SloSample {
            period: 0,
            step_latency_seconds: 0.002,
            sla_shortfall: 0.0,
            fallback: false,
            recovery: false,
        };
        // Fill every window so the measured pass is true steady state.
        for period in 0..32 {
            slo_engine.observe(&SloSample { period, ..healthy });
        }
        let (_, slo_allocs) = alloc_count::count(|| slo_engine.observe(&healthy));
        let metric = measure("telemetry.slo_eval", warmup, iters, || {
            slo_engine.observe(&healthy);
        });
        let mut scripted = SloEngine::with_defaults(Recorder::enabled());
        for period in 0..16u64 {
            let bad = (2..=5).contains(&period);
            scripted.observe(&SloSample {
                period,
                step_latency_seconds: 0.002,
                sla_shortfall: if bad { 0.2 } else { 0.0 },
                fallback: bad,
                recovery: bad,
            });
        }
        metric.with_counters(vec![
            ("allocs".to_string(), slo_allocs as f64),
            ("slo_evaluations".to_string(), scripted.evaluations() as f64),
            (
                "alert_transitions".to_string(),
                scripted.transitions().len() as f64,
            ),
        ])
    });

    // 12. One period of the streaming front end as production runs it:
    // `IngestLoop::step` draws every city's arrival count, admits against
    // a budget tight enough to defer and drop, routes the admitted
    // requests off the published snapshot, seals the period and steps
    // the controller. `ProportionalGreedy` decides in closed form, so the
    // period is ingest-bound, and it splits every city over four DCs in
    // proportion to their 1:2:3:4 capacities (period 0, before the first
    // placement, is unroutable). The counters pin the ledger of the first
    // four periods exactly — generated, admitted, deferred and dropped
    // requests, the requests routed onto arc 0, the whole routing split
    // (`Σ_e (e + 1) · routed_e` over every arc), the payload KiB of every
    // class — and the allocations of the fourth.
    let ingest_metric = pick("ingest.period").then(|| {
        const PERIODS: usize = 64;
        let make = || {
            let problem = multi_dc_problem(6, PERIODS + 1)
                .with_capacities(vec![1e5, 2e5, 3e5, 4e5])
                .expect("ingest fixture capacities");
            let policy = ProportionalGreedy::new(problem).expect("ingest fixture policy");
            // 14–24 k arrivals per city and period against 19 k admitted
            // and a 1.5 k carry bound.
            let rates = (0..6)
                .map(|v| vec![14_000.0 + 2_000.0 * v as f64; PERIODS])
                .collect();
            let config = IngestConfig::new(17)
                .with_period_seconds(1)
                .with_budget(BackpressureBudget::new(19_000, 1_500));
            IngestLoop::new(Box::new(policy), rates, config).expect("ingest fixture loop")
        };
        let mut counted = make();
        for _ in 0..3 {
            counted.step().expect("ingest period");
        }
        let (_, step_allocs) = alloc_count::count(|| {
            counted.step().expect("ingest period");
        });
        let totals = *counted.totals();
        let arc0_events: u64 = counted.sealed().iter().map(|s| s.arc_counts[0]).sum();
        let arc_split_digest: u64 = counted
            .sealed()
            .iter()
            .flat_map(|s| s.arc_counts.iter().zip(1u64..))
            .map(|(&routed, weight)| weight * routed)
            .sum();
        let class_kib: u64 = counted.sealed().iter().flat_map(|s| s.class_kib).sum();
        let mut ingest = make();
        let metric = measure("ingest.period", warmup, iters, || {
            if ingest.cursor() == ingest.periods() {
                ingest = make();
            }
            ingest.step().expect("ingest period");
        });
        metric.with_counters(vec![
            ("admitted".to_string(), totals.admitted as f64),
            ("allocs".to_string(), step_allocs as f64),
            ("arc0_events".to_string(), arc0_events as f64),
            ("arc_split_digest".to_string(), arc_split_digest as f64),
            ("class_kib".to_string(), class_kib as f64),
            ("deferred".to_string(), totals.deferred as f64),
            ("dropped".to_string(), totals.dropped as f64),
            ("generated".to_string(), totals.generated as f64),
        ])
    });

    // 13. The infrastructure fault drill: a two-DC closed loop that loses
    // DC 1 for two mid-run periods (the chaos-drill fixture). Times the
    // whole fault plane — the per-stage capacity schedule, preflight
    // shedding, the recovery solves, and the dc_outage burn-rate SLO.
    // Flat demand 240 at a = 1/80 needs exactly 3 servers, so the outage
    // leaves a 1-server deficit per dark period: the counters pin the
    // fault bookkeeping and that analytic shortfall (2.0) exactly.
    let outage_metric = pick("runtime.dc_outage_drill").then(|| {
        let outage_spec = || {
            ScenarioSpec::new("dc-outage", vec![vec![240.0; 8]])
                .with_faults(FaultPlan::new().dc_outage(1, 2, 2))
                .with_slos(vec![SloSpec::dc_outage()])
        };
        let make_outage_controller = || -> Box<dyn PlacementPolicy> {
            let problem = DsppBuilder::new(2, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010], vec![0.010]])
                .reconfiguration_weights(vec![0.02, 0.02])
                .capacity(0, 2.0)
                .capacity(1, 2.0)
                .price_trace(0, vec![1.0])
                .price_trace(1, vec![1.0])
                .build()
                .expect("outage fixture problem");
            Box::new(
                MpcController::new(
                    problem,
                    Box::new(LastValue),
                    MpcSettings {
                        horizon: 3,
                        ..MpcSettings::default()
                    },
                )
                .expect("outage fixture controller"),
            )
        };
        let metric = measure("runtime.dc_outage_drill", warmup, iters, || {
            run_scenario(
                make_outage_controller(),
                &outage_spec(),
                &Recorder::disabled(),
            )
            .expect("outage drill runs");
        });
        let outage_telemetry = Recorder::enabled();
        let outage_outcome =
            run_scenario(make_outage_controller(), &outage_spec(), &outage_telemetry)
                .expect("outage drill runs");
        let outage_snap = outage_telemetry.snapshot().expect("enabled recorder");
        metric.with_counters(vec![
            (
                "dc_outage_onsets".to_string(),
                outage_snap.counter("faults.dc_outage_onsets") as f64,
            ),
            (
                "dc_down_periods".to_string(),
                outage_snap.counter("faults.dc_down_periods") as f64,
            ),
            (
                "recovery_periods".to_string(),
                outage_outcome.recovery_periods as f64,
            ),
            ("sla_shortfall".to_string(), outage_outcome.sla_shortfall),
            (
                "alert_transitions".to_string(),
                outage_outcome.slo_transitions.len() as f64,
            ),
            (
                "fallback_periods".to_string(),
                outage_outcome.fallback_periods as f64,
            ),
        ])
    });

    // 14. The 100×-scale structured solve: 100 DCs × 1000 locations ×
    // horizon 4 — 3000 SLA-feasible arcs, a 12000-variable QP per Newton
    // system. The dense Riccati path would cube the 3000-dimensional
    // state; the structured KKT path factors 1000 banded location blocks
    // plus a dense capacity-coupling Schur complement, which is what
    // makes the workload tractable at all. Counters pin the IPM iteration
    // count, the per-solve allocation count, and the number of Schur
    // factorizations (proof the structured backend actually ran). Timed
    // iterations are capped: one solve is long enough that a handful of
    // samples gives a stable median.
    //
    // 15. The same solve at horizon 8: a banded location block's factor
    // grows linearly in W and its explicit inverse quadratically, the
    // dense Schur complement's factor (L·W rows) cubically, so the pair
    // shows how the solve scales in W.
    let large_solve = |name: &str, horizon: usize| {
        pick(name).then(|| {
            let problem = huge_problem(100, 1_000);
            let demand: Vec<f64> = (0..problem.num_locations())
                .map(|v| 1_600.0 + 40.0 * ((v % 11) as f64))
                .collect();
            let sh = horizon_fixture(&problem, &demand, horizon);
            let ipm_large = IpmSettings::fast();
            let telemetry = Recorder::enabled();
            let (sol, large_allocs) = alloc_count::count(|| {
                sh.solve_warm_traced(&ipm_large, None, &telemetry)
                    .expect("large fixture solves")
            });
            let mut counters = vec![
                ("ipm_iterations".to_string(), sol.iterations as f64),
                ("allocs".to_string(), large_allocs as f64),
            ];
            counters.extend(schur_counters(&telemetry));
            measure(name, 1, iters.min(5), || {
                sh.solve(&ipm_large).expect("large fixture solves");
            })
            .with_counters(counters)
        })
    };
    let large_metric = large_solve("solver.lq_solve.large", 4);
    let large_w8_metric = large_solve("solver.lq_solve.large_w8", 8);

    // 16. The 100×-scale recovery step: one MPC step on the same instance
    // with data center 0 dark for the whole window and a uniform demand 1%
    // above what the 99 live DCs can host, so the preflight certifies
    // every horizon infeasible and each step runs the recovery solve — the
    // dead DC's arcs pinned, every demand row softened. Counters pin the
    // first (cold) step's IPM iterations, allocations and Schur
    // factorizations; the CI scaling job gates them next to the healthy
    // solve above.
    let recovery_large_metric = pick("controller.recovery_step.large").then(|| {
        let problem = huge_problem(100, 1_000);
        let horizon = 4usize;
        let live: f64 = (1..problem.num_dcs()).map(|l| problem.capacity(l)).sum();
        let per_location = 1.01 * live
            / (problem.num_locations() as f64 * problem.arc_coeff(0) * problem.server_size());
        let demand = vec![per_location; problem.num_locations()];
        let make = || {
            let mut controller = MpcController::new(
                problem.clone(),
                Box::new(LastValue),
                MpcSettings {
                    horizon,
                    ipm: IpmSettings::fast(),
                    ..MpcSettings::default()
                },
            )
            .expect("large recovery controller");
            let mut caps = problem.capacities().to_vec();
            caps[0] = 0.0;
            controller.set_capacity_schedule(vec![caps; 64]);
            controller
        };
        let counters = first_recovery_step_counters(&mut make(), &demand);
        // The schedule keeps DC 0 dark far past the handful of timed steps.
        let mut controller = make();
        let metric = measure("controller.recovery_step.large", 1, iters.min(5), || {
            let outcome = controller.step(&demand).expect("large recovery step");
            assert!(outcome.recovery.is_some(), "every step must recover");
        });
        metric.with_counters(counters)
    });

    // 17. The paper-scale recovery step: the first MPC step on the paper
    // instance (W = 5, default IPM settings) under `paper_stream`'s
    // all-DC brownout three periods ahead, so the horizon sheds only in
    // its later stages (`paper_brownout_controller`). Counters pin the
    // step's IPM iterations, allocations and Schur factorizations. Each
    // timed iteration is a fresh controller's first step; the controllers
    // are built before the clock starts.
    let recovery_paper_metric = pick("controller.recovery_step.paper").then(|| {
        let (mut counted, demand) = paper_brownout_controller();
        let counters = first_recovery_step_counters(&mut counted, &demand);
        let mut fresh: Vec<MpcController> = (0..warmup + iters)
            .map(|_| paper_brownout_controller().0)
            .collect();
        let mut stepped = Vec::with_capacity(fresh.len());
        let metric = measure("controller.recovery_step.paper", warmup, iters, || {
            let mut controller = fresh.pop().expect("one controller per iteration");
            let outcome = controller.step(&demand).expect("paper recovery step");
            assert!(outcome.recovery.is_some(), "every step must recover");
            stepped.push(controller);
        });
        metric.with_counters(counters)
    });

    Baseline {
        schema_version: BASELINE_SCHEMA_VERSION,
        metrics: [
            solver,
            controller_metric,
            recovery_metric,
            game_metric,
            runtime_metric,
            checkpoint_metric,
            sweep_seq,
            sweep_par,
            warm_metric,
            tournament_metric,
            slo_metric,
            ingest_metric,
            outage_metric,
            large_metric,
            large_w8_metric,
            recovery_large_metric,
            recovery_paper_metric,
        ]
        .into_iter()
        .flatten()
        .collect(),
    }
}

/// Runs `game` once under `config` with an enabled recorder and returns
/// the run's exact counters — its rounds, IPM iterations and the
/// iterations the later rounds' warm starts saved — with the recorder's
/// snapshot.
fn game_counters(game: &ResourceGame, config: &GameConfig) -> (Vec<(String, f64)>, Snapshot) {
    let telemetry = Recorder::enabled();
    let config = GameConfig {
        telemetry: telemetry.clone(),
        ..config.clone()
    };
    let out = game.run(&config).expect("game run");
    let snap = telemetry.snapshot().expect("enabled recorder");
    let counters = vec![
        ("rounds".to_string(), out.iterations as f64),
        (
            "ipm_iterations".to_string(),
            snap.histogram("solver.lq.iterations")
                .map_or(0.0, |h| h.sum),
        ),
        (
            "iterations_saved".to_string(),
            snap.counter("solver.lq.iterations_saved") as f64,
        ),
    ];
    (counters, snap)
}

/// Steps `controller` once, with an enabled recorder attached, and returns
/// the step's exact counters: IPM iterations, allocations and
/// [`schur_counters`]. The step must take the recovery path.
fn first_recovery_step_counters(
    controller: &mut MpcController,
    demand: &[f64],
) -> Vec<(String, f64)> {
    let telemetry = Recorder::enabled();
    controller.attach_telemetry(telemetry.clone());
    let (outcome, allocs) = alloc_count::count(|| controller.step(demand).expect("recovery step"));
    assert!(
        outcome.recovery.is_some(),
        "workload must exercise recovery"
    );
    let mut counters = vec![
        (
            "ipm_iterations".to_string(),
            outcome.solver_iterations as f64,
        ),
        ("allocs".to_string(), allocs as f64),
    ];
    counters.extend(schur_counters(&telemetry));
    counters
}

/// The structured path's exact counters in `telemetry`: Schur
/// factorizations, refined Newton solves (`solver.lq.refinement_passes`
/// observations) and the refinement passes they took.
fn schur_counters(telemetry: &Recorder) -> [(String, f64); 3] {
    let snap = telemetry.snapshot().expect("enabled recorder");
    let passes = snap
        .histogram("solver.lq.refinement_passes")
        .expect("a refined Newton solve");
    [
        (
            "schur_factor".to_string(),
            snap.counter("solver.lq.schur_factor") as f64,
        ),
        ("refined_solves".to_string(), passes.count as f64),
        ("refinement_passes".to_string(), passes.sum),
    ]
}

impl Baseline {
    /// Serializes the baseline as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema_version\": {},\n  \"metrics\": [",
            self.schema_version
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::push_string(&mut out, &m.name);
            let _ = write!(out, ", \"samples\": {}, \"throughput\": ", m.samples);
            json::push_f64_or_null(&mut out, m.throughput);
            for (key, v) in [
                ("p50_us", m.p50_us),
                ("p90_us", m.p90_us),
                ("p99_us", m.p99_us),
            ] {
                let _ = write!(out, ", \"{key}\": ");
                json::push_f64_or_null(&mut out, v);
            }
            out.push_str(", \"counters\": {");
            for (j, (key, v)) in m.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::push_string(&mut out, key);
                out.push_str(": ");
                json::push_f64_or_null(&mut out, *v);
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Splices `recorded`'s rows in: a row of the same name is replaced in
    /// place, a new row goes where [`WORKLOADS`] orders it, and every
    /// other row stays as it is. What `record --only` does to an existing
    /// baseline file.
    pub fn splice(&mut self, recorded: Baseline) {
        let rank = |name: &str| WORKLOADS.iter().position(|w| *w == name);
        for metric in recorded.metrics {
            if let Some(row) = self.metrics.iter_mut().find(|m| m.name == metric.name) {
                *row = metric;
                continue;
            }
            let at = self
                .metrics
                .iter()
                .position(|m| rank(&m.name) > rank(&metric.name))
                .unwrap_or(self.metrics.len());
            self.metrics.insert(at, metric);
        }
    }

    /// Parses a baseline previously written by [`Baseline::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong schema version, or a
    /// missing field.
    pub fn from_json(input: &str) -> Result<Baseline, String> {
        let root = json::parse(input).map_err(|e| format!("baseline JSON: {e}"))?;
        let obj = root.as_object().ok_or("baseline must be a JSON object")?;
        let version = obj
            .get("schema_version")
            .and_then(JsonValue::as_u64)
            .ok_or("missing schema_version")?;
        if version != BASELINE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported baseline schema_version {version} (expected {BASELINE_SCHEMA_VERSION})"
            ));
        }
        let metrics = obj
            .get("metrics")
            .and_then(JsonValue::as_array)
            .ok_or("missing metrics array")?;
        let mut out = Vec::with_capacity(metrics.len());
        for m in metrics {
            let m = m.as_object().ok_or("metric must be an object")?;
            let field = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metric missing numeric field {key:?}"))
            };
            out.push(Metric {
                name: m
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or("metric missing name")?
                    .to_string(),
                samples: m
                    .get("samples")
                    .and_then(JsonValue::as_u64)
                    .ok_or("metric missing samples")?,
                throughput: field("throughput")?,
                p50_us: field("p50_us")?,
                p90_us: field("p90_us")?,
                p99_us: field("p99_us")?,
                counters: match m.get("counters") {
                    None => Vec::new(),
                    Some(c) => {
                        let obj = c.as_object().ok_or("counters must be an object")?;
                        let mut counters = Vec::with_capacity(obj.len());
                        for (key, v) in obj {
                            let v = v
                                .as_f64()
                                .ok_or_else(|| format!("counter {key:?} must be numeric"))?;
                            counters.push((key.clone(), v));
                        }
                        counters
                    }
                },
            });
        }
        Ok(Baseline {
            schema_version: version,
            metrics: out,
        })
    }
}

/// One workload's baseline-vs-current delta.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Workload name.
    pub name: String,
    /// Baseline throughput (iterations/s).
    pub baseline_throughput: f64,
    /// Current throughput (iterations/s).
    pub current_throughput: f64,
    /// `current/baseline - 1`: negative is slower.
    pub relative_change: f64,
    /// True when the slowdown exceeds the tolerance.
    pub regressed: bool,
}

/// Comparison of a current run against a recorded baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Per-workload deltas, baseline order.
    pub deltas: Vec<Delta>,
    /// Workloads present in only one of the two baselines.
    pub unmatched: Vec<String>,
}

impl Comparison {
    /// True when any matched workload regressed (or a workload is missing
    /// from the current run).
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed) || !self.unmatched.is_empty()
    }

    /// The human-readable delta report.
    pub fn report(&self, tolerance: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14} {:>9}  verdict",
            "workload", "baseline it/s", "current it/s", "change"
        );
        for d in &self.deltas {
            let verdict = if d.regressed {
                format!("REGRESSED (slowdown > {:.0}%)", tolerance * 100.0)
            } else {
                "ok".to_string()
            };
            let _ = writeln!(
                out,
                "{:<24} {:>14.1} {:>14.1} {:>+8.1}%  {verdict}",
                d.name,
                d.baseline_throughput,
                d.current_throughput,
                d.relative_change * 100.0
            );
        }
        for name in &self.unmatched {
            let _ = writeln!(out, "{name:<24} present in only one baseline — REGRESSED");
        }
        out
    }
}

/// Compares `current` against `baseline`: a workload regresses when its
/// throughput falls below `baseline * (1 - tolerance)`.
pub fn compare(baseline: &Baseline, current: &Baseline, tolerance: f64) -> Comparison {
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    for b in &baseline.metrics {
        match current.metrics.iter().find(|c| c.name == b.name) {
            Some(c) => {
                let relative_change = if b.throughput > 0.0 {
                    c.throughput / b.throughput - 1.0
                } else {
                    0.0
                };
                deltas.push(Delta {
                    name: b.name.clone(),
                    baseline_throughput: b.throughput,
                    current_throughput: c.throughput,
                    relative_change,
                    regressed: relative_change < -tolerance,
                });
            }
            None => unmatched.push(b.name.clone()),
        }
    }
    for c in &current.metrics {
        if !baseline.metrics.iter().any(|b| b.name == c.name) {
            unmatched.push(c.name.clone());
        }
    }
    Comparison { deltas, unmatched }
}

/// Counters that record an exact outcome of a workload's decisions (its
/// event ledger, cost, shortfall and SLO tallies) rather than the work
/// spent reaching it: a fall is as much a change of behaviour as a rise.
const OUTCOME_COUNTERS: [&str; 14] = [
    "generated",
    "admitted",
    "deferred",
    "dropped",
    "arc0_events",
    "class_kib",
    "total_cost",
    "scenarios",
    "sla_shortfall",
    "recovery_periods",
    "dc_down_periods",
    "dc_outage_onsets",
    "alert_transitions",
    "slo_evaluations",
];

/// How [`compare_metrics`] gates a deterministic counter.
enum Rule {
    /// A cost (iterations, rounds, allocations): regresses when it rises.
    Lower,
    /// A saving (warm hits, hit rates, saved iterations, dominance
    /// flags): regresses when it falls.
    Higher,
    /// An outcome ([`OUTCOME_COUNTERS`]) or a digest of exact values
    /// (`*_digest`): regresses when it moves either way.
    Equal,
}

impl Rule {
    fn of(counter: &str) -> Rule {
        if counter.ends_with("_digest") || OUTCOME_COUNTERS.contains(&counter) {
            Rule::Equal
        } else if counter.ends_with("warm_hits")
            || counter.ends_with("iterations_saved")
            || counter.contains("hit_rate")
            || counter.ends_with("is_cheapest")
        {
            Rule::Higher
        } else {
            Rule::Lower
        }
    }
}

/// One deterministic counter's baseline-vs-current delta.
#[derive(Debug, Clone)]
pub struct CounterDelta {
    /// Workload the counter belongs to.
    pub workload: String,
    /// Counter name, e.g. `"ipm_iterations"`.
    pub counter: String,
    /// Recorded baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// True when the counter moved in its bad direction beyond tolerance.
    pub regressed: bool,
}

/// Comparison of the deterministic counters against a recorded baseline
/// (the *enforcing* CI gate; the wall-clock [`Comparison`] only warns).
#[derive(Debug, Clone)]
pub struct MetricsComparison {
    /// Per-counter deltas, baseline order.
    pub deltas: Vec<CounterDelta>,
    /// `workload/counter` keys present in only one of the two baselines.
    pub unmatched: Vec<String>,
}

impl MetricsComparison {
    /// True when any counter regressed or the counter sets diverged.
    pub fn regressed(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed) || !self.unmatched.is_empty()
    }

    /// The human-readable counter delta report. A passing row prints three
    /// decimals; a regressed row prints both values in full (shortest
    /// round-trip form) and its relative move, so a round-off move never
    /// reads as two equal numbers.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<18} {:>12} {:>12}  verdict",
            "workload", "counter", "baseline", "current"
        );
        for d in &self.deltas {
            if !d.regressed {
                let _ = writeln!(
                    out,
                    "{:<24} {:<18} {:>12.3} {:>12.3}  ok",
                    d.workload, d.counter, d.baseline, d.current
                );
                continue;
            }
            let direction = match Rule::of(&d.counter) {
                Rule::Equal => "changed",
                Rule::Higher => "fell",
                Rule::Lower => "rose",
            };
            let relative = (d.current - d.baseline) / d.baseline.abs();
            let _ = writeln!(
                out,
                "{:<24} {:<18} {:>12} {:>12}  REGRESSED ({direction}) {relative:+.3e}",
                d.workload, d.counter, d.baseline, d.current
            );
        }
        for key in &self.unmatched {
            let _ = writeln!(out, "{key}: present in only one baseline — REGRESSED");
        }
        out
    }
}

/// Compares the deterministic counters of `current` against `baseline`.
///
/// A lower-is-better counter regresses when it exceeds
/// `baseline · (1 + tolerance)`; a higher-is-better counter (warm hits,
/// hit rates, saved iterations) when it falls below
/// `baseline · (1 − tolerance)`; an outcome (`OUTCOME_COUNTERS`) or a
/// digest (`*_digest`) when it moves either way by more than
/// `|baseline| · tolerance`.
/// The counters are exactly reproducible for a fixed build, so CI runs
/// this with `tolerance = 0`.
pub fn compare_metrics(
    baseline: &Baseline,
    current: &Baseline,
    tolerance: f64,
) -> MetricsComparison {
    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    let find = |b: &Baseline, workload: &str, counter: &str| -> Option<f64> {
        b.metrics
            .iter()
            .find(|m| m.name == workload)
            .and_then(|m| m.counters.iter().find(|(k, _)| k == counter))
            .map(|(_, v)| *v)
    };
    for b in &baseline.metrics {
        for (counter, &recorded) in b.counters.iter().map(|(k, v)| (k, v)) {
            match find(current, &b.name, counter) {
                Some(now) => {
                    let regressed = match Rule::of(counter) {
                        Rule::Equal => (now - recorded).abs() > recorded.abs() * tolerance,
                        Rule::Higher => now < recorded * (1.0 - tolerance),
                        Rule::Lower => now > recorded * (1.0 + tolerance),
                    };
                    deltas.push(CounterDelta {
                        workload: b.name.clone(),
                        counter: counter.clone(),
                        baseline: recorded,
                        current: now,
                        regressed,
                    });
                }
                None => unmatched.push(format!("{}/{counter}", b.name)),
            }
        }
    }
    for c in &current.metrics {
        for (counter, _) in &c.counters {
            if find(baseline, &c.name, counter).is_none() {
                unmatched.push(format!("{}/{counter}", c.name));
            }
        }
    }
    MetricsComparison { deltas, unmatched }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`record_selected`] holding a lock shared by every recording test.
    /// The allocation counter is process-wide, so a recording that pins
    /// an allocation count (zero on the ingest and SLO hot paths) must not
    /// overlap another test's allocation-heavy recording on a parallel
    /// test thread.
    fn record_serial(iters: usize, only: &[String]) -> Baseline {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A recording that panicked (the unknown-name test) poisons the
        // lock without leaving shared state behind.
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        record_selected(iters, only)
    }

    fn metric(name: &str, throughput: f64) -> Metric {
        Metric {
            name: name.to_string(),
            samples: 10,
            throughput,
            p50_us: 100.0,
            p90_us: 150.0,
            p99_us: 200.0,
            counters: Vec::new(),
        }
    }

    fn baseline(pairs: &[(&str, f64)]) -> Baseline {
        Baseline {
            schema_version: BASELINE_SCHEMA_VERSION,
            metrics: pairs.iter().map(|(n, t)| metric(n, *t)).collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let mut b = baseline(&[
            ("solver.lq_solve", 1234.5),
            ("game.best_response_run", 56.25),
        ]);
        b.metrics[0] = b.metrics[0].clone().with_counters(vec![
            ("ipm_iterations".to_string(), 14.0),
            ("allocs".to_string(), 2048.0),
        ]);
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
    }

    #[test]
    fn splice_replaces_in_place_and_inserts_in_workload_order() {
        let mut b = baseline(&[
            ("solver.lq_solve", 1.0),
            ("ingest.period", 2.0),
            ("retired.workload", 3.0),
        ]);
        b.splice(baseline(&[
            ("controller.recovery_step.paper", 4.0),
            ("ingest.period", 5.0),
            ("controller.step", 6.0),
        ]));
        let rows: Vec<(&str, f64)> = b
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.throughput))
            .collect();
        assert_eq!(
            rows,
            [
                ("solver.lq_solve", 1.0),
                ("controller.step", 6.0),
                ("ingest.period", 5.0),
                ("retired.workload", 3.0),
                ("controller.recovery_step.paper", 4.0),
            ]
        );
    }

    #[test]
    fn from_json_rejects_bad_input() {
        assert!(Baseline::from_json("not json").is_err());
        assert!(Baseline::from_json("{\"schema_version\": 99, \"metrics\": []}").is_err());
        assert!(Baseline::from_json("{\"metrics\": []}").is_err());
        assert!(
            Baseline::from_json(
                "{\"schema_version\": 1, \"metrics\": [{\"name\": \"x\", \"samples\": 1}]}"
            )
            .is_err(),
            "missing throughput must be rejected"
        );
    }

    #[test]
    fn injected_synthetic_regression_is_flagged() {
        let recorded = baseline(&[("solver.lq_solve", 1000.0), ("controller.step", 500.0)]);
        // Solver 40% slower — beyond the 10% tolerance; controller within it.
        let current = baseline(&[("solver.lq_solve", 600.0), ("controller.step", 480.0)]);
        let cmp = compare(&recorded, &current, 0.10);
        assert!(cmp.regressed());
        assert!(cmp.deltas[0].regressed);
        assert!(!cmp.deltas[1].regressed);
        let report = cmp.report(0.10);
        assert!(report.contains("REGRESSED"), "report:\n{report}");
        assert!(report.contains("solver.lq_solve"));
        assert!(report.contains("-40.0%"), "report:\n{report}");
    }

    #[test]
    fn matching_throughput_passes_and_speedups_never_fail() {
        let recorded = baseline(&[("a", 100.0)]);
        assert!(!compare(&recorded, &baseline(&[("a", 99.0)]), 0.10).regressed());
        assert!(!compare(&recorded, &baseline(&[("a", 500.0)]), 0.10).regressed());
    }

    #[test]
    fn missing_workload_counts_as_regression() {
        let recorded = baseline(&[("a", 100.0), ("b", 100.0)]);
        let cmp = compare(&recorded, &baseline(&[("a", 100.0)]), 0.10);
        assert!(cmp.regressed());
        assert_eq!(cmp.unmatched, vec!["b".to_string()]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quantile(&sorted, 0.50), 5.0);
        assert_eq!(quantile(&sorted, 0.90), 9.0);
        assert_eq!(quantile(&sorted, 0.99), 10.0);
    }

    /// Every workload a unit test may record. The 100×-scale ones have
    /// dedicated tests below (but for the W = 8 solve, which only adds
    /// time to its W = 4 test), and `solver.lq_solve` runs the no-op
    /// telemetry contract, a wall-clock assert that parallel test threads
    /// would skew; `tests/disabled_recorder.rs` checks its solve, and
    /// `solver.warm_vs_cold` pins the same cold solve's iterations.
    fn untimed_workloads() -> Vec<String> {
        WORKLOADS
            .iter()
            .filter(|n| !n.contains(".large") && **n != "solver.lq_solve")
            .map(|n| (*n).to_string())
            .collect()
    }

    #[test]
    fn record_smoke_produces_all_workloads() {
        // Tiny iteration count: correctness of the plumbing, not timing.
        let only = untimed_workloads();
        let b = record_serial(2, &only);
        let names: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, only);
        for m in &b.metrics {
            assert!(m.throughput > 0.0, "{}: non-positive throughput", m.name);
            assert!(m.p50_us <= m.p90_us && m.p90_us <= m.p99_us, "{}", m.name);
        }
        // And the recorded baseline survives its own serialization.
        assert_eq!(Baseline::from_json(&b.to_json()).unwrap(), b);
    }

    #[test]
    fn record_selected_filters_and_keeps_canonical_order() {
        // Ask out of order; the recording must come back in canonical
        // order, with nothing else.
        let only = vec![
            "ingest.period".to_string(),
            "telemetry.slo_eval".to_string(),
        ];
        let b = record_serial(1, &only);
        let names: Vec<&str> = b.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["telemetry.slo_eval", "ingest.period"]);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn record_selected_rejects_unknown_names() {
        record_serial(1, &["solver.no_such_workload".to_string()]);
    }

    #[test]
    fn record_selected_runs_the_large_structured_solve() {
        let b = record_serial(1, &["solver.lq_solve.large".to_string()]);
        assert_eq!(b.metrics.len(), 1);
        let m = &b.metrics[0];
        assert_eq!(m.name, "solver.lq_solve.large");
        let counter = |key: &str| -> f64 {
            m.counters
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing counter {key}"))
                .1
        };
        assert!(counter("ipm_iterations") > 0.0);
        assert!(counter("allocs") > 0.0);
        // Every IPM iteration must have gone through the structured
        // Schur factorization.
        assert!(counter("schur_factor") >= counter("ipm_iterations"));
        // Only the corrector, one per factorization, is refined.
        assert_eq!(counter("refined_solves"), counter("schur_factor"));
    }

    #[test]
    fn record_selected_runs_the_large_recovery_step() {
        let b = record_serial(1, &["controller.recovery_step.large".to_string()]);
        let m = &b.metrics[0];
        assert_eq!(m.name, "controller.recovery_step.large");
        let counter = |key: &str| m.counters.iter().find(|(k, _)| k == key).expect(key).1;
        assert!(counter("ipm_iterations") > 0.0);
        assert!(counter("allocs") > 0.0);
        assert!(counter("schur_factor") >= counter("ipm_iterations"));
        assert_eq!(counter("refined_solves"), counter("schur_factor"));
    }

    #[test]
    fn record_selected_runs_the_paper_recovery_step() {
        let b = record_serial(1, &["controller.recovery_step.paper".to_string()]);
        let m = &b.metrics[0];
        assert_eq!(m.name, "controller.recovery_step.paper");
        let counter = |key: &str| m.counters.iter().find(|(k, _)| k == key).expect(key).1;
        assert!(counter("ipm_iterations") > 0.0);
        assert!(counter("allocs") > 0.0);
        assert!(counter("schur_factor") >= counter("ipm_iterations"));
        assert_eq!(counter("refined_solves"), counter("schur_factor"));
    }

    #[test]
    fn recorded_counters_are_deterministic_and_warm_starts_save_work() {
        let b = record_serial(1, &untimed_workloads());
        let by_name =
            |name: &str| -> &Metric { b.metrics.iter().find(|m| m.name == name).expect(name) };
        let counter = |m: &Metric, key: &str| -> f64 {
            m.counters
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{}: missing counter {key}", m.name))
                .1
        };
        // Sequential and parallel game sweeps are byte-deterministic, so
        // every deterministic counter must agree exactly.
        let seq = by_name("game.round_4sp.seq");
        let par = by_name("game.round_4sp.par");
        assert_eq!(seq.counters, par.counters, "jacobi sweep diverged");
        assert!(counter(seq, "rounds") >= 1.0);
        // Rounds after the first warm-start; the game converges in > 1
        // round on this fixture, so savings must be visible.
        if counter(seq, "rounds") > 1.0 {
            assert!(counter(seq, "warm_hits") > 0.0);
        }
        // The reduced policy tournament pins its sweep outcome, and the
        // reference controller must stay the cheapest entrant.
        let tournament = by_name("policy.tournament_small");
        assert_eq!(counter(tournament, "scenarios"), 5.0);
        assert!(counter(tournament, "total_cost") > 0.0);
        assert_eq!(counter(tournament, "wmpc_is_cheapest"), 1.0);
        // The warm solve must save iterations over the cold one.
        let warm = by_name("solver.warm_vs_cold");
        assert!(counter(warm, "warm_iterations") < counter(warm, "cold_iterations"));
        assert_eq!(
            counter(warm, "iterations_saved"),
            counter(warm, "cold_iterations") - counter(warm, "warm_iterations")
        );
        // The steady-state SLO pass is allocation-free, and the scripted
        // outage replay pins its evaluation and transition counts.
        let slo = by_name("telemetry.slo_eval");
        assert_eq!(counter(slo, "allocs"), 0.0, "SLO hot path allocated");
        assert_eq!(counter(slo, "slo_evaluations"), 16.0);
        assert!(counter(slo, "alert_transitions") >= 3.0);
        // The ingest period defers and drops under its tight budget, routes
        // onto every arc of the 1:2:3:4 split, and pins its payload bytes.
        let ingest = by_name("ingest.period");
        assert!(counter(ingest, "generated") > counter(ingest, "admitted"));
        assert!(counter(ingest, "deferred") > 0.0);
        assert!(counter(ingest, "dropped") > 0.0);
        assert!(counter(ingest, "arc0_events") > 0.0);
        // Every routed request weighs at least 1, arc 0's exactly 1.
        assert!(counter(ingest, "arc_split_digest") > counter(ingest, "arc0_events"));
        assert!(counter(ingest, "class_kib") > counter(ingest, "admitted"));
        // The dc-outage drill sheds exactly the analytic two-period ×
        // one-server deficit through recovery solves — never fallback —
        // and both fault-window edges page the dc_outage SLO.
        let outage = by_name("runtime.dc_outage_drill");
        assert_eq!(counter(outage, "dc_outage_onsets"), 1.0);
        assert_eq!(counter(outage, "dc_down_periods"), 2.0);
        assert!((counter(outage, "sla_shortfall") - 2.0).abs() <= 1e-6);
        assert_eq!(counter(outage, "fallback_periods"), 0.0);
        assert!(counter(outage, "recovery_periods") >= 2.0);
        assert!(counter(outage, "alert_transitions") >= 2.0);
    }

    #[test]
    fn workload_catalogue_in_the_docs_matches_workloads() {
        // The table under "The perf-baseline gate" in OBSERVABILITY.md:
        // one row per workload, `| `name` | one timed iteration | counters |`,
        // each counter followed by its rule: `≤` (must not rise), `≥`
        // (must not fall) or `=` (must not move).
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let section = doc
            .split("### The perf-baseline gate")
            .nth(1)
            .expect("OBSERVABILITY.md has the perf-baseline section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let backticked = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect()
        };
        let rows: Vec<(String, Vec<String>)> = section
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| {
                let cells: Vec<&str> = line.split('|').collect();
                let parts: Vec<&str> = cells[3].split('`').collect();
                for pair in parts[1..].chunks(2) {
                    let symbol = pair
                        .get(1)
                        .and_then(|rest| rest.trim_start().chars().next());
                    let want = match Rule::of(pair[0]) {
                        Rule::Lower => '≤',
                        Rule::Higher => '≥',
                        Rule::Equal => '=',
                    };
                    assert_eq!(symbol, Some(want), "{line}: rule of `{}`", pair[0]);
                }
                let mut counters = backticked(cells[3]);
                counters.sort();
                (backticked(cells[1]).remove(0), counters)
            })
            .collect();
        let documented: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
        let undocumented: Vec<&&str> = WORKLOADS
            .iter()
            .filter(|w| !documented.contains(w))
            .collect();
        let unknown: Vec<&&str> = documented
            .iter()
            .filter(|d| !WORKLOADS.contains(d))
            .collect();
        assert!(
            undocumented.is_empty() && unknown.is_empty(),
            "catalogue drift: undocumented {undocumented:?}, not in WORKLOADS {unknown:?}"
        );
        // Each row's counters are the ones the committed baseline pins.
        let committed = Baseline::from_json(include_str!("../../../BENCH_BASELINE.json"))
            .expect("committed baseline parses");
        for m in &committed.metrics {
            let (_, counters) = rows
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect(&m.name);
            let pinned: Vec<&String> = m.counters.iter().map(|(k, _)| k).collect();
            assert_eq!(
                counters.iter().collect::<Vec<_>>(),
                pinned,
                "{}: documented counters",
                m.name
            );
        }
    }

    #[test]
    fn metrics_comparison_is_direction_aware() {
        let with = |pairs: &[(&str, f64)]| -> Baseline {
            let mut b = baseline(&[("w", 100.0)]);
            b.metrics[0] = b.metrics[0]
                .clone()
                .with_counters(pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect());
            b
        };
        let recorded = with(&[
            ("ipm_iterations", 40.0),
            ("warm_hits", 10.0),
            ("iterations_saved", 12.0),
            ("warm_hit_rate", 0.8),
            ("allocs", 1000.0),
        ]);
        // Identical counters pass at zero tolerance.
        assert!(!compare_metrics(&recorded, &recorded, 0.0).regressed());
        // More iterations / allocs regresses; fewer is fine.
        let worse = with(&[
            ("ipm_iterations", 41.0),
            ("warm_hits", 10.0),
            ("iterations_saved", 12.0),
            ("warm_hit_rate", 0.8),
            ("allocs", 1000.0),
        ]);
        let cmp = compare_metrics(&recorded, &worse, 0.0);
        assert!(cmp.regressed());
        assert!(
            cmp.report().contains("REGRESSED (rose)"),
            "{}",
            cmp.report()
        );
        let better = with(&[
            ("ipm_iterations", 30.0),
            ("warm_hits", 20.0),
            ("iterations_saved", 20.0),
            ("warm_hit_rate", 1.0),
            ("allocs", 500.0),
        ]);
        assert!(!compare_metrics(&recorded, &better, 0.0).regressed());
        // Losing warm hits (higher-is-better) regresses.
        let fewer_hits = with(&[
            ("ipm_iterations", 40.0),
            ("warm_hits", 5.0),
            ("iterations_saved", 12.0),
            ("warm_hit_rate", 0.8),
            ("allocs", 1000.0),
        ]);
        let cmp = compare_metrics(&recorded, &fewer_hits, 0.0);
        assert!(cmp.regressed());
        assert!(
            cmp.report().contains("REGRESSED (fell)"),
            "{}",
            cmp.report()
        );
        // Tolerance forgives small drift in both directions.
        assert!(!compare_metrics(&recorded, &worse, 0.05).regressed());
        assert!(!compare_metrics(&recorded, &fewer_hits, 0.60).regressed());
    }

    #[test]
    fn digests_and_outcomes_regress_when_they_move_either_way() {
        let with = |counter: &str, value: f64| {
            let mut b = baseline(&[("w", 100.0)]);
            b.metrics[0] = b.metrics[0]
                .clone()
                .with_counters(vec![(counter.to_string(), value)]);
            b
        };
        // The last one is the round-off fall a reordering of the solver's
        // arithmetic made in `policy.tournament_small`.
        for (counter, recorded, moves) in [
            ("arc_split_digest", 1_000.0, [999.0, 1_001.0]),
            ("admitted", 1_000.0, [999.0, 1_001.0]),
            (
                "total_cost",
                3191.25805060286,
                [3191.2580506028594, 3191.2580506029],
            ),
        ] {
            let base = with(counter, recorded);
            assert!(!compare_metrics(&base, &with(counter, recorded), 0.0).regressed());
            for moved in moves {
                let cmp = compare_metrics(&base, &with(counter, moved), 0.0);
                assert!(cmp.regressed(), "{counter}: {moved}");
                assert!(
                    cmp.report().contains("REGRESSED (changed)"),
                    "{counter}: {moved}"
                );
            }
        }
        // The round-off pair prints in full, not as two equal numbers.
        let report = compare_metrics(
            &with("total_cost", 3191.2580506028594),
            &with("total_cost", 3191.25805060286),
            0.0,
        )
        .report();
        assert!(
            report.contains("3191.2580506028594") && report.contains("3191.25805060286 "),
            "{report}"
        );
        assert!(
            report.contains("REGRESSED (changed) +1.425e-16"),
            "{report}"
        );
        // A cost that falls still passes.
        let allocs = with("allocs", 1_000.0);
        assert!(!compare_metrics(&allocs, &with("allocs", 999.0), 0.0).regressed());
    }

    #[test]
    fn metrics_comparison_flags_missing_counters() {
        let mut recorded = baseline(&[("w", 100.0)]);
        recorded.metrics[0] = recorded.metrics[0]
            .clone()
            .with_counters(vec![("ipm_iterations".to_string(), 40.0)]);
        let missing = baseline(&[("w", 100.0)]);
        let cmp = compare_metrics(&recorded, &missing, 0.0);
        assert!(cmp.regressed());
        assert_eq!(cmp.unmatched, vec!["w/ipm_iterations".to_string()]);
        // Symmetric: a counter only in the current run also fails (the
        // baseline must be re-recorded to cover it).
        let cmp = compare_metrics(&missing, &recorded, 0.0);
        assert!(cmp.regressed());
    }
}

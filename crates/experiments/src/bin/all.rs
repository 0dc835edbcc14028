//! Regenerates every figure of the evaluation on a `dspp-runtime` worker
//! pool (`--jobs <N>`, default: machine parallelism). Each experiment
//! records into its own telemetry [`Recorder`], and its metric snapshot
//! (solver iterations, controller latencies, game rounds, SLA counters —
//! see `docs/OBSERVABILITY.md`) is printed after the figure's table.
//! Results are emitted in a fixed order regardless of completion order,
//! so the tables and figure CSVs are byte-identical across `--jobs`
//! settings.
//!
//! With `--trace-out <path>` (and/or `--events-out <path>`) one shared
//! flight recorder collects spans from every worker — the Chrome trace
//! then shows the whole regeneration as one multi-track timeline (tracks
//! are threads).
//!
//! With `--fault-drill` the figures are skipped and a fault-injection
//! smoke drill runs instead: a batch of closed-loop scenarios with
//! scheduled solver outages, a flash crowd, and mid-run
//! checkpoint/restore drills. The drill fails (exit 1) unless every
//! scenario completes *and* at least one period was absorbed by the
//! graceful-degradation fallback — CI uses it to prove the resilience
//! path stays wired end to end.
//!
//! With `--fault-drill --infeasible` the drill instead runs
//! capacity-starved flash crowds whose strict horizon QPs are genuinely
//! infeasible, and fails unless the *recovery solve* (not the
//! last-known-good fallback) resolved every infeasible period with a
//! shortfall matching the preflight capacity deficit.
//!
//! With `--fault-drill --soak` a 30-simulated-day streaming soak runs
//! instead: the `dspp-ingest` front end under flash crowds and price
//! shocks, with a mid-stream checkpoint/restore that must resume
//! bit-exactly and an `ingest_backpressure` SLO that must fire and
//! resolve (see [`soak_drill`]).
//!
//! With `--fault-drill --chaos` the infrastructure-fault drill runs
//! instead: a scheduled DC outage through the streaming front end (no
//! request may route to the dead DC; the sealed-ledger FNV hash proves
//! `--jobs` invariance), exact-deficit shedding and the `dc_outage`
//! burn-rate SLO in the closed loop, a deliberately corrupted checkpoint
//! generation that must be detected and rolled back, and the
//! `dspp-analyze` MTTR report derived from the drill's own trace (see
//! [`chaos_drill`]; `--mttr-out <path>` writes the full report).
//!
//! The default figure run additionally executes the streaming-ingest
//! experiment and writes `results/ingest_sealed.csv`, the exact integer
//! sealed-period ledger the determinism CI job diffs across `--jobs`.
//!
//! Both drills also attach the default SLO set
//! ([`SloSpec::default_set`]) to every scenario and assert the
//! burn-rate alerts behaved: sustained adversities must page (a
//! `Firing` transition inside the fault window) and calm tails must
//! clear the page (`Resolved`), while healthy scenarios and one-period
//! blips must stay quiet — multi-window burn rates exist precisely so a
//! single bad period never wakes anyone up. `--slo-out <path>` writes
//! the combined alert timeline as CSV (CI uploads it as an artifact),
//! and `--metrics-addr <host:port>` serves live metrics during the run.

use dspp_core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy};
use dspp_experiments::cli::TraceArgs;
use dspp_experiments::{emit, ExpResult, Figure};
use dspp_ingest::{BackpressureBudget, IngestConfig, IngestLoop};
use dspp_predict::LastValue;
use dspp_runtime::{
    run_scenario, run_scenarios, run_soak, CheckpointStore, FaultPlan, RetryPolicy,
    ScenarioOutcome, ScenarioPool, ScenarioSpec, SoakSpec,
};
use dspp_telemetry::analyze::{analyze_jsonl, AnalyzeOptions};
use dspp_telemetry::{AlertState, Recorder, SloSpec, Snapshot, Tracer, DEFAULT_CAPACITY};
use dspp_workload::FlashCrowd;

fn make_pool(args: &TraceArgs, telemetry: Recorder) -> ScenarioPool {
    match args.jobs {
        Some(n) => ScenarioPool::new(n),
        None => ScenarioPool::with_available_parallelism(),
    }
    .with_telemetry(telemetry)
}

/// What the burn-rate alerts of one drill scenario must have done.
/// `step_latency_p99` is excluded from every check — it reads wall
/// clock, which CI machines make arbitrarily noisy.
#[derive(Clone, Copy)]
enum SloExpect {
    /// No SLO may have transitioned at all.
    Quiet,
    /// The named SLO fired during the run *and* resolved before its end.
    FiredAndResolved(&'static str),
    /// The named SLO fired and was still firing when the trace ended —
    /// a genuine unresolved page.
    StillFiring(&'static str),
}

/// Checks one scenario outcome against its expectation, printing the
/// verdict; returns false on a violated expectation.
fn check_slo(o: &ScenarioOutcome, expect: SloExpect) -> bool {
    let transitions: Vec<_> = o
        .slo_transitions
        .iter()
        .filter(|t| t.slo != "step_latency_p99")
        .collect();
    let last_state = |slo: &str| transitions.iter().rfind(|t| t.slo == slo).map(|t| t.to);
    let fired = |slo: &str| {
        transitions
            .iter()
            .any(|t| t.slo == slo && t.to == AlertState::Firing)
    };
    let (ok, verdict) = match expect {
        SloExpect::Quiet => (
            transitions.is_empty(),
            format!("expected quiet, saw {} transitions", transitions.len()),
        ),
        SloExpect::FiredAndResolved(slo) => (
            fired(slo) && last_state(slo) == Some(AlertState::Resolved),
            format!(
                "expected {slo} to fire and resolve, last={:?}",
                last_state(slo)
            ),
        ),
        SloExpect::StillFiring(slo) => (
            fired(slo) && last_state(slo) == Some(AlertState::Firing),
            format!(
                "expected {slo} to fire and stay firing, last={:?}",
                last_state(slo)
            ),
        ),
    };
    if ok {
        println!("  {}: slo ok ({} transitions)", o.name, transitions.len());
    } else {
        eprintln!("  {}: SLO EXPECTATION FAILED — {verdict}", o.name);
        for t in &transitions {
            eprintln!(
                "    period {} {}: {} -> {} (burn {:.3}/{:.3})",
                t.period, t.slo, t.from, t.to, t.burn_short, t.burn_long
            );
        }
    }
    ok
}

/// Writes the combined alert timeline of every scenario as CSV — the
/// artifact CI uploads from the fault-drill jobs.
fn write_slo_timeline(path: &std::path::Path, outcomes: &[&ScenarioOutcome]) -> bool {
    let mut csv = String::from("scenario,period,slo,from,to,burn_short,burn_long\n");
    for o in outcomes {
        for t in &o.slo_transitions {
            csv.push_str(&format!(
                "{},{},{},{},{},{:.3},{:.3}\n",
                o.name, t.period, t.slo, t.from, t.to, t.burn_short, t.burn_long
            ));
        }
    }
    match std::fs::write(path, csv) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            false
        }
    }
}

/// Prints the drill-wide transition totals CI greps for.
fn print_slo_totals(outcomes: &[&ScenarioOutcome]) {
    let count = |state: AlertState| -> usize {
        outcomes
            .iter()
            .flat_map(|o| &o.slo_transitions)
            .filter(|t| t.slo != "step_latency_p99" && t.to == state)
            .count()
    };
    println!(
        "slo.firing={} slo.resolved={}",
        count(AlertState::Firing),
        count(AlertState::Resolved)
    );
}

/// The `--fault-drill` mode: run a small scenario batch under injected
/// faults and verify the degradation path actually fired.
fn fault_drill(args: &TraceArgs, tracer: &Tracer) -> bool {
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let _server = match args.serve_metrics(&telemetry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("all: {e}");
            return false;
        }
    };
    let pool = make_pool(args, telemetry.clone());
    // A day-ish sinusoid over 16 periods; deterministic, solves fast.
    let demand: Vec<f64> = (0..16)
        .map(|k| 60.0 + 35.0 * (k as f64 * 0.5).sin())
        .collect();
    let specs = vec![
        ScenarioSpec::new("healthy-checkpointed", vec![demand.clone()]).with_checkpoint_at(5),
        ScenarioSpec::new("outage-early", vec![demand.clone()])
            .with_faults(FaultPlan::new().solver_outage(2, 2))
            .with_checkpoint_at(6),
        ScenarioSpec::new("flash-crowd-outage", vec![demand.clone()]).with_faults(
            FaultPlan::new()
                .demand_spike(FlashCrowd::new(8.0, 4.0, 2.0))
                .solver_outage(10, 1),
        ),
        ScenarioSpec::new("outage-no-retries", vec![demand])
            .with_faults(FaultPlan::new().solver_outage(4, 3)),
    ]
    .into_iter()
    .map(|s| {
        s.with_retry(RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        })
        .with_slos(SloSpec::default_set())
    })
    .collect();
    let results = run_scenarios(
        &pool,
        specs,
        |_spec| {
            let problem = DsppBuilder::new(1, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010]])
                .reconfiguration_weights(vec![0.02])
                .price_trace(0, vec![1.0])
                .build()?;
            let mpc = MpcController::new(
                problem,
                Box::new(LastValue),
                MpcSettings {
                    horizon: 3,
                    ..MpcSettings::default()
                },
            )?;
            Ok(Box::new(mpc) as Box<dyn PlacementPolicy>)
        },
        &telemetry,
    );
    let mut ok = true;
    println!(
        "fault drill: {} scenarios on {} workers",
        results.len(),
        pool.workers()
    );
    for result in &results {
        match result {
            Ok(o) => println!(
                "  {}: {} periods, fallbacks={}, retries={}, injected={}, cost={:.2}",
                o.name,
                o.report.periods.len(),
                o.fallback_periods,
                o.retries,
                o.injected_faults,
                o.report.ledger.total()
            ),
            Err(e) => {
                eprintln!("  scenario failed: {e}");
                ok = false;
            }
        }
    }
    let fallbacks: u64 = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.fallback_periods)
        .sum();
    let snapshot_fallbacks = telemetry
        .snapshot()
        .map_or(0, |s| s.counter("runtime.fallback"));
    println!("runtime.fallback={fallbacks} (telemetry counter: {snapshot_fallbacks})");
    if fallbacks == 0 {
        eprintln!("fault drill: no fallback period was exercised — degradation path is dead");
        ok = false;
    }
    // Burn-rate alert assertions: multi-period outages must page and
    // later clear; the healthy run and the one-period blip must not.
    let expectations = [
        ("healthy-checkpointed", SloExpect::Quiet),
        (
            "outage-early",
            SloExpect::FiredAndResolved("fallback_budget"),
        ),
        ("flash-crowd-outage", SloExpect::Quiet),
        (
            "outage-no-retries",
            SloExpect::FiredAndResolved("fallback_budget"),
        ),
    ];
    let outcomes: Vec<&ScenarioOutcome> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    for (name, expect) in expectations {
        match outcomes.iter().find(|o| o.name == name) {
            Some(o) => ok &= check_slo(o, expect),
            None => {
                eprintln!("  {name}: missing outcome for SLO check");
                ok = false;
            }
        }
    }
    print_slo_totals(&outcomes);
    if let Some(path) = &args.slo_out {
        ok &= write_slo_timeline(path, &outcomes);
    }
    ok
}

/// The `--fault-drill --infeasible` mode: capacity-starved flash crowds
/// that make the strict horizon QP genuinely infeasible. The drill fails
/// (exit 1) unless every scenario completes with *zero* last-known-good
/// fallbacks — i.e. the recovery (soft-constraint) solve, the rung above
/// holding the placement, absorbed every infeasible period — and the
/// reported per-period SLA shortfall equals the preflight capacity
/// deficit `max(0, a·D − C)` to 1e-6.
fn infeasible_drill(args: &TraceArgs, tracer: &Tracer) -> bool {
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let _server = match args.serve_metrics(&telemetry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("all: {e}");
            return false;
        }
    };
    let pool = make_pool(args, telemetry.clone());
    // 1×1 drill problem: a = 1/(100 − 1/0.05) = 1/80 servers per unit
    // demand, capacity 1.0 → demand above 80 cannot be served.
    let cap = 1.0;
    let coeff = 1.0 / 80.0;
    let base: Vec<f64> = (0..16)
        .map(|k| 60.0 + 15.0 * (k as f64 * 0.5).sin())
        .collect();
    // Doubling flash crowd over hours 6–10: peaks reach ~150 demand
    // (≈ 1.875 required servers), far past the capacity.
    let crowd = FlashCrowd::new(6.0, 4.0, 2.0);
    let mut crowded = base.clone();
    for (k, d) in crowded.iter_mut().enumerate() {
        *d *= crowd.multiplier_for(0, k as f64);
    }
    let sustained: Vec<f64> = (0..12).map(|k| 90.0 + (k as f64 * 0.7).cos()).collect();
    let specs = vec![
        ScenarioSpec::new("flash-crowd-infeasible", vec![base.clone()])
            .with_faults(FaultPlan::new().demand_spike(crowd))
            .with_checkpoint_at(8)
            .with_slos(SloSpec::default_set()),
        ScenarioSpec::new("sustained-overload", vec![sustained.clone()])
            .with_slos(SloSpec::default_set()),
    ];
    let results = run_scenarios(
        &pool,
        specs,
        move |_spec| {
            let problem = DsppBuilder::new(1, 1)
                .service_rate(100.0)
                .sla_latency(0.060)
                .latency_rows(vec![vec![0.010]])
                .reconfiguration_weights(vec![0.02])
                .price_trace(0, vec![1.0])
                .capacity(0, 1.0)
                .build()?;
            let mpc = MpcController::new(
                problem,
                Box::new(LastValue),
                MpcSettings {
                    horizon: 3,
                    ..MpcSettings::default()
                },
            )?;
            Ok(Box::new(mpc) as Box<dyn PlacementPolicy>)
        },
        &telemetry,
    );
    let mut ok = true;
    println!(
        "infeasible drill: {} scenarios on {} workers",
        results.len(),
        pool.workers()
    );
    // Expected per-period shortfall from the observed (post-fault) demand
    // the LastValue predictor plans against.
    let expected = |observed: &[f64]| -> Vec<f64> {
        observed
            .iter()
            .map(|&d| (coeff * d - cap).max(0.0))
            .collect()
    };
    let traces: Vec<Vec<f64>> = vec![crowded, sustained];
    let mut total_recoveries = 0u64;
    let mut total_fallbacks = 0u64;
    for (result, trace) in results.iter().zip(&traces) {
        match result {
            Ok(o) => {
                println!(
                    "  {}: {} periods, recoveries={}, fallbacks={}, shortfall={:.4}, cost={:.2}",
                    o.name,
                    o.report.periods.len(),
                    o.recovery_periods,
                    o.fallback_periods,
                    o.sla_shortfall,
                    o.report.ledger.total()
                );
                total_recoveries += o.recovery_periods;
                total_fallbacks += o.fallback_periods;
                let want = expected(trace);
                for p in &o.report.periods {
                    let w = want[p.period];
                    if (p.sla_shortfall - w).abs() > 1e-6 {
                        eprintln!(
                            "  {}: period {} shortfall {} != preflight deficit {w}",
                            o.name, p.period, p.sla_shortfall
                        );
                        ok = false;
                    }
                }
            }
            Err(e) => {
                eprintln!("  scenario failed: {e}");
                ok = false;
            }
        }
    }
    println!("recovery.periods={total_recoveries} runtime.fallback={total_fallbacks}");
    if total_recoveries == 0 {
        eprintln!("infeasible drill: no recovery solve ran — the recovery rung is dead");
        ok = false;
    }
    if total_fallbacks > 0 {
        eprintln!(
            "infeasible drill: {total_fallbacks} periods fell through to last-known-good — \
             the recovery rung should have absorbed them"
        );
        ok = false;
    }
    // Burn-rate alert assertions: the bounded flash crowd pages on
    // SLA-shortfall mass and clears once capacity suffices again; the
    // sustained overload is a page that must *never* auto-resolve.
    let expectations = [
        (
            "flash-crowd-infeasible",
            SloExpect::FiredAndResolved("sla_shortfall"),
        ),
        (
            "sustained-overload",
            SloExpect::StillFiring("sla_shortfall"),
        ),
    ];
    let outcomes: Vec<&ScenarioOutcome> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    for (name, expect) in expectations {
        match outcomes.iter().find(|o| o.name == name) {
            Some(o) => ok &= check_slo(o, expect),
            None => {
                eprintln!("  {name}: missing outcome for SLO check");
                ok = false;
            }
        }
    }
    print_slo_totals(&outcomes);
    if let Some(path) = &args.slo_out {
        ok &= write_slo_timeline(path, &outcomes);
    }
    ok
}

/// The `--fault-drill --soak` mode: a 30-simulated-day streaming soak.
///
/// The full ingest front end runs for 720 control periods (each scaled
/// to one minute of event time so CI finishes quickly) under two flash
/// crowds that outrun the admission budget and a 2-day spot-price shock
/// on the expensive data center. Mid-stream the drill freezes an ingest
/// checkpoint, round-trips it through JSON, restores it into a fresh
/// loop and runs both to the end — the drill fails (exit 1) unless the
/// resumed run is bit-exact, the `ingest_backpressure` burn-rate alert
/// both fired and resolved, and backpressure actually engaged.
/// `--slo-out <path>` writes the alert timeline CSV CI uploads.
fn soak_drill(args: &TraceArgs, tracer: &Tracer) -> bool {
    const DAYS: usize = 30;
    const PERIODS_PER_DAY: usize = 24;
    let periods = DAYS * PERIODS_PER_DAY;
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let _server = match args.serve_metrics(&telemetry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("all: {e}");
            return false;
        }
    };
    // Diurnal offered load per city (req/s), before fault injection.
    let base = [40.0, 25.0, 15.0];
    let rates: Vec<Vec<f64>> = base
        .iter()
        .enumerate()
        .map(|(v, b)| {
            (0..periods)
                .map(|k| {
                    let hour = (k % PERIODS_PER_DAY) as f64;
                    b * (1.0
                        + 0.3 * (std::f64::consts::TAU * (hour - 14.0 + v as f64) / 24.0).cos())
                })
                .collect()
        })
        .collect();
    // Two flash crowds (day 5 on city 0, day 20 everywhere) swamp the
    // admission budget; a price shock triples DC 1 during days 12–14.
    let faults = FaultPlan::new()
        .demand_spike(FlashCrowd::new(5.0 * 24.0, 6.0, 9.0).at_location(0))
        .demand_spike(FlashCrowd::new(20.0 * 24.0, 8.0, 7.0))
        .price_shock(1, 12 * PERIODS_PER_DAY, 2 * PERIODS_PER_DAY, 3.0);
    let spec = SoakSpec {
        rates,
        faults: faults.clone(),
        config: IngestConfig::new(2012)
            .with_period_seconds(60)
            .with_jobs(args.jobs.unwrap_or(2))
            .with_budget(BackpressureBudget::new(4500, 1500)),
        checkpoint_after: periods / 2,
        slos: vec![SloSpec::ingest_backpressure()],
    };
    let make_controller = move || {
        let mut prices = vec![vec![1.0; periods + 8], vec![1.4; periods + 8]];
        faults.apply_to_prices(&mut prices);
        let problem = DsppBuilder::new(2, 3)
            .service_rate(100.0)
            .sla_latency(0.100)
            .latency_rows(vec![vec![0.010, 0.020, 0.035], vec![0.030, 0.015, 0.012]])
            .price_trace(0, prices[0].clone())
            .price_trace(1, prices[1].clone())
            .build()?;
        Ok(Box::new(MpcController::new(
            problem,
            Box::new(LastValue),
            MpcSettings {
                horizon: 3,
                ..MpcSettings::default()
            },
        )?) as Box<dyn PlacementPolicy>)
    };
    let report = match run_soak(&spec, make_controller, &telemetry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("soak drill failed: {e}");
            return false;
        }
    };
    let mut ok = true;
    let t = &report.totals;
    println!(
        "soak drill: {} periods ({DAYS} simulated days), {} generated, {} admitted, \
         {} deferred, {} dropped, {:.0} req/s routed",
        report.periods,
        t.generated,
        t.admitted,
        t.deferred,
        t.dropped,
        t.req_per_sec()
    );
    println!(
        "soak.resume={} (checkpoint {} bytes at period {})",
        if report.resume_bit_exact {
            "bit-exact"
        } else {
            "MISMATCH"
        },
        report.checkpoint_bytes,
        spec.checkpoint_after
    );
    if !report.resume_bit_exact {
        eprintln!("soak drill: restored run diverged from the primary run");
        ok = false;
    }
    if t.deferred + t.dropped == 0 {
        eprintln!("soak drill: flash crowds never engaged backpressure — budget too loose");
        ok = false;
    }
    println!(
        "slo.firing={} slo.resolved={}",
        report.slo_firing, report.slo_resolved
    );
    if report.slo_firing == 0 || report.slo_resolved == 0 {
        eprintln!("soak drill: ingest_backpressure must fire under the crowds and resolve after");
        ok = false;
    }
    if let Some(path) = &args.slo_out {
        match std::fs::write(path, &report.timeline_csv) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    ok
}

/// FNV-1a of the sealed-ledger CSV — one greppable token that must match
/// across `--jobs` settings (the cheap CI determinism diff).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `--fault-drill --chaos` mode: the infrastructure-fault drill.
///
/// Five properties, each fatal (exit 1) when violated:
///
/// 1. **Rerouting** — an [`IngestLoop`] under a scheduled DC outage must
///    republish its routing snapshot without the dead DC before any
///    event of the outage periods fans out: zero events may land on
///    dead-DC arcs, and the integer conservation identity
///    `generated == admitted + dropped + backlog` must hold across the
///    republishes. The sealed-ledger FNV hash is printed so CI can diff
///    `--jobs 1` against `--jobs 4` byte-for-byte.
/// 2. **Exact shedding** — a closed-loop DC-outage scenario's recovery
///    shortfall must equal the preflight capacity deficit
///    `max(0, a·D − C_surviving)` to 1e-6, while a partial capacity
///    degradation that leaves enough headroom rebalances onto the
///    survivors with *zero* shortfall and zero fallbacks.
/// 3. **Alerting** — the `dc_outage` burn-rate SLO must fire during the
///    outage and resolve after it; the degradation run must stay quiet.
/// 4. **Durability** — a deliberately bit-flipped checkpoint generation
///    must be detected by frame verification and rolled back to the
///    previous good generation ([`CheckpointStore::load_latest`]).
/// 5. **MTTR** — `dspp-analyze` over the drill's own trace must report
///    the injected fault's mean-time-to-recovery; `--mttr-out <path>`
///    writes the full post-mortem report (the CI artifact).
fn chaos_drill(args: &TraceArgs, tracer: &Tracer) -> bool {
    match chaos_drill_inner(args, tracer) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("chaos drill failed: {e}");
            false
        }
    }
}

fn chaos_drill_inner(args: &TraceArgs, tracer: &Tracer) -> Result<bool, String> {
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let _server = args.serve_metrics(&telemetry)?;
    let mut ok = true;

    // ---- 1. rerouting: streaming ingest under a scheduled outage -----
    // Two DCs x two cities, every arc SLA-feasible; DC 1 goes dark for
    // periods 3..5. The masked republish must carry every request that
    // still has live weight to DC 0 and defer the rest — never route to
    // the dead DC.
    let periods = 8usize;
    let outage = 3usize..5;
    let ingest_telemetry = Recorder::enabled();
    let schedule: Vec<Vec<f64>> = (0..periods)
        .map(|k| vec![1_000.0, if outage.contains(&k) { 0.0 } else { 1_000.0 }])
        .collect();
    let problem = DsppBuilder::new(2, 2)
        .service_rate(100.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010, 0.030], vec![0.030, 0.012]])
        .price_trace(0, vec![1.0; periods + 8])
        .price_trace(1, vec![1.2; periods + 8])
        .build()
        .map_err(|e| e.to_string())?;
    let mpc = MpcController::new(
        problem,
        Box::new(LastValue),
        MpcSettings {
            horizon: 3,
            ..MpcSettings::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let config = IngestConfig::new(2012)
        .with_period_seconds(60)
        .with_jobs(args.jobs.unwrap_or(2))
        .with_budget(BackpressureBudget::new(100_000, 50_000));
    let rates = vec![vec![35.0; periods], vec![20.0; periods]];
    let mut ingest = IngestLoop::new(Box::new(mpc), rates, config)
        .map_err(|e| e.to_string())?
        .with_capacity_schedule(schedule)
        .map_err(|e| e.to_string())?
        .with_telemetry(ingest_telemetry.clone());
    ingest.run_to_end().map_err(|e| e.to_string())?;

    let arcs = ingest.controller().problem().arcs().to_vec();
    let dead_events: u64 = ingest
        .sealed()
        .iter()
        .filter(|s| outage.contains(&s.period))
        .flat_map(|s| {
            s.arc_counts
                .iter()
                .enumerate()
                .filter(|&(a, _)| arcs[a].0 == 1)
                .map(|(_, &n)| n)
        })
        .sum();
    let outage_flow: u64 = ingest
        .sealed()
        .iter()
        .filter(|s| outage.contains(&s.period))
        .map(|s| s.total_events() + s.deferred)
        .sum();
    let republishes = ingest_telemetry
        .snapshot()
        .map_or(0, |s| s.counter("ingest.snapshot_republishes"));
    let t = *ingest.totals();
    let backlog: u64 = ingest.carry_backlog().iter().sum();
    let conserved = t.generated == t.admitted + t.dropped + backlog;
    let reroute_ok = dead_events == 0 && republishes == 2 && conserved && outage_flow > 0;
    println!(
        "chaos.reroute={} republishes={republishes} dead_dc_events={dead_events} \
         outage_flow={outage_flow}",
        if reroute_ok { "engaged" } else { "FAILED" }
    );
    println!(
        "chaos.conservation={} generated={} admitted={} deferred={} dropped={} backlog={backlog}",
        if conserved { "ok" } else { "VIOLATED" },
        t.generated,
        t.admitted,
        t.deferred,
        t.dropped
    );
    println!(
        "chaos.ledger_fnv={:016x}",
        fnv1a64(ingest.sealed_matrix_csv().as_bytes())
    );
    ok &= reroute_ok;

    // ---- 2 + 3. exact shedding and the dc_outage SLO -----------------
    // Two 2-server DCs, one city, a = 1/80: flat demand 240 needs
    // exactly 3 servers. Losing DC 1 for periods 2..4 leaves a 1-server
    // deficit per period the recovery rung must shed exactly; degrading
    // DC 0 to 75% (caps 1.5 + 2.0 >= 3) must rebalance with no shedding.
    let mk = || -> Result<Box<dyn PlacementPolicy>, String> {
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
            .map_err(|e| e.to_string())?;
        Ok(Box::new(
            MpcController::new(
                problem,
                Box::new(LastValue),
                MpcSettings {
                    horizon: 3,
                    ..MpcSettings::default()
                },
            )
            .map_err(|e| e.to_string())?,
        ) as Box<dyn PlacementPolicy>)
    };
    // The dc-outage scenario records into its own tracer: its spans and
    // fault events are the input of the MTTR analysis below.
    let mttr_tracer = Tracer::enabled(DEFAULT_CAPACITY);
    let scen_telemetry = Recorder::enabled().with_tracer(mttr_tracer.clone());
    let outage_spec = ScenarioSpec::new("dc-outage", vec![vec![240.0; 8]])
        .with_faults(FaultPlan::new().dc_outage(1, 2, 2))
        .with_slos(vec![SloSpec::dc_outage()]);
    let outage_outcome =
        run_scenario(mk()?, &outage_spec, &scen_telemetry).map_err(|e| e.to_string())?;
    let degrade_spec = ScenarioSpec::new("capacity-degrade", vec![vec![240.0; 8]])
        .with_faults(FaultPlan::new().capacity_degrade(0, 0.75, 2, 2))
        .with_slos(vec![SloSpec::dc_outage()]);
    let degrade_outcome =
        run_scenario(mk()?, &degrade_spec, &Recorder::enabled()).map_err(|e| e.to_string())?;

    // Two outage periods x (240/80 required − 2 surviving) servers.
    let deficit = 2.0 * (240.0 / 80.0 - 2.0);
    let shed_err = (outage_outcome.sla_shortfall - deficit).abs();
    let shed_ok = shed_err <= 1e-6 && outage_outcome.fallback_periods == 0;
    println!(
        "chaos.shortfall={} observed={:.6} expected={deficit:.6} fallbacks={}",
        if shed_ok { "ok" } else { "MISMATCH" },
        outage_outcome.sla_shortfall,
        outage_outcome.fallback_periods
    );
    ok &= shed_ok;
    let rebalance_ok =
        degrade_outcome.sla_shortfall.abs() <= 1e-6 && degrade_outcome.fallback_periods == 0;
    println!(
        "chaos.rebalance={} shortfall={:.6} fallbacks={}",
        if rebalance_ok { "ok" } else { "FAILED" },
        degrade_outcome.sla_shortfall,
        degrade_outcome.fallback_periods
    );
    ok &= rebalance_ok;
    ok &= check_slo(&outage_outcome, SloExpect::FiredAndResolved("dc_outage"));
    ok &= check_slo(&degrade_outcome, SloExpect::Quiet);
    let outcomes = [&outage_outcome, &degrade_outcome];
    print_slo_totals(&outcomes);
    if let Some(path) = &args.slo_out {
        ok &= write_slo_timeline(path, &outcomes);
    }

    // ---- 4. durability: corrupt a generation, roll back --------------
    let dir = std::env::temp_dir().join(format!("dspp-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_telemetry = Recorder::enabled();
    let store = CheckpointStore::open(&dir, "chaos", 3)
        .map_err(|e| e.to_string())?
        .with_telemetry(store_telemetry.clone());
    let good = ingest.checkpoint().map_err(|e| e.to_string())?.to_json();
    let g1 = store.write(&good).map_err(|e| e.to_string())?;
    let g2 = store.write(&good).map_err(|e| e.to_string())?;
    // Flip one payload byte of the newest generation on disk: the frame
    // checksum must catch it and load_latest must fall back to g1.
    let newest = dir.join(format!("chaos.gen{g2:08}.ckpt"));
    let mut bytes = std::fs::read(&newest).map_err(|e| e.to_string())?;
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&newest, bytes).map_err(|e| e.to_string())?;
    let loaded = store.load_latest().map_err(|e| e.to_string())?;
    let counters = store_telemetry.snapshot();
    let detected = counters
        .as_ref()
        .map_or(0, |s| s.counter("faults.checkpoint_corrupt_detected"));
    let rollbacks = counters
        .as_ref()
        .map_or(0, |s| s.counter("faults.checkpoint_rollbacks"));
    let rollback_ok = loaded.generation == g1
        && loaded.payload == good
        && loaded.rolled_back.len() == 1
        && detected >= 1
        && rollbacks >= 1;
    println!(
        "chaos.rollback={} generation={g2}->{} corrupt_detected={detected} rollbacks={rollbacks}",
        if rollback_ok { "ok" } else { "FAILED" },
        loaded.generation
    );
    ok &= rollback_ok;
    let _ = std::fs::remove_dir_all(&dir);

    // ---- 5. MTTR report from the drill's own trace -------------------
    let report = analyze_jsonl(&mttr_tracer.to_jsonl(), &AnalyzeOptions::default())
        .map_err(|e| format!("mttr analysis: {e}"))?;
    // Only the MTTR section reaches stdout — it derives from period
    // indices and step costs, so it is byte-identical across --jobs;
    // the full report (with wall-clock timings) goes to --mttr-out.
    let section = report
        .find("fault recovery (MTTR)")
        .map_or("", |i| &report[i..]);
    print!("{section}");
    let mttr_line = section
        .lines()
        .find(|l| l.starts_with("mttr:"))
        .unwrap_or("");
    let mttr_ok = mttr_line.contains("faults recovered") && !mttr_line.starts_with("mttr: 0/");
    println!("mttr.reported={}", if mttr_ok { "yes" } else { "NO" });
    ok &= mttr_ok;
    if let Some(path) = &args.mttr_out {
        match std::fs::write(path, &report) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// The default mode: every figure job on the pool.
fn regenerate_figures(args: &TraceArgs, tracer: &Tracer) -> bool {
    type JobFn = Box<dyn Fn(&Recorder) -> ExpResult<Figure> + Send>;
    // The game figures additionally fan each round's best-response sweep
    // out on `--jobs` workers; their output is byte-identical either way.
    let sweep_jobs = args.jobs.unwrap_or(1);
    let jobs: Vec<(&'static str, JobFn)> = vec![
        // Figure 3 is pure market calibration: nothing to record.
        (
            "fig3",
            Box::new(|_: &Recorder| dspp_experiments::fig3::run()),
        ),
        ("fig4", Box::new(dspp_experiments::fig4::run)),
        ("fig5", Box::new(dspp_experiments::fig5::run)),
        ("fig6", Box::new(dspp_experiments::fig6::run)),
        (
            "fig7",
            Box::new(move |t: &Recorder| dspp_experiments::fig7::run(t, sweep_jobs)),
        ),
        (
            "fig8",
            Box::new(move |t: &Recorder| dspp_experiments::fig8::run(t, sweep_jobs)),
        ),
        ("fig9", Box::new(dspp_experiments::fig9::run)),
        ("fig10", Box::new(dspp_experiments::fig10::run)),
        ("extras", Box::new(dspp_experiments::extras::run)),
        (
            "ingest",
            Box::new(move |t: &Recorder| dspp_experiments::streaming::run(t, sweep_jobs)),
        ),
        (
            "policy_tournament",
            Box::new(move |t: &Recorder| dspp_experiments::tournament::run(t, sweep_jobs)),
        ),
    ];
    let names: Vec<&'static str> = jobs.iter().map(|(n, _)| *n).collect();
    let pool_telemetry = Recorder::enabled().with_tracer(tracer.clone());
    // Figure jobs record into per-figure recorders (their snapshots print
    // after each table), so the live endpoint exposes the pool-level
    // series; the fault drills serve their full scenario telemetry.
    let _server = match args.serve_metrics(&pool_telemetry) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("all: {e}");
            return false;
        }
    };
    let pool = make_pool(args, pool_telemetry);
    type Outcome = (ExpResult<Figure>, Option<Snapshot>);
    let pooled: Vec<(String, Box<dyn FnOnce() -> Outcome + Send>)> = jobs
        .into_iter()
        .map(|(name, f)| {
            let tracer = tracer.clone();
            let job = move || {
                let telemetry = Recorder::enabled().with_tracer(tracer);
                let result = f(&telemetry);
                (result, telemetry.snapshot())
            };
            (
                name.to_string(),
                Box::new(job) as Box<dyn FnOnce() -> Outcome + Send>,
            )
        })
        .collect();
    let results = pool.run(pooled);
    let mut ok = true;
    // Emission order is the submission order, not completion order, so
    // stdout and the CSVs are stable for any --jobs value.
    for (name, slot) in names.iter().zip(results) {
        match slot {
            Ok((figure, snapshot)) => {
                if let Err(e) = emit(figure) {
                    eprintln!("{name} failed: {e}");
                    ok = false;
                }
                if let Some(snap) = snapshot {
                    if !snap.is_empty() {
                        println!("-- telemetry: {name} --\n{snap}");
                    }
                }
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let args = match TraceArgs::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("all: {e}");
            std::process::exit(2);
        }
    };
    let tracer = if args.wants_tracing() {
        Tracer::enabled(DEFAULT_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let mut ok = if args.fault_drill && args.chaos {
        chaos_drill(&args, &tracer)
    } else if args.fault_drill && args.soak {
        soak_drill(&args, &tracer)
    } else if args.fault_drill && args.infeasible {
        infeasible_drill(&args, &tracer)
    } else if args.fault_drill {
        fault_drill(&args, &tracer)
    } else {
        regenerate_figures(&args, &tracer)
    };
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, tracer.to_chrome_trace()) {
            eprintln!("failed to write {}: {e}", path.display());
            ok = false;
        } else {
            println!("wrote {}", path.display());
        }
    }
    if let Some(path) = &args.events_out {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            eprintln!("failed to write {}: {e}", path.display());
            ok = false;
        } else {
            println!("wrote {}", path.display());
        }
    }
    if tracer.dropped() > 0 {
        eprintln!(
            "note: flight recorder evicted {} oldest records (capacity {})",
            tracer.dropped(),
            DEFAULT_CAPACITY
        );
    }
    if !ok {
        std::process::exit(1);
    }
}

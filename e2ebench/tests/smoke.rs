//! The benchmark's own tests: smoke-size runs of all three workloads.

use dspp_e2ebench::game::{self, GameRolling, RollingGame, CAPACITY_PER_DC, WINDOW};
use dspp_e2ebench::paper::PaperStream;
use dspp_e2ebench::regional::Regional;
use dspp_e2ebench::report::{self, Metric, END_TO_END, PER_LAYER};
use dspp_e2ebench::run::{execute, Options, Outcome, Size, Workload};
use dspp_game::run_rolling_game;
use dspp_telemetry::json::{self, JsonValue};
use dspp_telemetry::Recorder;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The tests time the program, and one checks the timed layers add up;
/// each holds this lock so that they run one at a time instead of slowing
/// each other down on a small host.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A smoke run that completed with every check passing.
fn smoke<W: Workload>(seed: u64, trace: bool) -> Outcome {
    let outcome = execute::<W>(&Options {
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
    .expect("smoke run completes");
    assert!(outcome.samples.attempted > 0);
    assert_eq!(
        outcome.samples.failed, 0,
        "failed checks: {:?}",
        outcome.samples.failures
    );
    outcome
}

/// `(name, unit)` of one metric list of the repository's `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &JsonValue, key: &str| {
        m.as_object()
            .and_then(|o| o.get(key))
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("{list} entry without {key}"))
            .to_string()
    };
    root.as_object()
        .and_then(|o| o.get(list))
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn named(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let _serial = serial();
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    let runs = [
        smoke::<PaperStream>(1, false),
        smoke::<Regional>(1, false),
        smoke::<GameRolling>(1, false),
    ];
    for outcome in &runs {
        let metrics = report::end_to_end(outcome);
        assert_eq!(named(&metrics), e2e);
        assert!(metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn traced_replay_matches_every_decision_and_leaves_little_unattributed() {
    let _serial = serial();
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    // `smoke` fails on any replay whose first control differs from the
    // executed one; every decision must also have been replayed.
    for outcome in [smoke::<PaperStream>(1, true), smoke::<Regional>(1, true)] {
        let replayed = outcome.samples.layers["core.assemble"].len();
        assert_eq!(replayed, outcome.samples.all_decide_ms().len());
        assert_eq!(named(&report::per_layer(&outcome)), layers);
    }
    let game = smoke::<GameRolling>(1, true);
    assert_eq!(named(&report::per_layer(&game)), layers);

    let regional = report::per_layer(&smoke::<Regional>(2, true));
    let unattributed = value(&regional, "core.unattributed_ms_p50");
    let decide = value(&regional, "trace.decide_p50_ms");
    assert!(
        unattributed < 0.05 * decide,
        "unattributed {unattributed} ms of a {decide} ms decision"
    );
}

#[test]
fn fingerprint_repeats_for_a_seed_and_moves_with_it() {
    let _serial = serial();
    fn check<W: Workload>() {
        let a = smoke::<W>(3, false).first.fingerprint;
        let b = smoke::<W>(3, false).first.fingerprint;
        let c = smoke::<W>(4, false).first.fingerprint;
        assert_eq!(a, b, "same seed, same fingerprint");
        assert_ne!(a, c, "another seed must change the inputs");
    }
    check::<PaperStream>();
    check::<Regional>();
    check::<GameRolling>();
}

#[test]
fn paper_stream_exercises_recovery_and_the_masked_republish() {
    let _serial = serial();
    let outcome = smoke::<PaperStream>(1, true);
    let counts = &outcome.first.counts;
    assert!(outcome.first.fingerprint.recovery_decisions > 0);
    assert!(counts["solver.recovery_share"] > 0.0);
    assert_eq!(counts["ingest.republishes"], 2.0, "outage onset and end");
}

#[test]
fn rolling_game_loop_matches_run_rolling_game() {
    let _serial = serial();
    let periods = 6;
    let providers = game::providers(periods, 5).unwrap();
    let capacity = vec![CAPACITY_PER_DC; 4];
    let reference = run_rolling_game(
        &providers,
        &capacity,
        WINDOW,
        periods,
        &game::config(Recorder::disabled()),
    )
    .unwrap();
    let mut rolling = RollingGame::new(providers, capacity, game::config(Recorder::disabled()));
    let mut totals = vec![0.0; game::PROVIDERS];
    for expected in &reference.periods {
        let period = rolling.step().unwrap();
        assert_eq!(period.outcome.iterations, expected.iterations);
        assert_eq!(period.costs, expected.provider_costs);
        assert_eq!(period.usage, expected.usage);
        for (total, cost) in totals.iter_mut().zip(&period.costs) {
            *total += cost;
        }
    }
    assert_eq!(totals, reference.totals);
}

//! The JSON decoders never panic on damaged input.
//!
//! Each decoder — `SimCheckpoint`, `IngestCheckpoint`, `Snapshot` and the
//! bench `Baseline` — sees every prefix of a valid document and every
//! single-character substitution drawn from JSON punctuation and digits.
//! Each input must decode to `Ok` or `Err`. A checkpoint that decodes must
//! then restore or be rejected with a typed error, and a loop that
//! restores must take its next step without panicking.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dspp_bench::baseline::{Baseline, Metric, BASELINE_SCHEMA_VERSION};
use dspp_core::{DsppBuilder, MpcController, MpcSettings};
use dspp_ingest::{BackpressureBudget, IngestCheckpoint, IngestConfig, IngestLoop};
use dspp_predict::LastValue;
use dspp_sim::{ClosedLoopSim, SimCheckpoint};
use dspp_telemetry::{Recorder, Snapshot};

const SUBSTITUTES: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', '-', '.', 'e', '0', '1', '9',
];

/// Feeds every damaged variant of `doc` to `decode`; returns how many
/// variants `decode` accepted.
fn assert_never_panics(doc: &str, decode: impl Fn(&str) -> bool) -> usize {
    let prefixes = doc.char_indices().map(|(i, _)| doc[..i].to_string());
    let substitutions = doc.char_indices().flat_map(|(i, c)| {
        SUBSTITUTES
            .iter()
            .filter(move |&&s| s != c)
            .map(move |&s| format!("{}{s}{}", &doc[..i], &doc[i + c.len_utf8()..]))
    });
    let mut accepted = 0;
    for input in prefixes.chain(substitutions) {
        match catch_unwind(AssertUnwindSafe(|| decode(&input))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("decoder panicked on {input:?}"),
        }
    }
    accepted
}

fn mpc(periods: usize) -> Box<MpcController> {
    let problem = DsppBuilder::new(2, 2)
        .service_rate(100.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010, 0.015], vec![0.020, 0.012]])
        .price_rows(vec![vec![1.0; periods + 3], vec![1.2; periods + 3]])
        .build()
        .unwrap();
    let settings = MpcSettings {
        horizon: 2,
        ..MpcSettings::default()
    };
    Box::new(MpcController::new(problem, Box::new(LastValue), settings).unwrap())
}

fn sim() -> ClosedLoopSim {
    let demand = vec![vec![40.0, 60.0, 90.0, 120.0], vec![30.0, 20.0, 50.0, 10.0]];
    ClosedLoopSim::new(mpc(4), demand).unwrap()
}

fn ingest_loop() -> IngestLoop {
    let rates = vec![vec![3.0; 4], vec![1.5; 4]];
    let config = IngestConfig::new(7)
        .with_period_seconds(30)
        .with_budget(BackpressureBudget::new(80, 20));
    IngestLoop::new(mpc(4), rates, config).unwrap()
}

#[test]
fn sim_checkpoint_decoder_never_panics() {
    let mut run = sim();
    run.run_until(2).unwrap();
    let doc = run.checkpoint().unwrap().to_json();
    let accepted = assert_never_panics(&doc, |input| {
        let Ok(ck) = SimCheckpoint::from_json(input) else {
            return false;
        };
        let mut fresh = sim();
        if fresh.restore(&ck).is_ok() {
            let _ = fresh.step();
        }
        true
    });
    assert!(accepted > 0, "no damaged sim checkpoint decoded");
}

#[test]
fn ingest_checkpoint_decoder_never_panics() {
    let mut run = ingest_loop();
    run.step().unwrap();
    run.step().unwrap();
    let doc = run.checkpoint().unwrap().to_json();
    let accepted = assert_never_panics(&doc, |input| {
        let Ok(ck) = IngestCheckpoint::from_json(input) else {
            return false;
        };
        let mut fresh = ingest_loop();
        if fresh.restore(&ck).is_ok() {
            let _ = fresh.step();
        }
        true
    });
    assert!(accepted > 0, "no damaged ingest checkpoint decoded");
}

#[test]
fn snapshot_decoder_never_panics() {
    let recorder = Recorder::enabled();
    recorder.incr("solver.lq.solves", 3);
    recorder.gauge("game.capacity_dual", -0.125);
    recorder.observe("controller.step_seconds", 0.004);
    let doc = recorder.snapshot().unwrap().to_json();
    let accepted = assert_never_panics(&doc, |input| Snapshot::from_json(input).is_ok());
    assert!(accepted > 0, "no damaged snapshot decoded");
}

#[test]
fn baseline_decoder_never_panics() {
    let baseline = Baseline {
        schema_version: BASELINE_SCHEMA_VERSION,
        metrics: vec![Metric {
            name: "solver.lq_solve".into(),
            samples: 20,
            throughput: 1250.5,
            p50_us: 800.0,
            p90_us: 950.25,
            p99_us: 1e3,
            counters: vec![("ipm_iterations".into(), 14.0)],
        }],
    };
    let doc = baseline.to_json();
    let accepted = assert_never_panics(&doc, |input| Baseline::from_json(input).is_ok());
    assert!(accepted > 0, "no damaged baseline decoded");
}

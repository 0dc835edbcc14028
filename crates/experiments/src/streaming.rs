//! Streaming-ingest experiment: the closed loop driven from raw events.
//!
//! Unlike the figure modules, which feed the controller precomputed
//! demand matrices, this experiment runs the full `dspp-ingest` front
//! end — deterministic per-city Poisson event streams, bounded
//! admission, routing off the period's placement snapshot, shard-local
//! tallies folded into a lock-free period bucket — and
//! seals each control period into the demand matrix the MPC consumes.
//!
//! Two artifacts come out of a run:
//!
//! * the usual `results/ingest.csv` [`Figure`] (per-period admission and
//!   routing totals), and
//! * `results/ingest_sealed.csv`, the raw sealed-period ledger in exact
//!   integer counts ([`IngestLoop::sealed_matrix_csv`]). Because event
//!   generation is a pure function of `(seed, city, period)` and
//!   aggregation is commutative integer addition, this file is
//!   byte-identical for any `--jobs` value — the determinism CI job
//!   diffs it across `--jobs 1` and `--jobs 4`.

use dspp_core::{DsppBuilder, MpcController, MpcSettings};
use dspp_ingest::{BackpressureBudget, IngestConfig, IngestLoop};
use dspp_predict::LastValue;
use dspp_telemetry::Recorder;

use crate::{results_dir, ExpResult, Figure};

/// Root seed of the experiment's event streams.
pub const STREAM_SEED: u64 = 42;

/// Control periods executed (each one minute of event time, so the run
/// stays fast while still sealing a multi-period matrix).
pub const PERIODS: usize = 8;

/// Builds the experiment's ingest loop: 2 data centers × 3 cities, a
/// deterministic diurnal-ish offered-load plan, and an admission budget
/// tight enough that the peak period visibly defers load.
fn build_loop(jobs: usize) -> ExpResult<IngestLoop> {
    let problem = DsppBuilder::new(2, 3)
        .service_rate(100.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010, 0.020, 0.035], vec![0.030, 0.015, 0.012]])
        .price_trace(0, vec![1.0; PERIODS + 8])
        .price_trace(1, vec![1.4; PERIODS + 8])
        .build()?;
    let controller = MpcController::new(
        problem,
        Box::new(LastValue),
        MpcSettings {
            horizon: 3,
            ..MpcSettings::default()
        },
    )?;
    // Offered load in req/s per city, with a mid-run surge on city 0
    // that outruns the admission budget (60 s × 180 req/s > 9000).
    let rates: Vec<Vec<f64>> = vec![
        (0..PERIODS)
            .map(|k| if (3..5).contains(&k) { 180.0 } else { 90.0 })
            .collect(),
        (0..PERIODS).map(|k| 60.0 + 10.0 * (k % 3) as f64).collect(),
        vec![30.0; PERIODS],
    ];
    Ok(IngestLoop::new(
        Box::new(controller),
        rates,
        IngestConfig::new(STREAM_SEED)
            .with_period_seconds(60)
            .with_jobs(jobs)
            .with_budget(BackpressureBudget::new(9000, 2500)),
    )?)
}

/// Runs the streaming experiment on `jobs` shards, writes
/// `results/ingest_sealed.csv`, and returns the per-period figure.
///
/// # Errors
///
/// Propagates ingest/controller failures and the CSV write.
pub fn run(telemetry: &Recorder, jobs: usize) -> ExpResult<Figure> {
    let mut ingest = build_loop(jobs)?.with_telemetry(telemetry.clone());
    let totals = ingest.run_to_end()?;

    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let sealed_path = dir.join("ingest_sealed.csv");
    std::fs::write(&sealed_path, ingest.sealed_matrix_csv())?;

    let rows: Vec<Vec<f64>> = ingest
        .sealed()
        .iter()
        .map(|s| {
            vec![
                s.period as f64,
                s.total_events() as f64,
                (s.total_events() - s.unroutable) as f64,
                s.unroutable as f64,
                s.carried_in as f64,
                s.deferred as f64,
                s.dropped as f64,
            ]
        })
        .collect();
    Ok(Figure {
        id: "ingest",
        title: "streaming ingest: per-period admission and routing".into(),
        header: [
            "period",
            "admitted",
            "routed",
            "unroutable",
            "carried_in",
            "deferred",
            "dropped",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        rows,
        notes: vec![
            format!(
                "{} events generated, {} admitted, {} deferred, {} dropped over {} periods",
                totals.generated, totals.admitted, totals.deferred, totals.dropped, PERIODS
            ),
            "sealed integer ledger written to ingest_sealed.csv (byte-identical across --jobs)"
                .into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises `build_loop` directly (not `run`) so the test never
    /// touches the process-wide `DSPP_RESULTS` variable, which the cli
    /// tests mutate concurrently.
    #[test]
    fn sealed_ledger_is_identical_across_jobs() {
        let mut a = build_loop(1).unwrap();
        let mut b = build_loop(3).unwrap();
        let ta = a.run_to_end().unwrap();
        b.run_to_end().unwrap();
        assert_eq!(a.sealed(), b.sealed());
        assert_eq!(a.sealed_matrix_csv(), b.sealed_matrix_csv());
        // The surge periods must actually exercise backpressure.
        assert!(ta.deferred > 0, "surge must defer load");
    }
}

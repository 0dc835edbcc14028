//! Metric definitions and the result line.
//!
//! Every workload emits every metric; a layer a workload does not run
//! reads 0 in the exact counts and shares (never in a timing: each timed
//! layer below exists in all three loops). `NOTES.md` maps each layer
//! metric to the end-to-end metric it should move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dspp_telemetry::Recorder;

use crate::noise;
use crate::replay::Tally;
use crate::run::Outcome;
use crate::stats::{median, quantile, ratio, sum};

/// End-to-end metrics (`--trace 0`), `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("decide_p50_ms", "ms"),
    ("decide_p90_ms", "ms"),
    ("periods_per_s", "1/s"),
    ("cost_per_period", "usd"),
    ("served_share", "ratio"),
    ("decision_ok_share", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("trace.decide_p50_ms", "ms"),
    ("loop.self_ms_p50", "ms"),
    ("predict.forecast_ms_p50", "ms"),
    ("core.assemble_ms_p50", "ms"),
    ("solver.solve_ms_p50", "ms"),
    ("core.route_ms_p50", "ms"),
    ("core.unattributed_ms_p50", "ms"),
    ("core.allocs_per_decision", "count"),
    ("solver.iterations_per_decision", "count"),
    ("solver.structured_share", "ratio"),
    ("solver.recovery_share", "ratio"),
    ("solver.recovery_time_share", "ratio"),
    ("core.preflight_share", "ratio"),
    ("ingest.compile_share", "ratio"),
    ("ingest.events", "count"),
    ("ingest.deferred", "count"),
    ("ingest.dropped", "count"),
    ("ingest.unroutable", "count"),
    ("ingest.republishes", "count"),
    ("game.rounds_per_period", "count"),
    ("game.best_responses", "count"),
    ("game.recovered_responses", "count"),
    ("game.warm_hits", "count"),
    ("game.setup_share", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Solver counters the program's own recorder keeps (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverCounters {
    /// `solver.lq.schur_factor`: structured-backend factorizations.
    pub schur_factor: f64,
    /// Sum of `solver.lq.iterations`: interior-point iterations.
    pub lq_iterations: f64,
    /// `solver.lq.warm_hits`.
    pub warm_hits: f64,
}

impl SolverCounters {
    /// Reads the counters (zero on a disabled recorder).
    pub fn read(telemetry: &Recorder) -> Self {
        telemetry
            .snapshot()
            .map_or_else(SolverCounters::default, |s| SolverCounters {
                schur_factor: s.counter("solver.lq.schur_factor") as f64,
                lq_iterations: s.histogram("solver.lq.iterations").map_or(0.0, |h| h.sum),
                warm_hits: s.counter("solver.lq.warm_hits") as f64,
            })
    }

    /// The increase from `earlier` to `self`.
    pub fn since(self, earlier: SolverCounters) -> Self {
        SolverCounters {
            schur_factor: self.schur_factor - earlier.schur_factor,
            lq_iterations: self.lq_iterations - earlier.lq_iterations,
            warm_hits: self.warm_hits - earlier.warm_hits,
        }
    }

    /// Share of interior-point iterations factored by the structured
    /// backend (capped at 1: a regularization retry factors twice).
    pub fn structured_share(self) -> f64 {
        ratio(self.schur_factor, self.lq_iterations).min(1.0)
    }
}

/// The exact per-episode counts of a controller workload.
pub fn controller_counts(tally: &Tally, solver: SolverCounters) -> BTreeMap<&'static str, f64> {
    let decisions = tally.decisions as f64;
    BTreeMap::from([
        (
            "core.allocs_per_decision",
            ratio(tally.allocs as f64, decisions),
        ),
        (
            "solver.iterations_per_decision",
            ratio(tally.iterations as f64, decisions),
        ),
        ("solver.structured_share", solver.structured_share()),
        (
            "solver.recovery_share",
            ratio(tally.recoveries as f64, decisions),
        ),
    ])
}

/// The end-to-end metrics of a run. Timings take each decision's (and
/// period's) fastest repeat; see [`crate::run`].
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let s = &o.samples;
    let decide = s.best_decide_ms();
    let periods = s.best_period_s();
    let values = [
        quantile(&decide, 0.5),
        quantile(&decide, 0.9),
        ratio(periods.len() as f64, sum(&periods)),
        o.first.cost_per_period,
        o.first.served_share,
        ratio((s.attempted - s.failed) as f64, s.attempted as f64),
        o.setup_s(),
        noise::peak_rss_mib().unwrap_or(0.0),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let s = &o.samples;
    let layer = |stem: &str| s.layers.get(stem).map_or(0.0, |v| median(v));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.decide_p50_ms" => median(&s.all_decide_ms()),
                "loop.self_ms_p50" => layer("loop.self"),
                "predict.forecast_ms_p50" => layer("predict.forecast"),
                "core.assemble_ms_p50" => layer("core.assemble"),
                "solver.solve_ms_p50" => layer("solver.solve"),
                "core.route_ms_p50" => layer("core.route"),
                "core.unattributed_ms_p50" => layer("core.unattributed"),
                "solver.recovery_time_share" => {
                    ratio(s.total("recovery_decide"), s.total("decide"))
                }
                "core.preflight_share" => ratio(s.total("preflight"), s.total("decide")),
                "ingest.compile_share" => ratio(s.total("compile"), s.total("period")),
                "game.setup_share" => ratio(s.total("game.setup"), s.total("period")),
                counted => o.first.counts.get(counted).copied().unwrap_or(0.0),
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// The result object, one line of JSON.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Shortest round-trip formatting: every digit the f64 carries.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

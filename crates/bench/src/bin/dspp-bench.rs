//! Perf-baseline recorder and regression gate.
//!
//! ```text
//! dspp-bench record  [--out BENCH_BASELINE.json] [--iters 30] [--only a,b]
//! dspp-bench compare [--baseline BENCH_BASELINE.json] [--tolerance 0.30] [--iters 30] [--only a,b]
//! dspp-bench compare-metrics [--baseline BENCH_BASELINE.json] [--tolerance 0] [--iters 2] [--only a,b]
//! dspp-bench scaling
//! ```
//!
//! `record` measures the solver/controller/game workloads and writes the
//! baseline JSON. With `--only` and an existing `--out`, it splices the
//! recorded rows into that file instead: rows of the same name are
//! replaced, new rows go in [`WORKLOADS`] order, and every other row stays
//! byte for byte. `compare` re-measures them, prints a delta report, and
//! exits nonzero when any workload's throughput fell more than
//! `--tolerance` below the baseline (default 30% — generous on purpose:
//! shared CI hardware is noisy, and the CI job is warn-only anyway).
//! `compare-metrics` checks only the *deterministic* counters — IPM
//! iteration totals, warm-start hits and savings, allocation counts —
//! which are exactly reproducible for a fixed build, so its default
//! tolerance is zero and CI runs it as an enforcing gate.
//!
//! `--only` takes a comma-separated subset of workload names and
//! restricts the run to exactly those: skipped workloads are neither
//! measured nor (for the compare modes) required to be present — the CI
//! scaling job uses it to gate `solver.lq_solve.large` in isolation.
//!
//! `scaling` runs the dense-vs-structured solver scaling sweep
//! ([`dspp_bench::scaling`]), prints its table and writes
//! `results/solver_scaling.csv` (or under `$DSPP_RESULTS`). It takes no
//! options.

use std::path::PathBuf;
use std::process::ExitCode;

use dspp_bench::baseline::{compare, compare_metrics, record_selected, Baseline, WORKLOADS};
use dspp_bench::scaling;
use dspp_experiments::emit;

const DEFAULT_PATH: &str = "BENCH_BASELINE.json";
const DEFAULT_ITERS: usize = 30;
const DEFAULT_TOLERANCE: f64 = 0.30;
const DEFAULT_METRICS_ITERS: usize = 2;
const DEFAULT_METRICS_TOLERANCE: f64 = 0.0;

struct Options {
    mode: String,
    path: PathBuf,
    iters: usize,
    tolerance: f64,
    only: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: dspp-bench record  [--out <path>] [--iters <n>] [--only <a,b,…>]\n\
         \x20      dspp-bench compare [--baseline <path>] [--tolerance <frac>] [--iters <n>] [--only <a,b,…>]\n\
         \x20      dspp-bench compare-metrics [--baseline <path>] [--tolerance <frac>] [--iters <n>] [--only <a,b,…>]\n\
         \x20      dspp-bench scaling\n\
         defaults: path {DEFAULT_PATH}, iters {DEFAULT_ITERS} (compare-metrics: \
         {DEFAULT_METRICS_ITERS}), tolerance {DEFAULT_TOLERANCE} (compare-metrics: \
         {DEFAULT_METRICS_TOLERANCE})"
    )
}

fn parse_options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().ok_or_else(usage)?;
    if !["record", "compare", "compare-metrics", "scaling"].contains(&mode.as_str()) {
        return Err(format!("unknown mode {mode:?}\n{}", usage()));
    }
    if mode == "scaling" {
        if let Some(arg) = args.next() {
            return Err(format!(
                "scaling takes no options, got {arg:?}\n{}",
                usage()
            ));
        }
    }
    // The deterministic counters do not need many timed iterations, and
    // their comparison is exact by default.
    let (iters, tolerance) = if mode == "compare-metrics" {
        (DEFAULT_METRICS_ITERS, DEFAULT_METRICS_TOLERANCE)
    } else {
        (DEFAULT_ITERS, DEFAULT_TOLERANCE)
    };
    let mut out = Options {
        mode,
        path: PathBuf::from(DEFAULT_PATH),
        iters,
        tolerance,
        only: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |name: &str| {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--out" | "--baseline" => out.path = PathBuf::from(value(&flag)?),
            "--iters" => {
                out.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if out.iters == 0 {
                    return Err("--iters must be positive".to_string());
                }
            }
            "--tolerance" => {
                out.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !(0.0..1.0).contains(&out.tolerance) {
                    return Err("--tolerance must be in [0, 1)".to_string());
                }
            }
            "--only" => {
                for name in value("--only")?.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    if !WORKLOADS.contains(&name) {
                        return Err(format!(
                            "--only: unknown workload {name:?} (known: {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    out.only.push(name.to_string());
                }
                if out.only.is_empty() {
                    return Err("--only needs at least one workload name".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(out)
}

fn run(opts: &Options) -> Result<bool, String> {
    if opts.mode == "scaling" {
        return emit(scaling::run())
            .map(|()| true)
            .map_err(|e| format!("solver scaling sweep failed: {e}"));
    }
    let read_baseline = || {
        let text = std::fs::read_to_string(&opts.path)
            .map_err(|e| format!("read {}: {e}", opts.path.display()))?;
        Baseline::from_json(&text)
    };
    if opts.mode == "record" {
        // A subset keeps every row of an existing file it does not record.
        let existing = if opts.only.is_empty() || !opts.path.exists() {
            None
        } else {
            Some(read_baseline()?)
        };
        eprintln!(
            "recording baseline ({} iterations per workload)…",
            opts.iters
        );
        let recorded = record_selected(opts.iters, &opts.only);
        for m in &recorded.metrics {
            println!(
                "{:<24} {:>10.1} it/s   p50 {:>9.1}µs  p90 {:>9.1}µs  p99 {:>9.1}µs",
                m.name, m.throughput, m.p50_us, m.p90_us, m.p99_us
            );
        }
        let baseline = match existing {
            Some(mut baseline) => {
                baseline.splice(recorded);
                baseline
            }
            None => recorded,
        };
        std::fs::write(&opts.path, baseline.to_json())
            .map_err(|e| format!("write {}: {e}", opts.path.display()))?;
        println!("wrote {}", opts.path.display());
        return Ok(true);
    }
    let mut baseline = read_baseline()?;
    if !opts.only.is_empty() {
        // Compare only the selected workloads; the rest of the recorded
        // baseline is out of scope for this run, not missing.
        baseline.metrics.retain(|m| opts.only.contains(&m.name));
        if baseline.metrics.is_empty() {
            return Err(format!(
                "none of the --only workloads are recorded in {}",
                opts.path.display()
            ));
        }
    }
    if opts.mode == "compare-metrics" {
        eprintln!(
            "checking deterministic counters against {} (tolerance {:.0}%)…",
            opts.path.display(),
            opts.tolerance * 100.0
        );
        let current = record_selected(opts.iters, &opts.only);
        let comparison = compare_metrics(&baseline, &current, opts.tolerance);
        print!("{}", comparison.report());
        return if comparison.regressed() {
            println!("\ndeterministic-metric regression detected");
            Ok(false)
        } else {
            println!("\nall deterministic counters within tolerance");
            Ok(true)
        };
    }
    eprintln!(
        "comparing against {} ({} iterations per workload, tolerance {:.0}%)…",
        opts.path.display(),
        opts.iters,
        opts.tolerance * 100.0
    );
    let current = record_selected(opts.iters, &opts.only);
    let comparison = compare(&baseline, &current, opts.tolerance);
    print!("{}", comparison.report(opts.tolerance));
    if comparison.regressed() {
        println!("\nperformance regression detected");
        Ok(false)
    } else {
        println!("\nno regression beyond tolerance");
        Ok(true)
    }
}

fn main() -> ExitCode {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("dspp-bench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dspp-bench: {e}");
            ExitCode::from(2)
        }
    }
}

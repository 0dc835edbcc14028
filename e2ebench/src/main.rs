//! `dspp-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last, one JSON line with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero when a decision fails its checks or the run cannot complete.

use std::process::ExitCode;

use dspp_e2ebench::game::GameRolling;
use dspp_e2ebench::noise::{self, Reading};
use dspp_e2ebench::paper::PaperStream;
use dspp_e2ebench::regional::Regional;
use dspp_e2ebench::report::{self, Metric};
use dspp_e2ebench::run::{execute, fitted_exponent, Options, Outcome, SetupClock, Size};
use dspp_e2ebench::stats::{median, quantile};

const USAGE: &str = "usage: dspp-e2ebench --workload <paper_stream|regional|game_rolling> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn run(workload: &str, opts: &Options) -> Result<Outcome, String> {
    match workload {
        "paper_stream" => execute::<PaperStream>(opts),
        "regional" => execute::<Regional>(opts),
        "game_rolling" => execute::<GameRolling>(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clocks = Reading::now();
    let outcome = match run(&workload, &opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (wall_s, cpu_s, steal_s) = clocks.since();
    let s = &outcome.samples;

    let all = s.all_decide_ms();
    let recovery = s.best_recovery_decide_ms();
    println!(
        "{workload}: seed={} trace={} repeats={} decisions_per_repeat={} timed_decisions={} \
         raw_setup_s={:?}",
        opts.seed,
        u8::from(opts.trace),
        outcome.repeats,
        s.best_decide_ms().len(),
        all.len(),
        outcome
            .setups
            .iter()
            .map(SetupClock::total)
            .collect::<Vec<_>>()
    );
    println!("fingerprint: {}", outcome.first.fingerprint);
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.3}"));
    let (q1, q3) = (quantile(&all, 0.25), quantile(&all, 0.75));
    let raw = s.fastest_raw_decide_ms();
    println!(
        "noise: wall_s={wall_s:.3} cpu_s={} cpu_per_wall={} steal_s={} decide_iqr_ms={:.3} \
         decide_iqr_share={:.4} raw_decide_p50_ms={:.3} raw_decide_p90_ms={:.3} probe_us_p50={:.0}",
        fmt(cpu_s),
        fmt(cpu_s.map(|c| c / wall_s)),
        fmt(steal_s),
        q3 - q1,
        (q3 - q1) / median(&all),
        quantile(&raw, 0.5),
        quantile(&raw, 0.9),
        median(&s.probe_s.concat()) * 1e6
    );
    // How strongly this run's times followed the probe across repeats,
    // beside the exponent the workload scales with.
    let fit = |fit: Option<(f64, f64)>| {
        fit.map_or_else(
            || "n/a".to_string(),
            |(b, spread)| format!("{b:.3}(probe_log_spread={spread:.3})"),
        )
    };
    let (pieces, piece_probes) = outcome.setup_tables();
    println!(
        "speed: exponent={} fit_decide={} fit_period={} fit_setup={}",
        s.exponent,
        fit(fitted_exponent(&s.decide_ms, &s.probe_s)),
        fit(fitted_exponent(&s.period_s, &s.probe_s)),
        fit(fitted_exponent(&pieces, &piece_probes))
    );
    println!(
        "diagnostics: recovery_decide_p50_ms={:.3} (n={}) ingest_events_per_s={:.0} peak_rss_mb={}",
        median(&recovery),
        recovery.len(),
        outcome
            .first
            .counts
            .get("ingest.events_per_s")
            .copied()
            .unwrap_or(0.0),
        fmt(noise::peak_rss_mib())
    );
    for failure in &s.failures {
        println!("FAILED: {failure}");
    }

    let mut metrics: Vec<Metric> = if opts.trace {
        report::per_layer(&outcome)
    } else {
        report::end_to_end(&outcome)
    };
    let mut correct = s.failed == 0;
    for m in &mut metrics {
        if !m.value.is_finite() {
            println!("FAILED: metric {} is not finite", m.name);
            m.value = 0.0;
            correct = false;
        }
    }
    println!(
        "{}",
        report::json_line(correct, s.attempted, s.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

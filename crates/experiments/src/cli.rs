//! Shared command-line handling for the figure binaries.
//!
//! Every `figN` binary (and `all`) accepts the same tracing flags:
//!
//! * `--trace-out <path>` — run the experiment with span tracing enabled
//!   and write the flight recorder as Chrome Trace Format JSON (open in
//!   `chrome://tracing` or <https://ui.perfetto.dev>).
//! * `--events-out <path>` — same, exported as a line-delimited JSONL
//!   event log (one record per line; schema in `docs/OBSERVABILITY.md`).
//! * `--metrics-addr <host:port>` — serve the run's live metrics over
//!   HTTP while the experiment executes (`/metrics`, `/health`,
//!   `/snapshot.json`; see [`dspp_telemetry::MetricsServer`]).
//! * `--slo-out <path>` — with `--fault-drill`, write the SLO alert
//!   timeline CSV (honored by `all`, ignored by figure binaries).
//!
//! Without any flag, metrics go to a fresh enabled recorder and no
//! tracer is attached.

use std::fs;
use std::path::PathBuf;
use std::process;

use dspp_telemetry::{MetricsServer, Recorder, Tracer, DEFAULT_CAPACITY};

use crate::{emit, ExpResult, Figure};

/// Parsed tracing flags.
#[derive(Debug, Clone, Default)]
pub struct TraceArgs {
    /// Destination for the Chrome Trace Format export, if requested.
    pub trace_out: Option<PathBuf>,
    /// Destination for the JSONL event log, if requested.
    pub events_out: Option<PathBuf>,
    /// Worker-thread count for binaries that fan work out on a
    /// `dspp-runtime` pool (`--jobs <N>`). `None` means "size to the
    /// machine" for `all` and one worker for the figure binaries; those
    /// whose figure does not fan out ignore it.
    pub jobs: Option<usize>,
    /// Run the fault-injection drill instead of the normal workload
    /// (`--fault-drill`; honored by `all`, ignored by figure binaries).
    pub fault_drill: bool,
    /// With `--fault-drill`, run the *infeasible* scenario set instead:
    /// capacity-starved flash crowds that must be resolved by the
    /// recovery (soft-constraint) solve, not the last-known-good
    /// fallback (`--infeasible`).
    pub infeasible: bool,
    /// With `--fault-drill`, run the streaming soak drill instead: a
    /// 30-simulated-day ingest run under flash crowds and price shocks
    /// with a mid-stream checkpoint/restore that must resume bit-exactly
    /// (`--soak`; honored by `all`, ignored by figure binaries).
    pub soak: bool,
    /// With `--fault-drill`, run the infrastructure-chaos drill instead:
    /// DC outages and capacity degradations end to end — masked snapshot
    /// rerouting, exact deficit shedding, the `dc_outage` SLO, checkpoint
    /// corruption rollback, and the MTTR report (`--chaos`; honored by
    /// `all`, ignored by figure binaries).
    pub chaos: bool,
    /// Destination for the full `dspp-analyze` post-mortem report the
    /// chaos drill derives from its own trace (`--mttr-out <path>`;
    /// ignored outside `--fault-drill --chaos`).
    pub mttr_out: Option<PathBuf>,
    /// Serve the run's live metrics over HTTP on this address while the
    /// experiment executes (`--metrics-addr <host:port>`; port 0 picks a
    /// free port and prints it).
    pub metrics_addr: Option<String>,
    /// Destination for the SLO alert-timeline CSV written by the fault
    /// drills (`--slo-out <path>`; ignored outside `--fault-drill`).
    pub slo_out: Option<PathBuf>,
}

impl TraceArgs {
    /// Parses the process arguments (everything after `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown flag or a missing value.
    pub fn parse() -> Result<TraceArgs, String> {
        TraceArgs::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests use this).
    ///
    /// # Errors
    ///
    /// As [`TraceArgs::parse`].
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<TraceArgs, String> {
        let mut out = TraceArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = |name: &str| {
                inline
                    .clone()
                    .or_else(|| iter.next())
                    .ok_or_else(|| format!("{name} needs a path argument"))
            };
            match flag.as_str() {
                "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out")?)),
                "--events-out" => out.events_out = Some(PathBuf::from(value("--events-out")?)),
                "--jobs" => {
                    let n: usize = value("--jobs")?
                        .parse()
                        .map_err(|_| "--jobs needs a positive integer".to_string())?;
                    if n == 0 {
                        return Err("--jobs needs a positive integer".to_string());
                    }
                    out.jobs = Some(n);
                }
                "--fault-drill" => out.fault_drill = true,
                "--infeasible" => out.infeasible = true,
                "--soak" => out.soak = true,
                "--chaos" => out.chaos = true,
                "--metrics-addr" => out.metrics_addr = Some(value("--metrics-addr")?),
                "--slo-out" => out.slo_out = Some(PathBuf::from(value("--slo-out")?)),
                "--mttr-out" => out.mttr_out = Some(PathBuf::from(value("--mttr-out")?)),
                other => {
                    return Err(format!(
                        "unknown argument {other:?}; usage: [--trace-out <path>] \
                         [--events-out <path>] [--jobs <N>] [--fault-drill] [--infeasible] \
                         [--soak] [--chaos] \
                         [--metrics-addr <host:port>] [--slo-out <path>] \
                         [--mttr-out <path>]"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// True when any trace export was requested.
    pub fn wants_tracing(&self) -> bool {
        self.trace_out.is_some() || self.events_out.is_some()
    }

    /// Starts the live metrics endpoint when `--metrics-addr` was given.
    /// The returned server shuts down on drop; `None` when the flag is
    /// absent. Prints the resolved address (port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Returns the bind failure as a message naming the flag.
    pub fn serve_metrics(&self, telemetry: &Recorder) -> Result<Option<MetricsServer>, String> {
        let Some(addr) = &self.metrics_addr else {
            return Ok(None);
        };
        let server = MetricsServer::bind(addr.as_str(), telemetry.clone())
            .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
        println!("serving metrics on http://{}/metrics", server.addr());
        Ok(Some(server))
    }
}

/// Runs one figure with the parsed tracing flags: emits the table/CSV as
/// always, and writes the requested trace exports afterwards.
///
/// # Errors
///
/// Propagates the experiment's own failure or an export write failure.
pub fn run_traced(
    args: &TraceArgs,
    f: impl FnOnce(&Recorder) -> ExpResult<Figure>,
) -> ExpResult<()> {
    let tracer = if args.wants_tracing() {
        Tracer::enabled(DEFAULT_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let telemetry = Recorder::enabled().with_tracer(tracer.clone());
    let _server = args.serve_metrics(&telemetry)?;
    emit(f(&telemetry))?;
    if let Some(path) = &args.trace_out {
        fs::write(path, tracer.to_chrome_trace())?;
        println!("wrote {}", path.display());
    }
    if let Some(path) = &args.events_out {
        fs::write(path, tracer.to_jsonl())?;
        println!("wrote {}", path.display());
    }
    if tracer.dropped() > 0 {
        eprintln!(
            "note: flight recorder evicted {} oldest records (capacity {})",
            tracer.dropped(),
            DEFAULT_CAPACITY
        );
    }
    Ok(())
}

/// The whole `main` of a figure binary: parse flags, run, set the exit
/// code. `name` labels error messages. The closure also receives the
/// `--jobs` value (default 1), which the figures that fan out on a worker
/// pool use; their output is byte-identical for any jobs value.
pub fn figure_main(name: &str, f: impl FnOnce(&Recorder, usize) -> ExpResult<Figure>) {
    let args = match TraceArgs::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{name}: {e}");
            process::exit(2);
        }
    };
    let jobs = args.jobs.unwrap_or(1);
    if let Err(e) = run_traced(&args, |telemetry| f(telemetry, jobs)) {
        eprintln!("{name} failed: {e}");
        process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_separate_and_inline_values() {
        let a = TraceArgs::parse_from(strings(&["--trace-out", "t.json"])).unwrap();
        assert_eq!(a.trace_out, Some(PathBuf::from("t.json")));
        assert!(a.wants_tracing());
        let b = TraceArgs::parse_from(strings(&["--events-out=e.jsonl"])).unwrap();
        assert_eq!(b.events_out, Some(PathBuf::from("e.jsonl")));
        let c = TraceArgs::parse_from(strings(&[])).unwrap();
        assert!(!c.wants_tracing());
        assert_eq!(c.jobs, None);
        assert!(!c.fault_drill);
    }

    #[test]
    fn parses_runtime_flags() {
        let a = TraceArgs::parse_from(strings(&["--jobs", "4", "--fault-drill"])).unwrap();
        assert_eq!(a.jobs, Some(4));
        assert!(a.fault_drill);
        assert!(!a.infeasible);
        let b = TraceArgs::parse_from(strings(&["--jobs=2"])).unwrap();
        assert_eq!(b.jobs, Some(2));
        let c = TraceArgs::parse_from(strings(&["--fault-drill", "--infeasible"])).unwrap();
        assert!(c.fault_drill && c.infeasible);
        let d = TraceArgs::parse_from(strings(&["--fault-drill", "--soak"])).unwrap();
        assert!(d.fault_drill && d.soak && !d.infeasible);
        let e = TraceArgs::parse_from(strings(&["--fault-drill", "--chaos", "--mttr-out=m.txt"]))
            .unwrap();
        assert!(e.fault_drill && e.chaos && !e.soak);
        assert_eq!(e.mttr_out, Some(PathBuf::from("m.txt")));
        assert!(TraceArgs::parse_from(strings(&["--mttr-out"])).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(TraceArgs::parse_from(strings(&["--bogus"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--trace-out"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--jobs"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--jobs", "0"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--jobs", "x"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--metrics-addr"])).is_err());
        assert!(TraceArgs::parse_from(strings(&["--slo-out"])).is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let a = TraceArgs::parse_from(strings(&[
            "--metrics-addr",
            "127.0.0.1:0",
            "--slo-out=slo.csv",
        ]))
        .unwrap();
        assert_eq!(a.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.slo_out, Some(PathBuf::from("slo.csv")));
        assert!(!a.wants_tracing());
    }

    #[test]
    fn serve_metrics_binds_and_scrapes() {
        let args = TraceArgs {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..TraceArgs::default()
        };
        let telemetry = Recorder::enabled();
        telemetry.incr("cli.test_counter", 3);
        let server = args.serve_metrics(&telemetry).unwrap().unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        use std::io::{Read, Write};
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.contains("cli_test_counter_total 3"), "{body}");
        // No flag → no server.
        assert!(TraceArgs::default()
            .serve_metrics(&telemetry)
            .unwrap()
            .is_none());
        // Unbindable address → a flag-naming error.
        let bad = TraceArgs {
            metrics_addr: Some("256.0.0.1:9".into()),
            ..TraceArgs::default()
        };
        assert!(bad
            .serve_metrics(&telemetry)
            .unwrap_err()
            .contains("--metrics-addr"));
    }

    #[test]
    fn run_traced_writes_requested_exports() {
        let dir = std::env::temp_dir().join("dspp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let args = TraceArgs {
            trace_out: Some(dir.join("trace.json")),
            events_out: Some(dir.join("events.jsonl")),
            ..TraceArgs::default()
        };
        std::env::set_var("DSPP_RESULTS", &dir);
        run_traced(&args, |telemetry| {
            let _span = telemetry.tracer().span("cli.test");
            Ok(Figure {
                id: "figclitest",
                title: "cli test".into(),
                header: vec!["x".into(), "y".into()],
                rows: vec![vec![0.0, 1.0]],
                notes: vec![],
            })
        })
        .unwrap();
        std::env::remove_var("DSPP_RESULTS");
        let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("cli.test"));
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(events.contains("\"type\":\"span\""));
    }
}

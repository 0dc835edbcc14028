//! Regenerates Figure 10 of the paper; see `dspp_experiments::fig10`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig10", |telemetry, _| {
        dspp_experiments::fig10::run(telemetry)
    });
}

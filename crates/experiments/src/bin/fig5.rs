//! Regenerates Figure 5 of the paper; see `dspp_experiments::fig5`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig5", |telemetry, _| {
        dspp_experiments::fig5::run(telemetry)
    });
}

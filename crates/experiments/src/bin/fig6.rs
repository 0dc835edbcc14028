//! Regenerates Figure 6 of the paper; see `dspp_experiments::fig6`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig6", |telemetry, _| {
        dspp_experiments::fig6::run(telemetry)
    });
}

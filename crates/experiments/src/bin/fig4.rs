//! Regenerates Figure 4 of the paper; see `dspp_experiments::fig4`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig4", |telemetry, _| {
        dspp_experiments::fig4::run(telemetry)
    });
}

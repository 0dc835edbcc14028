//! Regenerates Figure 9 of the paper; see `dspp_experiments::fig9`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig9", |telemetry, _| {
        dspp_experiments::fig9::run(telemetry)
    });
}

//! Regenerates the beyond-the-paper extras table; see
//! `dspp_experiments::extras`. Accepts `--trace-out`/`--events-out`
//! (see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("extras", |telemetry, _| {
        dspp_experiments::extras::run(telemetry)
    });
}

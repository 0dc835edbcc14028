//! Regenerates Figure 3 of the paper; see `dspp_experiments::fig3`.
//! Accepts `--trace-out`/`--events-out` (see `dspp_experiments::cli`),
//! though fig3 is pure market calibration and opens no solver spans.

fn main() {
    dspp_experiments::cli::figure_main("fig3", |_, _| dspp_experiments::fig3::run());
}

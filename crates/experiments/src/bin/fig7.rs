//! Regenerates Figure 7 of the paper; see `dspp_experiments::fig7`.
//! Accepts `--trace-out`/`--events-out` plus `--jobs <N>` to fan the
//! per-round best-response sweep out on a worker pool (the figure is
//! byte-identical for any jobs value; see `dspp_experiments::cli`).

fn main() {
    dspp_experiments::cli::figure_main("fig7", dspp_experiments::fig7::run);
}

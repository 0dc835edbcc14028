//! Runs the policy tournament — every placement policy against every
//! stock workload family — and writes the simple-vs-optimal gap table to
//! `results/policy_tournament.csv`. `--jobs <N>` fans the scenarios out
//! on a worker pool; the table is byte-identical for any worker count.
//! See `docs/POLICIES.md` for the policy handbook and how to read the
//! numbers.

fn main() {
    dspp_experiments::cli::figure_main("policy_tournament", dspp_experiments::tournament::run);
}

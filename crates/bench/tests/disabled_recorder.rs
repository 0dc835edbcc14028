//! The disabled-recorder solve is the plain solve: the exact side of the
//! no-op telemetry contract that the `solver.lq_solve` workload times.
//!
//! On the paper horizon, `solve_structured_warm_traced` with a disabled
//! recorder must take the same IPM iterations and make the same
//! allocations as `solve_structured`, and return bit-identical states,
//! inputs and duals. The allocation counter is process-wide, so this
//! check runs without the test harness (`harness = false` in
//! `Cargo.toml`): `main` is the only thread, and nothing else can
//! allocate while it counts.

use dspp_bench::{alloc_count, paper_horizon};
use dspp_solver::{solve_structured, solve_structured_warm_traced, IpmSettings, LqSolution};
use dspp_telemetry::Recorder;

fn main() {
    disabled_recorder_solve_is_the_plain_solve();
    println!("test disabled_recorder_solve_is_the_plain_solve ... ok");
}

fn disabled_recorder_solve_is_the_plain_solve() {
    let paper = paper_horizon(1.0);
    let slq = paper.structured();
    let ipm = IpmSettings::default();
    let (plain, plain_allocs) = alloc_count::count(|| solve_structured(slq, &ipm).expect("solve"));
    let (traced, traced_allocs) = alloc_count::count(|| {
        solve_structured_warm_traced(slq, &ipm, None, &Recorder::disabled()).expect("solve")
    });
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(plain_allocs, traced_allocs);
    let bits = |sol: &LqSolution| -> [Vec<u64>; 3] {
        [&sol.xs, &sol.us, &sol.stage_duals].map(|vs| {
            vs.iter()
                .flat_map(|v| v.iter().map(|x| x.to_bits()))
                .collect()
        })
    };
    assert_eq!(bits(&plain), bits(&traced), "xs, us, stage_duals");
}

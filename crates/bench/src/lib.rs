//! The `dspp-bench` perf-baseline recorder and regression gate
//! ([`baseline`]) over the committed `BENCH_BASELINE.json`, the
//! dense-vs-structured solver scaling sweep ([`scaling`]), and the
//! fixtures both run on.
//!
//! The workload catalogue — what each timed iteration runs and which
//! exact counters it pins — is the table under "The perf-baseline gate"
//! in `docs/OBSERVABILITY.md`.

pub mod baseline;
pub mod scaling;

/// Allocation counting behind the deterministic baseline counters.
///
/// The crate installs a counting wrapper around the system allocator so
/// `dspp-bench` can report allocation counts per workload. Unlike
/// wall-clock throughput, an allocation count is exactly reproducible for
/// a fixed build, which lets CI *enforce* it (see `compare-metrics`).
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The system allocator plus a relaxed atomic allocation counter.
    pub struct CountingAllocator;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    // SAFETY: every call delegates directly to the system allocator; the
    // only addition is a relaxed counter increment with no side effects
    // on the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Total allocations made by this process so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Runs `f` and returns its result plus the number of allocations it
    /// made. Only meaningful for single-threaded sections (the counter is
    /// process-wide).
    pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = allocations();
        let value = f();
        (value, allocations() - before)
    }
}

use dspp_core::{Allocation, Dspp, DsppBuilder, HorizonProblem};
use dspp_experiments::scenario::{populations, wide_area_problem, SLA_LATENCY};

/// Prediction horizon `W` of the paper-scale solve fixture: the
/// end-to-end benchmark's `paper_stream` controller horizon.
const PAPER_HORIZON: usize = 5;

/// Mean arrival rate of the end-to-end benchmark's `paper_stream`
/// workload, requests/s: 500 000 events per 60 s control period at full
/// size (`e2ebench/src/paper.rs`), around which its diurnal shape swings
/// between 0.55× and 1.45×.
const PAPER_STREAM_RATE: f64 = 500_000.0 / 60.0;

/// The paper's instance: 4 data centers × all 24 access networks of the
/// city database (65 SLA-feasible arcs), market prices, 2000 servers per
/// DC, with one price period per horizon stage.
fn paper_problem() -> Dspp {
    let locations: Vec<usize> = (0..24).collect();
    wide_area_problem(&locations, PAPER_HORIZON, 0.001, SLA_LATENCY)
        .expect("the paper instance builds")
}

/// The paper-scale solve fixture: one control period's horizon
/// (W = 5) on the paper's instance (4 DCs × 24 cities, 65 arcs), with
/// `scale` × `paper_stream`'s mean arrival rate (≈ 8 333 requests/s)
/// split over the cities by metro population, as `paper_stream` splits
/// it. At `scale` 1 every DC runs under 1 % of its 2000 servers, so no
/// capacity row binds.
pub fn paper_horizon(scale: f64) -> HorizonProblem {
    let total = scale * PAPER_STREAM_RATE;
    let pops = populations();
    let sum: f64 = pops.iter().sum();
    let demand: Vec<f64> = pops.iter().map(|p| total * p / sum).collect();
    horizon_fixture(&paper_problem(), &demand, PAPER_HORIZON)
}

/// One control period's horizon problem on `problem`, from an empty
/// allocation: location `v` demands `demand[v]` in every one of the
/// `horizon` stages, and stage `t` prices DC `l` at `problem.price(l, t)`.
/// The solve workloads build their horizon with this at both scales —
/// [`paper_horizon`] and [`huge_problem`] at W = 4 — and so does the
/// [`scaling`] sweep.
pub(crate) fn horizon_fixture(problem: &Dspp, demand: &[f64], horizon: usize) -> HorizonProblem {
    let demand: Vec<Vec<f64>> = demand.iter().map(|&d| vec![d; horizon]).collect();
    let prices: Vec<Vec<f64>> = (0..problem.num_dcs())
        .map(|l| (0..horizon).map(|t| problem.price(l, t)).collect())
        .collect();
    HorizonProblem::build(problem, &Allocation::zeros(problem), &demand, &prices)
        .expect("horizon fixture builds")
}

/// A single-DC problem for controller benchmarks.
pub fn single_dc_problem(periods: usize) -> Dspp {
    DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, 0.001)
        .price_trace(0, vec![0.004; periods])
        .build()
        .expect("valid problem")
}

/// The single-DC problem with its capacity starved far below demand:
/// every strict horizon QP is infeasible, so an MPC step must run the
/// recovery (soft-constraint) solve. Used by the `controller.recovery_step`
/// baseline workload.
pub fn starved_single_dc_problem(periods: usize) -> Dspp {
    DsppBuilder::new(1, 1)
        .service_rate(250.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010]])
        .reconfiguration_weight(0, 0.001)
        .price_trace(0, vec![0.004; periods])
        .capacity(0, 10.0)
        .build()
        .expect("valid problem")
}

/// A 4-DC × `v` locations problem with all-usable arcs.
pub fn multi_dc_problem(v: usize, periods: usize) -> Dspp {
    let latency: Vec<Vec<f64>> = (0..4)
        .map(|l| {
            (0..v)
                .map(|j| 0.008 + 0.004 * (((l + j) % 5) as f64))
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(4, v)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    for l in 0..4 {
        builder = builder
            .price_trace(l, vec![0.004 + 0.001 * l as f64; periods])
            .reconfiguration_weight(l, 0.001);
    }
    builder.build().expect("valid problem")
}

/// A 100×-scale placement instance: `dcs` data centers × `locs` front-end
/// locations, with each location reaching exactly three nearby DCs under
/// the SLA (the rest of the latency matrix is far beyond the deadline, so
/// the builder prunes those arcs). The sparse arc set is what the
/// structured KKT path exploits; the dense Riccati oracle sees a
/// `3·locs`-dimensional state and cubes it (the [`scaling`] sweep).
///
/// Prices cycle over seven tariff levels so the optimizer has real
/// choices, and capacities are tight enough that the cheap DCs bind.
pub fn huge_problem(dcs: usize, locs: usize) -> Dspp {
    let latency: Vec<Vec<f64>> = (0..dcs)
        .map(|l| {
            (0..locs)
                .map(|v| {
                    let near = l == v % dcs || l == (v + 31) % dcs || l == (v + 57) % dcs;
                    if near {
                        0.010
                    } else {
                        0.200
                    }
                })
                .collect()
        })
        .collect();
    let mut builder = DsppBuilder::new(dcs, locs)
        .service_rate(250.0)
        .sla_latency(0.060)
        .latency_rows(latency);
    for l in 0..dcs {
        builder = builder
            .price_trace(l, vec![0.004 + 0.002 * ((l % 7) as f64); 8])
            .reconfiguration_weight(l, 0.001)
            .capacity(l, 150.0);
    }
    builder.build().expect("valid problem")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_solver::IpmSettings;

    #[test]
    fn fixtures_are_solvable() {
        let paper = paper_problem();
        assert_eq!(paper.num_arcs(), 65);
        let h = paper_horizon(1.0);
        assert_eq!(h.horizon(), PAPER_HORIZON);
        let sol = h.solve(&IpmSettings::default()).unwrap();
        // No capacity row binds: every DC runs under 1 % of its servers.
        for x in &sol.xs[1..] {
            for l in 0..paper.num_dcs() {
                let used: f64 =
                    paper.arcs_for_dc(l).iter().map(|&e| x[e]).sum::<f64>() * paper.server_size();
                assert!(
                    used < paper.capacity(l) / 100.0,
                    "DC {l} uses {used} servers"
                );
            }
        }
        assert_eq!(single_dc_problem(10).num_arcs(), 1);
        assert_eq!(multi_dc_problem(6, 10).num_arcs(), 24);
    }

    #[test]
    fn huge_problem_has_three_arcs_per_location() {
        let p = huge_problem(10, 40);
        assert_eq!(p.num_arcs(), 3 * 40);
        for v in 0..40 {
            assert_eq!(p.arcs_for_location(v).len(), 3);
        }
    }
}

//! Solver scaling sweep (`dspp-bench scaling`): the dense Riccati oracle
//! vs the structured Schur-complement KKT path every placement solve
//! takes, wall-clock across instance sizes.
//!
//! Each row solves the same horizon-4 placement QP on [`huge_problem`]
//! instances that grow from 4 DCs × 40 locations to the 100 DC × 1000
//! location scale the structured path was built for. Every location
//! reaches exactly three nearby DCs under the SLA, so the arc count —
//! the dense state dimension — is `3 · locations`. The dense Riccati
//! recursion is cubic in that dimension and is only run while it stays
//! affordable, on the dense expansion ([`dspp_oracle::expand`]) of the
//! very problem the structured arm solves; the structured path factors one
//! small block per location plus a dense capacity Schur complement and is
//! run at every size.
//!
//! The CSV (`results/solver_scaling.csv`) is a timing artifact: the
//! figure run (`all`) does not write it, so the determinism job's
//! byte-for-byte figure diffs never see it. The `solver-scaling` CI job
//! regenerates and uploads it on every PR.

use std::time::Instant;

use dspp_experiments::{ExpResult, Figure};
use dspp_oracle::{expand, solve_lq};
use dspp_solver::IpmSettings;

use crate::{horizon_fixture, huge_problem};

/// Instance sizes swept, as `(data centers, locations)`.
const SIZES: [(usize, usize); 5] = [(4, 40), (10, 100), (20, 200), (50, 500), (100, 1000)];

/// Largest arc count the cubic dense Riccati arm is run at. Beyond this
/// the dense columns are reported as 0 (see the figure notes).
const DENSE_ARC_LIMIT: usize = 300;

const HORIZON: usize = 4;
const SOLVES_PER_CELL: usize = 3;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Runs the sweep and returns the scaling table.
///
/// # Errors
///
/// Propagates solver failures, and fails when the two paths disagree on
/// an objective by more than `1e-5` relative.
pub fn run() -> ExpResult<Figure> {
    let ipm = IpmSettings::fast();
    let mut rows = Vec::new();
    let mut crossover_ratio: f64 = 0.0;
    for (dcs, locs) in SIZES {
        let problem = huge_problem(dcs, locs);
        let arcs = problem.num_arcs();
        let demand: Vec<f64> = (0..locs)
            .map(|v| 1_600.0 + 40.0 * ((v % 11) as f64))
            .collect();
        let hp = horizon_fixture(&problem, &demand, HORIZON);

        let mut structured_ms = Vec::with_capacity(SOLVES_PER_CELL);
        let mut structured_sol = None;
        for _ in 0..SOLVES_PER_CELL {
            let start = Instant::now();
            structured_sol = Some(hp.solve(&ipm)?);
            structured_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let structured_sol = structured_sol.expect("at least one solve");
        let structured_ms = median(structured_ms);

        let (dense_ms, dense_iters) = if arcs <= DENSE_ARC_LIMIT {
            let dense = expand(hp.structured());
            let mut samples = Vec::with_capacity(SOLVES_PER_CELL);
            let mut dense_sol = None;
            for _ in 0..SOLVES_PER_CELL {
                let start = Instant::now();
                dense_sol = Some(solve_lq(&dense, &ipm)?);
                samples.push(start.elapsed().as_secs_f64() * 1e3);
            }
            let dense_sol = dense_sol.expect("at least one solve");
            // Both paths must land on the same optimum; this pins the
            // structured path to its oracle.
            let scale = dense_sol.objective.abs().max(1.0);
            let gap = (dense_sol.objective - structured_sol.objective).abs() / scale;
            if gap > 1e-5 {
                return Err(format!(
                    "dense/structured objective mismatch at {arcs} arcs: \
                     {} vs {} (relative gap {gap:.2e})",
                    dense_sol.objective, structured_sol.objective
                )
                .into());
            }
            (median(samples), dense_sol.iterations as f64)
        } else {
            (0.0, 0.0)
        };
        let speedup = if dense_ms > 0.0 {
            dense_ms / structured_ms.max(1e-9)
        } else {
            0.0
        };
        crossover_ratio = crossover_ratio.max(speedup);
        rows.push(vec![
            arcs as f64,
            dcs as f64,
            locs as f64,
            dense_ms,
            structured_ms,
            speedup,
            structured_sol.iterations as f64,
            dense_iters,
        ]);
    }
    Ok(Figure {
        id: "solver_scaling",
        title: "KKT scaling: dense Riccati oracle vs structured Schur complement".into(),
        header: vec![
            "arcs".into(),
            "dcs".into(),
            "locations".into(),
            "dense_ms".into(),
            "structured_ms".into(),
            "speedup".into(),
            "structured_iters".into(),
            "dense_iters".into(),
        ],
        rows,
        notes: vec![
            format!(
                "dense arm capped at {DENSE_ARC_LIMIT} arcs (cubic Riccati); \
                 0 in the dense columns means skipped"
            ),
            format!("peak measured dense/structured speedup: {crossover_ratio:.1}x"),
            "objectives agree to 1e-5 relative wherever both paths run".into(),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scaling_cell_solves_on_both_paths() {
        // A miniature end-to-end pass of the per-cell logic: the full
        // `run` sweep is exercised by the CI job, not the unit suite.
        let demand: Vec<f64> = (0..40).map(|v| 1_600.0 + (v % 11) as f64).collect();
        let hp = horizon_fixture(&huge_problem(4, 40), &demand, 4);
        let structured = hp.solve(&IpmSettings::fast()).unwrap();
        let dense = solve_lq(&expand(hp.structured()), &IpmSettings::fast()).unwrap();
        let scale = dense.objective.abs().max(1.0);
        assert!((dense.objective - structured.objective).abs() / scale < 1e-5);
    }
}

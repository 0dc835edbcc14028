//! Figure 8: "Impact of prediction horizon length on the speed of
//! convergence" — the best-response game re-run with windows W = 1..10.

use crate::{fig7, ExpResult, Figure};
use dspp_telemetry::Recorder;

/// Regenerates Figure 8, recording game/solver metrics into `telemetry`.
/// The per-round best-response sweeps run on `jobs` workers; output is
/// byte-identical for any `jobs` value.
///
/// # Errors
///
/// Propagates game failures.
pub fn run(telemetry: &Recorder, jobs: usize) -> ExpResult<Figure> {
    let players = 8;
    let bottleneck = 130.0;
    let mut rows = Vec::new();
    for w in 1..=10usize {
        let iters = fig7::iterations_for(players, bottleneck, w, jobs, telemetry)?;
        rows.push(vec![w as f64, iters as f64]);
    }
    let first = rows[0][1];
    let last = rows[9][1];
    let notes = vec![
        format!(
            "iterations at W=1: {first}, at W=10: {last}; the paper reports convergence \
             *improving* with the horizon, our implementation measures a mild increase \
             that saturates — a partial mismatch discussed in EXPERIMENTS.md (the \
             paper does not specify its quota step size or dual aggregation, which \
             this relationship is sensitive to)"
        ),
        format!("{players} providers, bottleneck capacity {bottleneck} on the cheap DC"),
    ];
    Ok(Figure {
        id: "fig8",
        title: "Impact of prediction horizon length on the speed of convergence".into(),
        header: vec!["horizon".into(), "iterations".into()],
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_windows_converge() {
        // Spot-check two windows; the full sweep runs in the binary.
        for w in [1usize, 4] {
            let iters = fig7::iterations_for(3, 200.0, w, 1, &Recorder::disabled()).unwrap();
            assert!(iters < 300, "W={w} failed to converge ({iters})");
        }
    }
}

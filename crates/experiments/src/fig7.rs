//! Figure 7: "Impact of number of players on the convergence rate" — the
//! best-response iteration (Algorithm 2) with 1–10 providers competing for
//! a bottlenecked cheapest data center (capacity 100 / 200 / 300 servers).

use crate::{ExpResult, Figure};
use dspp_core::DsppBuilder;
use dspp_game::{GameConfig, ResourceGame, ServiceProvider};
use dspp_solver::IpmSettings;
use dspp_telemetry::Recorder;

/// Bottleneck capacities the paper sweeps on the cheapest (Dallas, TX)
/// data center.
pub const BOTTLENECKS: [f64; 3] = [100.0, 200.0, 300.0];

/// Builds `n` providers that all prefer the cheap TX data center.
///
/// Parameters vary deterministically per provider (`μ_i`, `d̄_i`, `s_i`,
/// `c_i`, demand level), mirroring the paper's "generated randomly".
///
/// # Errors
///
/// Propagates builder failures.
pub fn providers(n: usize, window: usize) -> ExpResult<Vec<ServiceProvider>> {
    let num_dcs = 4;
    let num_locations = 3;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mu = 90.0 + 10.0 * ((i * 13 % 7) as f64);
        let dbar = 0.065 + 0.005 * ((i * 7 % 6) as f64);
        let size = [1.0, 2.0, 1.0, 4.0, 2.0][i % 5];
        // Location 0 is *captive* to the cheap DC: only DC 1 can serve it
        // within the SLA, so every provider needs a minimum quota there.
        // Tight bottlenecks then force Algorithm 2 through several rounds of
        // quota discovery before every captive demand fits — the mechanism
        // behind the paper's iteration counts growing with contention.
        let latency: Vec<Vec<f64>> = (0..num_dcs)
            .map(|l| {
                (0..num_locations)
                    .map(|v| {
                        if v == 0 {
                            if l == 1 {
                                0.006
                            } else {
                                0.120
                            }
                        } else {
                            0.008 + 0.004 * (((l + 2 * v + i) % 5) as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        let mut builder = DsppBuilder::new(num_dcs, num_locations)
            .service_rate(mu)
            .sla_latency(dbar)
            .latency_rows(latency)
            .server_size(size);
        for l in 0..num_dcs {
            // DC 1 (TX) is systematically the cheapest — the bottleneck
            // everyone fights over. Fallback prices differ *per provider*:
            // redistribution of cheap capacity toward providers with costly
            // alternatives is what drives the total cost down across
            // iterations (with homogeneous alternatives the reallocation
            // would be zero-sum and Algorithm 2 would stop immediately).
            let price = if l == 1 {
                0.5
            } else {
                1.0 + 0.3 * ((i * 3 + l) % 5) as f64
            };
            builder = builder
                .price_trace(l, vec![price; window + 1])
                .reconfiguration_weight(l, 0.05 + 0.01 * ((i + l) % 4) as f64);
        }
        let problem = builder.build()?;
        let demand: Vec<Vec<f64>> = (0..num_locations)
            .map(|v| {
                // Captive demand is sized so its resource need (a·D·s) is
                // roughly size-independent and heterogeneous across
                // providers (~4–15 bottleneck units each).
                let level = if v == 0 {
                    (400.0 + 150.0 * ((i * 2 % 5) as f64)) / size
                } else {
                    700.0 * (0.8 + 0.1 * ((i + v) % 5) as f64)
                };
                (0..window)
                    .map(|t| level * (1.0 + 0.15 * ((t + v) as f64).sin()))
                    .collect()
            })
            .collect();
        out.push(ServiceProvider::new(problem, demand)?);
    }
    Ok(out)
}

/// Game configuration used by Figures 7–8 (the paper's ε = 0.05).
pub fn game_config() -> GameConfig {
    GameConfig {
        alpha: 3.0,
        // The paper's ε = 0.05 is relative to *its* cost scale, where the
        // contested bottleneck dominates each provider's bill. In our
        // calibration the negotiable surplus is a smaller fraction of the
        // total cost, so the same stopping sensitivity requires a
        // proportionally smaller ε (see EXPERIMENTS.md).
        epsilon: 0.002,
        max_iterations: 200,
        ipm: IpmSettings::fast(),
        telemetry: Recorder::disabled(),
        recovery: dspp_core::RecoverySettings::default(),
        jobs: 1,
    }
}

/// Runs one game and returns the iterations to (approximate) convergence,
/// recording `game.*` metrics into `telemetry`. The per-round
/// best-response sweep fans out on `jobs` workers ([`GameConfig::jobs`]);
/// the game outcome — and therefore the figure — is byte-identical for any
/// `jobs` value.
///
/// # Errors
///
/// Propagates game failures.
pub fn iterations_for(
    n_players: usize,
    bottleneck: f64,
    window: usize,
    jobs: usize,
    telemetry: &Recorder,
) -> ExpResult<usize> {
    let sps = providers(n_players, window)?;
    let caps = vec![2000.0, bottleneck, 2000.0, 2000.0];
    let game = ResourceGame::new(sps, caps)?;
    let config = GameConfig {
        telemetry: telemetry.clone(),
        jobs,
        ..game_config()
    };
    let out = game.run(&config)?;
    Ok(out.iterations)
}

/// Regenerates Figure 7, recording game/solver metrics into `telemetry`.
/// The per-round best-response sweeps run on `jobs` workers; output is
/// byte-identical for any `jobs` value.
///
/// # Errors
///
/// Propagates game failures.
pub fn run(telemetry: &Recorder, jobs: usize) -> ExpResult<Figure> {
    let window = 3;
    let mut rows = Vec::new();
    for n in 1..=10usize {
        let mut row = vec![n as f64];
        for &cap in &BOTTLENECKS {
            row.push(iterations_for(n, cap, window, jobs, telemetry)? as f64);
        }
        rows.push(row);
    }
    let col_avg = |c: usize| rows.iter().map(|r| r[c]).sum::<f64>() / rows.len() as f64;
    let notes = vec![
        format!(
            "mean iterations: cap 100 → {:.1}, cap 200 → {:.1}, cap 300 → {:.1} \
             (paper: tighter bottleneck converges slower)",
            col_avg(1),
            col_avg(2),
            col_avg(3)
        ),
        format!(
            "iterations at 10 players vs 1 player (cap 100): {} vs {} \
             (paper: grows with the number of players)",
            rows[9][1], rows[0][1]
        ),
    ];
    Ok(Figure {
        id: "fig7",
        title: "Impact of number of players on the convergence rate".into(),
        header: vec![
            "players".into(),
            "iterations_cap100".into(),
            "iterations_cap200".into(),
            "iterations_cap300".into(),
        ],
        rows,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn competition_slows_convergence() {
        // Compact version of the figure: 2 vs 6 players on the tight cap.
        let telemetry = Recorder::disabled();
        let few = iterations_for(2, 150.0, 3, 1, &telemetry).unwrap();
        let many = iterations_for(6, 150.0, 3, 1, &telemetry).unwrap();
        assert!(
            many >= few,
            "6 players ({many}) should need at least as many iterations as 2 ({few})"
        );
    }

    #[test]
    fn loose_capacity_converges_fast() {
        let iters = iterations_for(4, 5000.0, 3, 1, &Recorder::disabled()).unwrap();
        assert!(iters <= 5, "uncontested game took {iters} iterations");
    }
}

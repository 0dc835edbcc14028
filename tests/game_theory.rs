//! Integration tests of the Section VI claims: existence of a socially
//! optimal equilibrium (Theorem 1), ε-Nash property of the converged
//! outcome, and capacity discipline under competition.
//!
//! Theorem 1's price of stability is sampled by
//! [`price_of_anarchy_bounds`], which lives here beside its tests.

use dspp::core::CoreError;
use dspp::game::{
    equilibrium_gaps, solve_social_welfare, GameConfig, ResourceGame, SpSampler, SwpSolution,
};
use dspp::solver::IpmSettings;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config() -> GameConfig {
    GameConfig {
        epsilon: 0.01,
        ipm: IpmSettings::fast(),
        ..GameConfig::default()
    }
}

/// Empirical price-of-anarchy / price-of-stability bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PoaBounds {
    /// Worst observed `J_NE / J_SWP` — a lower bound on the PoA.
    worst: f64,
    /// Best observed `J_NE / J_SWP` — an upper bound on the PoS.
    best: f64,
    /// Number of equilibria sampled.
    samples: usize,
}

/// Estimates PoA/PoS by running Algorithm 2 from several random initial
/// quota splits and comparing each converged cost to the social optimum.
///
/// Theorem 1 predicts `best ≈ 1`; `worst` quantifies how much the
/// *particular* equilibrium reached can deviate.
///
/// # Errors
///
/// Propagates game or SWP failures.
///
/// # Panics
///
/// Panics if `num_starts == 0`.
fn price_of_anarchy_bounds(
    game: &ResourceGame,
    swp: &SwpSolution,
    config: &GameConfig,
    num_starts: usize,
    seed: u64,
) -> Result<PoaBounds, CoreError> {
    assert!(num_starts > 0, "need at least one start");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = game.providers().len();
    let nl = game.total_capacity().len();
    let mut worst = f64::NEG_INFINITY;
    let mut best = f64::INFINITY;
    let mut samples = 0;
    for s in 0..num_starts {
        let quotas: Vec<Vec<f64>> = if s == 0 {
            // Deterministic equal split first.
            vec![game.total_capacity().iter().map(|c| c / n as f64).collect(); n]
        } else {
            // Random positive split per DC, normalized to the capacity.
            let mut q = vec![vec![0.0; nl]; n];
            for (l, &cap) in game.total_capacity().iter().enumerate().take(nl) {
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.0)).collect();
                let sum: f64 = weights.iter().sum();
                for (qi, w) in q.iter_mut().zip(&weights) {
                    qi[l] = w / sum * cap;
                }
            }
            q
        };
        let out = game.run_from(quotas, config)?;
        if !out.converged {
            continue;
        }
        let ratio = out.total_cost / swp.objective;
        worst = worst.max(ratio);
        best = best.min(ratio);
        samples += 1;
    }
    if samples == 0 {
        return Err(CoreError::InvalidSpec(
            "no start converged; loosen the game config".into(),
        ));
    }
    Ok(PoaBounds {
        worst,
        best,
        samples,
    })
}

/// The settings of `poa_bounds_bracket_one`: a looser ε than [`config`].
fn cfg() -> GameConfig {
    GameConfig {
        epsilon: 0.02,
        ipm: IpmSettings::fast(),
        ..GameConfig::default()
    }
}

#[test]
fn theorem1_price_of_stability_close_to_one_across_seeds() {
    for seed in [1u64, 2, 3] {
        let providers = SpSampler::new(2, 2, 3).with_seed(seed).sample(3).unwrap();
        let caps = vec![70.0, 70.0];
        let swp = solve_social_welfare(&providers, &caps, &IpmSettings::fast()).unwrap();
        let game = ResourceGame::new(providers, caps).unwrap();
        let out = game.run(&config()).unwrap();
        assert!(out.converged, "seed {seed}: no convergence");
        let pos = out.total_cost / swp.objective;
        assert!(
            (0.98..1.20).contains(&pos),
            "seed {seed}: PoS estimate {pos}"
        );
    }
}

#[test]
fn converged_outcomes_are_epsilon_nash() {
    let providers = SpSampler::new(3, 2, 3).with_seed(5).sample(4).unwrap();
    let caps = vec![60.0, 60.0, 60.0];
    let game = ResourceGame::new(providers, caps).unwrap();
    let out = game.run(&config()).unwrap();
    assert!(out.converged);
    let gaps = equilibrium_gaps(&game, &out, &config()).unwrap();
    for (i, g) in gaps.iter().enumerate() {
        assert!(*g <= 0.12, "provider {i} gap {:.1}%", g * 100.0);
    }
}

#[test]
fn poa_bounds_are_ordered_and_near_one() {
    let providers = SpSampler::new(2, 2, 3).with_seed(8).sample(3).unwrap();
    let caps = vec![80.0, 80.0];
    let swp = solve_social_welfare(&providers, &caps, &IpmSettings::fast()).unwrap();
    let game = ResourceGame::new(providers, caps).unwrap();
    let bounds = price_of_anarchy_bounds(&game, &swp, &config(), 4, 99).unwrap();
    assert!(bounds.best <= bounds.worst + 1e-12);
    assert!(bounds.best < 1.15, "best {}", bounds.best);
    assert!(bounds.samples >= 2);
}

#[test]
fn capacity_is_never_oversubscribed_at_equilibrium() {
    use dspp::core::Allocation;
    let providers = SpSampler::new(2, 2, 4).with_seed(12).sample(5).unwrap();
    let caps = vec![50.0, 50.0];
    let game = ResourceGame::new(providers, caps.clone()).unwrap();
    let out = game.run(&config()).unwrap();
    for t in 1..=game.horizon() {
        for (l, &cap) in caps.iter().enumerate() {
            let used: f64 = out
                .solutions
                .iter()
                .enumerate()
                .map(|(i, sol)| {
                    let sp = &game.providers()[i];
                    let x = Allocation::from_arc_values(&sp.problem, sol.xs[t].as_slice().to_vec());
                    x.per_dc(&sp.problem)[l] * sp.problem.server_size()
                })
                .sum();
            assert!(used <= cap * 1.001, "stage {t} dc {l}: {used} > {cap}");
        }
    }
}

#[test]
fn poa_bounds_bracket_one() {
    let sps = SpSampler::new(2, 2, 3).with_seed(22).sample(3).unwrap();
    let caps = vec![60.0, 60.0];
    let swp = solve_social_welfare(&sps, &caps, &IpmSettings::fast()).unwrap();
    let game = ResourceGame::new(sps, caps).unwrap();
    let bounds = price_of_anarchy_bounds(&game, &swp, &cfg(), 3, 7).unwrap();
    assert!(bounds.samples >= 1);
    assert!(bounds.best <= bounds.worst + 1e-12);
    // Theorem 1: a socially-near-optimal equilibrium exists.
    assert!(
        bounds.best < 1.15,
        "best NE/SWP ratio {} too far above 1",
        bounds.best
    );
    // Ratios below ~1 can only come from convergence slack.
    assert!(bounds.best > 0.9);
}

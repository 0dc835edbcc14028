//! The multi-provider resource-competition game of Section VI.
//!
//! `N` service providers share the data centers' capacity. Each provider
//! solves its own DSPP over the horizon, but the capacity constraint
//! `Σ_i s^i Σ_v x^{ilv}_k ≤ C^l` couples them. The paper models this as an
//! `N`-player dynamic non-cooperative game, proves the price of stability
//! is 1 (Theorem 1: a Nash equilibrium achieving the social optimum exists
//! under a common prediction window), and computes that equilibrium with a
//! dual-decomposition best-response iteration (Algorithm 2): providers
//! request capacity quotas, solve, report the capacity-constraint dual
//! variables, and the infrastructure provider re-divides capacity in
//! proportion to those shadow prices.
//!
//! This crate implements all of it:
//!
//! * [`ServiceProvider`] — one player: its own [`dspp_core::Dspp`]
//!   (service rate, SLA, prices, reconfiguration weights, server size) plus
//!   its demand over the game window.
//! * [`ResourceGame`] + [`GameConfig`] — Algorithm 2 ([`ResourceGame::run`])
//!   with the paper's relative-cost convergence test (ε = 0.05). Each best
//!   response is the provider's `HorizonProblem` under its quota, decided
//!   by `HorizonProblem::solve_or_recover`, the ladder the MPC controller
//!   uses: a starved provider recovers with a bounded shortfall instead of
//!   dead-ending. Round 1 solves cold; every later round starts each
//!   provider from its previous round's inputs, duals and slacks.
//! * [`solve_social_welfare`] — the joint (SWP) optimum, solved exactly as
//!   one horizon problem over the stacked providers
//!   (`HorizonProblem::build_shared`).
//! * [`equilibrium_gaps`] — ε-Nash verification by unilateral deviation
//!   against per-stage residual capacities.
//! * [`SpSampler`] — the random provider generator of Section VII-B
//!   (random `μ_i, D_k^i, s^i, c^{il}, d̄^i`).
//! * [`run_rolling_game`] — the full rolling W-MPC game: Algorithm 2 re-run
//!   every control period as the windows slide, with warm-started quotas.
//!
//! # Examples
//!
//! ```
//! use dspp_game::{GameConfig, ResourceGame, SpSampler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let providers = SpSampler::new(2, 2, 3).with_seed(7).sample(3)?;
//! let game = ResourceGame::new(providers, vec![50.0, 50.0])?;
//! let outcome = game.run(&GameConfig::default())?;
//! assert!(outcome.converged);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod best_response;
mod nash;
mod provider;
mod rolling;
mod swp;

pub use best_response::{GameConfig, GameOutcome, ResourceGame};
pub use nash::equilibrium_gaps;
pub use provider::{ServiceProvider, SpSampler};
pub use rolling::{run_rolling_game, RollingPeriod, RollingReport};
pub use swp::{solve_social_welfare, SwpSolution};

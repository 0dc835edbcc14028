//! The discrete-event simulator validates the analytic M/M/1 model the SLA
//! constraint is derived from: a pool provisioned at `x = a·σ` servers must
//! empirically meet the latency target.
//!
//! The simulator lives here, beside its only caller. Each pool models one
//! DSPP arc: Poisson arrivals at rate `σ`, dispatched uniformly at random
//! over `x` servers, each an independent FCFS queue with exponential
//! service at rate `μ` — exactly the "demand split equally among the local
//! servers, M/M/1 queueing" model of Section IV-B.

use dspp::core::SlaSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Draws an exponential with the given rate (mean `1/rate`).
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "rate must be > 0, got {rate}"
    );
    loop {
        let u: f64 = rng.gen();
        if u > f64::MIN_POSITIVE {
            return -u.ln() / rate;
        }
    }
}

/// Static description of one pool.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PoolSpec {
    /// Number of servers.
    servers: usize,
    /// Aggregate Poisson arrival rate `σ` (requests per second).
    arrival_rate: f64,
    /// Per-server exponential service rate `μ`.
    service_rate: f64,
}

/// Empirical statistics of one pool after a run.
#[derive(Debug, Clone, PartialEq)]
struct PoolStats {
    /// Completed requests.
    completed: u64,
    /// Mean sojourn time (waiting + service), seconds.
    mean_delay: f64,
    /// 95th-percentile sojourn time, seconds.
    p95_delay: f64,
    /// Mean server utilization `λ/μ` measured from busy time.
    utilization: f64,
}

/// Discrete-event simulation configuration.
#[derive(Debug, Clone, PartialEq)]
struct DesConfig {
    /// The pools to simulate (independent of each other).
    pools: Vec<PoolSpec>,
    /// Simulated duration, seconds.
    duration: f64,
    /// Warm-up prefix excluded from the statistics, seconds.
    warmup: f64,
    /// RNG seed.
    seed: u64,
}

#[derive(Debug, PartialEq)]
enum EventKind {
    Arrival { pool: usize },
    Departure { pool: usize, server: usize },
}

#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    kind: EventKind,
}

impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by time.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the discrete-event simulation.
///
/// # Panics
///
/// Panics if the configuration is degenerate (no pools, zero-duration run,
/// a pool with zero servers, or non-positive rates).
fn run_des(config: &DesConfig) -> Vec<PoolStats> {
    assert!(!config.pools.is_empty(), "need at least one pool");
    assert!(config.duration > 0.0, "duration must be positive");
    assert!(
        config.warmup >= 0.0 && config.warmup < config.duration,
        "warmup must lie inside the run"
    );
    for p in &config.pools {
        assert!(p.servers > 0, "pools need at least one server");
        assert!(p.arrival_rate >= 0.0, "arrival rate must be >= 0");
        assert!(p.service_rate > 0.0, "service rate must be > 0");
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    // Per server: FIFO of arrival times waiting or in service; busy-until.
    struct Server {
        queue: std::collections::VecDeque<f64>,
        busy_since: f64,
        busy_total: f64,
    }
    let mut servers: Vec<Vec<Server>> = config
        .pools
        .iter()
        .map(|p| {
            (0..p.servers)
                .map(|_| Server {
                    queue: std::collections::VecDeque::new(),
                    busy_since: 0.0,
                    busy_total: 0.0,
                })
                .collect()
        })
        .collect();
    let mut delays: Vec<Vec<f64>> = vec![Vec::new(); config.pools.len()];

    // Seed the first arrival of each pool.
    for (i, p) in config.pools.iter().enumerate() {
        if p.arrival_rate > 0.0 {
            heap.push(Event {
                time: exponential(&mut rng, p.arrival_rate),
                kind: EventKind::Arrival { pool: i },
            });
        }
    }

    while let Some(ev) = heap.pop() {
        if ev.time > config.duration {
            break;
        }
        match ev.kind {
            EventKind::Arrival { pool } => {
                let spec = config.pools[pool];
                // Next arrival.
                heap.push(Event {
                    time: ev.time + exponential(&mut rng, spec.arrival_rate),
                    kind: EventKind::Arrival { pool },
                });
                // Uniform random dispatch (the "split equally" policy in
                // expectation).
                let s = rng.gen_range(0..spec.servers);
                let server = &mut servers[pool][s];
                server.queue.push_back(ev.time);
                if server.queue.len() == 1 {
                    // Idle server starts service immediately.
                    server.busy_since = ev.time;
                    heap.push(Event {
                        time: ev.time + exponential(&mut rng, spec.service_rate),
                        kind: EventKind::Departure { pool, server: s },
                    });
                }
            }
            EventKind::Departure { pool, server: s } => {
                let spec = config.pools[pool];
                let server = &mut servers[pool][s];
                let arrived = server.queue.pop_front().expect("departure without job");
                if ev.time >= config.warmup {
                    delays[pool].push(ev.time - arrived);
                }
                if let Some(_next) = server.queue.front() {
                    heap.push(Event {
                        time: ev.time + exponential(&mut rng, spec.service_rate),
                        kind: EventKind::Departure { pool, server: s },
                    });
                } else {
                    server.busy_total += ev.time - server.busy_since;
                }
            }
        }
    }

    // Close out busy intervals for still-busy servers.
    for pool in &mut servers {
        for s in pool.iter_mut() {
            if !s.queue.is_empty() {
                s.busy_total += config.duration - s.busy_since;
            }
        }
    }

    config
        .pools
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let d = &mut delays[i];
            d.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            let completed = d.len() as u64;
            let mean = if d.is_empty() {
                0.0
            } else {
                d.iter().sum::<f64>() / d.len() as f64
            };
            let p95 = if d.is_empty() {
                0.0
            } else {
                d[((d.len() as f64 * 0.95) as usize).min(d.len() - 1)]
            };
            let busy: f64 = servers[i].iter().map(|s| s.busy_total).sum();
            PoolStats {
                completed,
                mean_delay: mean,
                p95_delay: p95,
                utilization: busy / (config.duration * spec.servers as f64),
            }
        })
        .collect()
}

#[test]
fn exponential_mean() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 50_000;
    let rate = 4.0;
    let m: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
    assert!((m - 0.25).abs() < 0.01, "mean {m}");
}

#[test]
fn sla_coefficient_is_empirically_calibrated() {
    // μ = 10 req/s per server, 500 ms total budget over a 100 ms hop.
    let sla = SlaSpec::mean_delay(10.0, 0.500).unwrap();
    let network = 0.100;
    let a = sla.arc_coefficient(network).expect("usable arc");
    let sigma = 120.0;
    // Provision exactly at the constraint boundary, rounded up as the
    // paper prescribes for deployment.
    let servers = (a * sigma).ceil() as usize;
    let stats = run_des(&DesConfig {
        pools: vec![PoolSpec {
            servers,
            arrival_rate: sigma,
            service_rate: 10.0,
        }],
        duration: 30_000.0,
        warmup: 2_000.0,
        seed: 17,
    });
    let total = network + stats[0].mean_delay;
    assert!(
        total <= sla.max_latency * 1.03,
        "empirical latency {total:.3}s exceeds the {:.3}s SLA",
        sla.max_latency
    );
    // And the provisioning is not wasteful: one server less would overshoot.
    let starved = run_des(&DesConfig {
        pools: vec![PoolSpec {
            servers: servers.saturating_sub(2).max(1),
            arrival_rate: sigma,
            service_rate: 10.0,
        }],
        duration: 30_000.0,
        warmup: 2_000.0,
        seed: 17,
    });
    assert!(
        network + starved[0].mean_delay > total,
        "removing servers should increase delay"
    );
}

#[test]
fn percentile_sla_holds_empirically() {
    // 95th-percentile SLA: the queue factor ln(20) demands more servers,
    // and the DES p95 must then meet the target.
    let sla = SlaSpec::percentile_delay(10.0, 0.500, 0.95).unwrap();
    let network = 0.100;
    let a = sla.arc_coefficient(network).expect("usable arc");
    let sigma = 120.0;
    let servers = (a * sigma).ceil() as usize;
    let stats = run_des(&DesConfig {
        pools: vec![PoolSpec {
            servers,
            arrival_rate: sigma,
            service_rate: 10.0,
        }],
        duration: 30_000.0,
        warmup: 2_000.0,
        seed: 29,
    });
    let total_p95 = network + stats[0].p95_delay;
    assert!(
        total_p95 <= sla.max_latency * 1.05,
        "empirical p95 {total_p95:.3}s exceeds the {:.3}s SLA",
        sla.max_latency
    );
}

#[test]
fn reservation_ratio_provides_headroom() {
    // With a 30 % cushion, the pool runs under the SLA even when demand
    // comes in 15 % above the planning estimate.
    let base = SlaSpec::mean_delay(10.0, 0.500).unwrap();
    let cushioned = base.with_reservation_ratio(1.3).unwrap();
    let network = 0.100;
    let a = cushioned.arc_coefficient(network).expect("usable arc");
    let planned_sigma = 100.0;
    let actual_sigma = 115.0;
    let servers = (a * planned_sigma).ceil() as usize;
    let stats = run_des(&DesConfig {
        pools: vec![PoolSpec {
            servers,
            arrival_rate: actual_sigma,
            service_rate: 10.0,
        }],
        duration: 30_000.0,
        warmup: 2_000.0,
        seed: 31,
    });
    assert!(
        network + stats[0].mean_delay <= base.max_latency,
        "cushioned pool still violated under 15% overload: {:.3}s",
        network + stats[0].mean_delay
    );
}

#[test]
fn mm1_mean_delay_matches_theory() {
    // Single server, λ = 6, μ = 10 → mean sojourn 1/(μ−λ) = 0.25 s.
    let cfg = DesConfig {
        pools: vec![PoolSpec {
            servers: 1,
            arrival_rate: 6.0,
            service_rate: 10.0,
        }],
        duration: 20_000.0,
        warmup: 1_000.0,
        seed: 42,
    };
    let stats = run_des(&cfg);
    let got = stats[0].mean_delay;
    assert!(
        (got - 0.25).abs() < 0.02,
        "mean delay {got} vs theoretical 0.25"
    );
    // Utilization ρ = 0.6.
    assert!((stats[0].utilization - 0.6).abs() < 0.03);
}

#[test]
fn pool_splitting_matches_per_server_mm1() {
    // 10 servers, aggregate λ = 60, μ = 10 per server: each server is an
    // M/M/1 with λ = 6 → same 0.25 s sojourn.
    let cfg = DesConfig {
        pools: vec![PoolSpec {
            servers: 10,
            arrival_rate: 60.0,
            service_rate: 10.0,
        }],
        duration: 5_000.0,
        warmup: 500.0,
        seed: 7,
    };
    let stats = run_des(&cfg);
    assert!(
        (stats[0].mean_delay - 0.25).abs() < 0.02,
        "pool mean delay {}",
        stats[0].mean_delay
    );
}

#[test]
fn p95_exceeds_mean_and_matches_exponential_sojourn() {
    // M/M/1 sojourn is exponential with rate μ−λ; p95 = ln(20)/(μ−λ).
    let cfg = DesConfig {
        pools: vec![PoolSpec {
            servers: 1,
            arrival_rate: 5.0,
            service_rate: 10.0,
        }],
        duration: 20_000.0,
        warmup: 1_000.0,
        seed: 3,
    };
    let stats = run_des(&cfg);
    let expect = 20.0f64.ln() / 5.0;
    assert!(stats[0].p95_delay > stats[0].mean_delay);
    assert!(
        (stats[0].p95_delay - expect).abs() < 0.08,
        "p95 {} vs {expect}",
        stats[0].p95_delay
    );
}

#[test]
fn deterministic_given_seed_and_multiple_pools() {
    let cfg = DesConfig {
        pools: vec![
            PoolSpec {
                servers: 2,
                arrival_rate: 8.0,
                service_rate: 10.0,
            },
            PoolSpec {
                servers: 1,
                arrival_rate: 0.0,
                service_rate: 10.0,
            },
        ],
        duration: 500.0,
        warmup: 0.0,
        seed: 5,
    };
    let a = run_des(&cfg);
    let b = run_des(&cfg);
    assert_eq!(a, b);
    // The idle pool completed nothing.
    assert_eq!(a[1].completed, 0);
    assert_eq!(a[1].utilization, 0.0);
}

#[test]
#[should_panic(expected = "at least one server")]
fn zero_servers_rejected() {
    run_des(&DesConfig {
        pools: vec![PoolSpec {
            servers: 0,
            arrival_rate: 1.0,
            service_rate: 1.0,
        }],
        duration: 1.0,
        warmup: 0.0,
        seed: 0,
    });
}

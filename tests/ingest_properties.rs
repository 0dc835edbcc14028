//! Property-based tests on the streaming-ingest invariants.
//!
//! * **Demand conservation** — sealed per-period matrices account for
//!   every generated event exactly: per-city counts match an
//!   independent replay of the generator plus the admission arithmetic,
//!   and no mass is lost or invented
//!   (`generated == admitted + dropped + final_carry`, all integers).
//! * **Shard-layout independence** — the sealed ledger, its CSV export,
//!   and the routed per-arc totals are byte-identical at `--jobs 1` and
//!   `--jobs 4`, because event streams are pure functions of
//!   `(seed, city, period)` and aggregation is commutative integer
//!   addition (shard-local tallies folded into the sealed period).
//! * **Shared-snapshot routing** — routing the whole stream off the one
//!   snapshot every shard borrows matches single-shard routing totals.
//! * **Checkpoint round-trip** — interrupt, JSON round-trip, restore
//!   into a fresh loop: bit-exact resume for any checkpoint position.
//! * **Capacity-schedule round-trip** — the fault plane's capacity
//!   time-series survives the version-2 checkpoint schema bit-for-bit,
//!   and a restored mid-outage loop resumes exactly.
//! * **Outage conservation** — for any outage placement the
//!   outage-triggered masked republish routes nothing to the dead DC
//!   and the integer conservation identity still holds, independent of
//!   the shard layout.

use dspp::core::{DsppBuilder, MpcController, MpcSettings, PlacementPolicy};
use dspp::ingest::{
    generate_city_period, BackpressureBudget, IngestCheckpoint, IngestConfig, IngestLoop,
};
use dspp::predict::LastValue;
use proptest::prelude::*;

const PERIOD_SECONDS: u64 = 30;

/// A 2-DC × 3-city loop over `periods` periods of per-city `rates`.
fn build_loop(
    rates: &[f64],
    periods: usize,
    seed: u64,
    jobs: usize,
    budget: BackpressureBudget,
) -> IngestLoop {
    let problem = DsppBuilder::new(2, 3)
        .service_rate(100.0)
        .sla_latency(0.100)
        .latency_rows(vec![vec![0.010, 0.020, 0.035], vec![0.030, 0.015, 0.012]])
        .price_trace(0, vec![1.0; periods + 8])
        .price_trace(1, vec![1.4; periods + 8])
        .build()
        .expect("valid spec");
    let controller = MpcController::new(
        problem,
        Box::new(LastValue),
        MpcSettings {
            horizon: 3,
            ..MpcSettings::default()
        },
    )
    .expect("valid controller");
    let plan: Vec<Vec<f64>> = rates.iter().map(|&r| vec![r; periods]).collect();
    IngestLoop::new(
        Box::new(controller) as Box<dyn PlacementPolicy>,
        plan,
        IngestConfig::new(seed)
            .with_period_seconds(PERIOD_SECONDS)
            .with_jobs(jobs)
            .with_budget(budget),
    )
    .expect("valid loop")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sealed matrices conserve demand exactly: the per-city counts of
    /// every period equal the independently replayed generator counts
    /// fed through the admission arithmetic, and the run-level integer
    /// identity `generated == admitted + dropped + backlog` holds.
    #[test]
    fn prop_sealed_matrices_conserve_demand(
        seed in 0u64..1_000_000,
        r0 in 5.0f64..60.0,
        r1 in 5.0f64..60.0,
        r2 in 5.0f64..60.0,
        cap in 200u64..2_000,
    ) {
        let rates = [r0, r1, r2];
        let periods = 4;
        let budget = BackpressureBudget::new(cap, cap / 2);
        let mut l = build_loop(&rates, periods, seed, 1, budget);
        let totals = l.run_to_end().expect("runs");

        // Independent replay: regenerate each (city, period) stream and
        // push the counts through the same admission arithmetic.
        let mut buf = Vec::new();
        let mut carry = [0u64; 3];
        let mut generated = 0u64;
        for (k, sealed) in l.sealed().iter().enumerate() {
            for (city, &rate) in rates.iter().enumerate() {
                let fresh = generate_city_period(
                    seed, city, k, rate, PERIOD_SECONDS as f64, &mut buf,
                );
                generated += fresh;
                let a = dspp::ingest::admit(budget, carry[city], fresh);
                carry[city] = a.carry_out;
                // Exact per-city conservation inside the sealed matrix.
                prop_assert_eq!(sealed.city_counts[city], a.admitted());
            }
            // Every admitted event lands on exactly one arc or is
            // counted unroutable — no mass leaks inside a period.
            let routed: u64 = sealed.arc_counts.iter().sum();
            prop_assert_eq!(routed + sealed.unroutable, sealed.total_events());
        }
        let backlog: u64 = l.carry_backlog().iter().sum();
        prop_assert_eq!(generated, totals.generated);
        prop_assert_eq!(totals.generated, totals.admitted + totals.dropped + backlog);
    }

    /// Shard layout cannot change the sealed ledger: jobs=1 and jobs=4
    /// seal byte-identical matrices and CSVs, and routing across shards
    /// off the shared snapshot matches the single-shard totals per arc.
    #[test]
    fn prop_sealed_matrices_shard_independent(
        seed in 0u64..1_000_000,
        r0 in 5.0f64..50.0,
        r1 in 5.0f64..50.0,
        r2 in 5.0f64..50.0,
        limited in 0u8..2,
    ) {
        let rates = [r0, r1, r2];
        let budget = if limited == 1 {
            BackpressureBudget::new(600, 200)
        } else {
            BackpressureBudget::unlimited()
        };
        let mut a = build_loop(&rates, 3, seed, 1, budget);
        let mut b = build_loop(&rates, 3, seed, 4, budget);
        a.run_to_end().expect("runs");
        b.run_to_end().expect("runs");
        prop_assert_eq!(a.sealed(), b.sealed());
        prop_assert_eq!(a.sealed_matrix_csv(), b.sealed_matrix_csv());
        for (sa, sb) in a.sealed().iter().zip(b.sealed()) {
            prop_assert_eq!(&sa.arc_counts, &sb.arc_counts);
            prop_assert_eq!(sa.class_kib, sb.class_kib);
        }
    }

    /// Checkpoint/restore is bit-exact from any interior position: the
    /// restored loop's remaining periods, CSV export, and accumulated
    /// float cost match the uninterrupted run to the last bit.
    #[test]
    fn prop_checkpoint_resume_is_bit_exact(
        seed in 0u64..1_000_000,
        cut in 1usize..5,
    ) {
        let rates = [20.0, 12.0, 8.0];
        let periods = 5;
        let budget = BackpressureBudget::new(500, 150);
        let mut full = build_loop(&rates, periods, seed, 2, budget);
        full.run_to_end().expect("runs");

        let mut first = build_loop(&rates, periods, seed, 2, budget);
        while first.cursor() < cut {
            first.step().expect("steps");
        }
        let json = first.checkpoint().expect("checkpointable").to_json();
        let parsed = IngestCheckpoint::from_json(&json).expect("parses");
        let mut resumed = build_loop(&rates, periods, seed, 2, budget);
        resumed.restore(&parsed).expect("restores");
        resumed.run_to_end().expect("runs");

        prop_assert_eq!(full.sealed(), resumed.sealed());
        prop_assert_eq!(full.sealed_matrix_csv(), resumed.sealed_matrix_csv());
        prop_assert_eq!(
            full.totals().step_cost.to_bits(),
            resumed.totals().step_cost.to_bits()
        );
        prop_assert_eq!(full.totals().generated, resumed.totals().generated);
        prop_assert_eq!(full.carry_backlog(), resumed.carry_backlog());
    }

    /// The capacity time-series round-trips through the version-2
    /// checkpoint schema bit-for-bit (the `n/7` factors have repeating
    /// binary fractions, so this pins the shortest-round-trip float
    /// formatting), and a loop restored mid-outage finishes exactly
    /// like the uninterrupted run.
    #[test]
    fn prop_capacity_schedule_roundtrips_bit_exact(
        seed in 0u64..1_000_000,
        raw in proptest::collection::vec(0u32..7_000, 5),
        cut in 1usize..5,
    ) {
        let rates = [20.0, 12.0, 8.0];
        let periods = 5;
        // DC 0 stays well provisioned; DC 1 wanders through arbitrary
        // degradation levels, including full outage at raw == 0.
        let schedule: Vec<Vec<f64>> = raw
            .iter()
            .map(|&n| vec![500.0 + f64::from(n) / 7.0, f64::from(n) / 7.0])
            .collect();
        let budget = BackpressureBudget::unlimited();
        let mut full = build_loop(&rates, periods, seed, 2, budget)
            .with_capacity_schedule(schedule.clone())
            .expect("valid schedule");
        full.run_to_end().expect("runs");

        let mut first = build_loop(&rates, periods, seed, 2, budget)
            .with_capacity_schedule(schedule.clone())
            .expect("valid schedule");
        while first.cursor() < cut {
            first.step().expect("steps");
        }
        let json = first.checkpoint().expect("checkpointable").to_json();
        let parsed = IngestCheckpoint::from_json(&json).expect("parses");
        let round = parsed.capacity_schedule.as_ref().expect("schedule present");
        prop_assert_eq!(round.len(), schedule.len());
        for (ra, rb) in schedule.iter().zip(round) {
            for (a, b) in ra.iter().zip(rb) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let mut resumed = build_loop(&rates, periods, seed, 2, budget)
            .with_capacity_schedule(schedule.clone())
            .expect("valid schedule");
        resumed.restore(&parsed).expect("restores");
        resumed.run_to_end().expect("runs");
        prop_assert_eq!(full.sealed(), resumed.sealed());
        prop_assert_eq!(full.sealed_matrix_csv(), resumed.sealed_matrix_csv());
        prop_assert_eq!(
            full.totals().step_cost.to_bits(),
            resumed.totals().step_cost.to_bits()
        );
    }

    /// For any DC-outage placement the masked republish keeps every
    /// event off the dead DC's arcs, the integer conservation identity
    /// `generated == admitted + dropped + backlog` survives the swap,
    /// and the sealed ledger stays independent of the shard layout.
    #[test]
    fn prop_outage_republish_conserves_demand(
        seed in 0u64..1_000_000,
        r0 in 5.0f64..40.0,
        r1 in 5.0f64..40.0,
        r2 in 5.0f64..40.0,
        dc in 0usize..2,
        start in 0usize..5,
        dur in 1usize..3,
    ) {
        let rates = [r0, r1, r2];
        let periods = 5;
        let dark = start..(start + dur).min(periods);
        let schedule: Vec<Vec<f64>> = (0..periods)
            .map(|k| {
                let mut row = vec![1_000.0, 1_000.0];
                if dark.contains(&k) {
                    row[dc] = 0.0;
                }
                row
            })
            .collect();
        let telemetry = dspp::telemetry::Recorder::enabled();
        let budget = BackpressureBudget::unlimited();
        let mut l = build_loop(&rates, periods, seed, 2, budget)
            .with_capacity_schedule(schedule.clone())
            .expect("valid schedule")
            .with_telemetry(telemetry.clone());
        let totals = l.run_to_end().expect("runs");

        let arcs = l.controller().problem().arcs().to_vec();
        let dead_events: u64 = l
            .sealed()
            .iter()
            .filter(|s| dark.contains(&s.period))
            .flat_map(|s| {
                s.arc_counts
                    .iter()
                    .enumerate()
                    .filter(|&(a, _)| arcs[a].0 == dc)
                    .map(|(_, &n)| n)
            })
            .sum();
        prop_assert_eq!(dead_events, 0);
        let backlog: u64 = l.carry_backlog().iter().sum();
        prop_assert_eq!(totals.generated, totals.admitted + totals.dropped + backlog);
        let republishes = telemetry
            .snapshot()
            .map_or(0, |s| s.counter("ingest.snapshot_republishes"));
        prop_assert!(republishes >= 1, "outage must force a masked republish");

        // Shard layout cannot leak through the republish path either.
        let mut wide = build_loop(&rates, periods, seed, 4, budget)
            .with_capacity_schedule(schedule)
            .expect("valid schedule");
        wide.run_to_end().expect("runs");
        prop_assert_eq!(l.sealed(), wide.sealed());
        prop_assert_eq!(l.sealed_matrix_csv(), wide.sealed_matrix_csv());
    }
}

//! Per-period demand buckets: shard-local tallies, the shared lock-free
//! bucket they fold into, and its sealed form.
//!
//! Each shard thread of one control period counts its requests into a
//! [`ShardTally`] of plain `u64`s — no shared-memory traffic per
//! request. A city's requests are counted, not recorded one by one: its
//! admitted and routed totals are added once per city, and payload bytes
//! are kept as a histogram of attribute words that is weighted into
//! per-class KiB only at the fold. At the period-close barrier the shard
//! folds its tally into the shared [`PeriodBucket`] with one relaxed
//! `fetch_add` per non-zero counter — no locks, no CAS loops. Every
//! counter is a sum of integer increments, and integer addition is
//! commutative and associative, so the sealed totals are exactly the
//! same whichever shard owns a city, however many shards there are, and
//! in whatever order the folds land; converting counts to rates happens
//! once, at seal time, with the identical floating-point expression on
//! every path. That is the whole determinism argument for the `--jobs 1`
//! vs `--jobs 4` byte-identical matrix requirement.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::RngCore;

use crate::event::{ATTRIBUTES, ATTRIBUTE_WORDS};
use crate::snapshot::CityTable;

/// The shared demand accumulator for one control period. Shards write it
/// only through [`ShardTally::fold_into`], once each per period.
#[derive(Debug)]
pub struct PeriodBucket {
    period: usize,
    /// Admitted requests per city (demand mass, routable or not).
    city_counts: Vec<AtomicU64>,
    /// Routed requests per problem arc.
    arc_counts: Vec<AtomicU64>,
    /// Payload KiB per request class.
    class_kib: [AtomicU64; 3],
    /// Admitted requests whose city had no routable weight.
    unroutable: AtomicU64,
    /// Carried-over requests admitted into this period.
    carried_in: AtomicU64,
    /// Requests pushed to the next period's carry at this period's close.
    deferred: AtomicU64,
    /// Requests dropped after the carry bound filled.
    dropped: AtomicU64,
}

impl PeriodBucket {
    /// An empty bucket for `period` over `cities` × `arcs`.
    pub fn new(period: usize, cities: usize, arcs: usize) -> Self {
        PeriodBucket {
            period,
            city_counts: (0..cities).map(|_| AtomicU64::new(0)).collect(),
            arc_counts: (0..arcs).map(|_| AtomicU64::new(0)).collect(),
            class_kib: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            unroutable: AtomicU64::new(0),
            carried_in: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Freezes the bucket into plain data. Callers must have joined all
    /// writer threads first (the period-close barrier).
    pub fn seal(&self) -> SealedPeriod {
        SealedPeriod {
            period: self.period,
            city_counts: self
                .city_counts
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect(),
            arc_counts: self
                .arc_counts
                .iter()
                .map(|c| c.load(Ordering::Acquire))
                .collect(),
            class_kib: [
                self.class_kib[0].load(Ordering::Acquire),
                self.class_kib[1].load(Ordering::Acquire),
                self.class_kib[2].load(Ordering::Acquire),
            ],
            unroutable: self.unroutable.load(Ordering::Acquire),
            carried_in: self.carried_in.load(Ordering::Acquire),
            deferred: self.deferred.load(Ordering::Acquire),
            dropped: self.dropped.load(Ordering::Acquire),
        }
    }

    /// Zeroes every counter and retargets the bucket at `period`, so
    /// steady-state loops (and benches) reuse the allocation.
    pub fn reset(&mut self, period: usize) {
        self.period = period;
        for c in &self.city_counts {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.arc_counts {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.class_kib {
            c.store(0, Ordering::Relaxed);
        }
        self.unroutable.store(0, Ordering::Relaxed);
        self.carried_in.store(0, Ordering::Relaxed);
        self.deferred.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// The period this bucket accumulates.
    pub fn period(&self) -> usize {
        self.period
    }
}

/// One shard's counts for one period, in plain integers: the per-shard
/// half of a [`PeriodBucket`]. A shard owns the contiguous city range
/// `city_start..city_start + cities`, counts its admitted requests here,
/// and folds the whole tally into the shared bucket once, at the
/// period-close barrier ([`ShardTally::fold_into`]). The fold zeroes the
/// tally, so one tally serves every period without reallocating.
#[derive(Debug, Clone)]
pub struct ShardTally {
    city_start: usize,
    /// Admitted requests per owned city (index `city - city_start`).
    city_counts: Vec<u64>,
    /// Routed requests per problem arc.
    arc_counts: Vec<u64>,
    /// Admitted requests per attribute word (its low 10 bits); the fold
    /// weights them into payload KiB per class.
    attributes: Box<[u64; ATTRIBUTE_WORDS]>,
    unroutable: u64,
    carried_in: u64,
    deferred: u64,
    dropped: u64,
}

impl ShardTally {
    /// An empty tally for the cities `city_start..city_start + cities`
    /// over `arcs` problem arcs.
    pub fn new(city_start: usize, cities: usize, arcs: usize) -> Self {
        ShardTally {
            city_start,
            city_counts: vec![0; cities],
            arc_counts: vec![0; arcs],
            attributes: Box::new([0; ATTRIBUTE_WORDS]),
            unroutable: 0,
            carried_in: 0,
            deferred: 0,
            dropped: 0,
        }
    }

    /// The cities this tally owns.
    pub fn cities(&self) -> std::ops::Range<usize> {
        self.city_start..self.city_start + self.city_counts.len()
    }

    /// Counts one admitted request's attribute word toward its class's
    /// payload bytes.
    #[inline]
    pub(crate) fn record_attribute(&mut self, word: u64) {
        self.attributes[word as usize % ATTRIBUTE_WORDS] += 1;
    }

    /// Routes the admitted requests of `city` (an owned city) off its
    /// `table` with the city's routing stream `rng`: `carried` requests
    /// carried over from earlier periods, then `fresh` new arrivals. A
    /// carried request draws its attribute word and then its routing
    /// word (its envelope was folded to a count when it was deferred);
    /// a fresh request draws one routing word. Each routing word picks
    /// its arc without branching. A table with one arc takes the whole
    /// count, and an empty one counts it as unroutable; neither draws
    /// routing words past the last carried request's, because nothing
    /// reads the stream once the city is done.
    ///
    /// # Panics
    ///
    /// Panics when `city` is outside the tally's range or the table
    /// names an arc outside the problem's arcs.
    pub(crate) fn route(
        &mut self,
        city: usize,
        table: CityTable<'_>,
        carried: u64,
        fresh: u64,
        rng: &mut impl RngCore,
    ) {
        self.city_counts[city - self.city_start] += carried + fresh;
        let arcs = table.arcs();
        if let [_, _, ..] = arcs {
            for _ in 0..carried {
                self.record_attribute(rng.next_u64());
                self.arc_counts[arcs[table.pick(rng.next_u64())] as usize] += 1;
            }
            for _ in 0..fresh {
                self.arc_counts[arcs[table.pick(rng.next_u64())] as usize] += 1;
            }
            return;
        }
        for _ in 0..carried {
            self.record_attribute(rng.next_u64());
            rng.next_u64();
        }
        match arcs.first() {
            Some(&arc) => self.arc_counts[arc as usize] += carried + fresh,
            None => self.unroutable += carried + fresh,
        }
    }

    /// Adds one city's backpressure accounting for the period (called
    /// once per city, not per request).
    pub fn record_backpressure(&mut self, carried_in: u64, deferred: u64, dropped: u64) {
        self.carried_in += carried_in;
        self.deferred += deferred;
        self.dropped += dropped;
    }

    /// Adds every non-zero counter to `bucket` — one relaxed `fetch_add`
    /// each — and zeroes the tally for the next period. The attribute
    /// histogram goes in as payload KiB per class: each word's count
    /// times its payload size, summed exactly in integers.
    ///
    /// # Panics
    ///
    /// Panics when the tally's cities or arcs do not fit the bucket.
    pub fn fold_into(&mut self, bucket: &PeriodBucket) {
        let cities = &bucket.city_counts[self.cities()];
        for (shared, own) in cities.iter().zip(&mut self.city_counts) {
            fold_add(shared, std::mem::take(own));
        }
        assert_eq!(
            self.arc_counts.len(),
            bucket.arc_counts.len(),
            "shard tally and bucket disagree on the arc count"
        );
        for (shared, own) in bucket.arc_counts.iter().zip(&mut self.arc_counts) {
            fold_add(shared, std::mem::take(own));
        }
        let mut class_kib = [0u64; 3];
        for (count, &(class, kib)) in self.attributes.iter_mut().zip(&ATTRIBUTES) {
            class_kib[usize::from(class)] += std::mem::take(count) * u64::from(kib);
        }
        for (shared, own) in bucket.class_kib.iter().zip(class_kib) {
            fold_add(shared, own);
        }
        fold_add(&bucket.unroutable, std::mem::take(&mut self.unroutable));
        fold_add(&bucket.carried_in, std::mem::take(&mut self.carried_in));
        fold_add(&bucket.deferred, std::mem::take(&mut self.deferred));
        fold_add(&bucket.dropped, std::mem::take(&mut self.dropped));
    }
}

/// Adds `by` to `counter` unless it is zero: the fold's only
/// shared-memory write.
fn fold_add(counter: &AtomicU64, by: u64) {
    if by != 0 {
        counter.fetch_add(by, Ordering::Relaxed);
    }
}

/// One period's demand, frozen at the period-close barrier. This is the
/// event-stream analogue of one column of the demand matrix the MPC
/// consumes; [`SealedPeriod::rates`] converts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedPeriod {
    /// Period index.
    pub period: usize,
    /// Admitted requests per city.
    pub city_counts: Vec<u64>,
    /// Routed requests per arc.
    pub arc_counts: Vec<u64>,
    /// Payload KiB per request class (interactive/standard/batch).
    pub class_kib: [u64; 3],
    /// Admitted requests with no routable arc.
    pub unroutable: u64,
    /// Requests carried in from the previous period's deferral.
    pub carried_in: u64,
    /// Requests deferred into the next period at close.
    pub deferred: u64,
    /// Requests dropped at close (carry bound exceeded).
    pub dropped: u64,
}

impl SealedPeriod {
    /// Total admitted requests this period.
    pub fn total_events(&self) -> u64 {
        self.city_counts.iter().sum()
    }

    /// The per-city demand vector in requests/second — exactly the shape
    /// [`dspp_core::MpcController`] observes for one period.
    pub fn rates(&self, period_seconds: f64) -> Vec<f64> {
        self.city_counts
            .iter()
            .map(|&c| c as f64 / period_seconds)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::RequestClass;
    use crate::snapshot::RouterSnapshot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Payload KiB per class of requests with the given attribute words.
    fn class_kib_of(words: impl IntoIterator<Item = u64>) -> [u64; 3] {
        let mut kib = [0; 3];
        for word in words {
            let class = RequestClass::from_draw(word);
            kib[class.index()] += u64::from(class.size_kib(word >> 2));
        }
        kib
    }

    #[test]
    fn concurrent_folds_lose_nothing() {
        let bucket = PeriodBucket::new(3, 4, 8);
        // City t splits over arcs 2t and 2t + 1.
        let tables: Vec<Vec<(f64, usize)>> = (0..4)
            .map(|t| vec![(0.5, 2 * t), (1.0, 2 * t + 1)])
            .collect();
        let snapshot = RouterSnapshot::from_tables(&tables);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (bucket, snapshot) = (&bucket, &snapshot);
                s.spawn(move || {
                    let mut tally = ShardTally::new(t, 1, 8);
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    tally.route(t, snapshot.table(t), 0, 10_000, &mut rng);
                    for word in 0..10_000u64 {
                        tally.record_attribute(word);
                    }
                    tally.record_backpressure(5, 7, 1);
                    tally.fold_into(bucket);
                });
            }
        });
        let sealed = bucket.seal();
        assert_eq!(sealed.period, 3);
        assert_eq!(sealed.total_events(), 40_000);
        assert_eq!(sealed.city_counts, vec![10_000; 4]);
        for t in 0..4 {
            let pair = &sealed.arc_counts[2 * t..2 * t + 2];
            assert_eq!(pair[0] + pair[1], 10_000);
            assert!(pair[0] > 4_500 && pair[1] > 4_500, "{pair:?}");
        }
        let per_shard = class_kib_of(0..10_000);
        assert_eq!(sealed.class_kib, per_shard.map(|kib| 4 * kib));
        assert_eq!(sealed.carried_in, 20);
        assert_eq!(sealed.deferred, 28);
        assert_eq!(sealed.dropped, 4);
    }

    #[test]
    fn rates_divide_by_period_length_and_reset_clears() {
        let mut bucket = PeriodBucket::new(0, 2, 2);
        let mut tally = ShardTally::new(0, 2, 2);
        let snapshot = RouterSnapshot::from_tables(&[vec![(1.0, 0)], vec![]]);
        let mut rng = StdRng::seed_from_u64(0);
        tally.route(0, snapshot.table(0), 0, 7200, &mut rng);
        tally.route(1, snapshot.table(1), 0, 1, &mut rng);
        tally.fold_into(&bucket);
        let sealed = bucket.seal();
        assert_eq!(sealed.rates(3600.0), vec![2.0, 1.0 / 3600.0]);
        assert_eq!(sealed.arc_counts, vec![7200, 0]);
        assert_eq!(sealed.unroutable, 1);
        bucket.reset(9);
        let empty = bucket.seal();
        assert_eq!(empty.period, 9);
        assert_eq!(empty.total_events(), 0);
        assert_eq!(empty.unroutable, 0);
    }

    #[test]
    fn fold_zeroes_the_tally_for_reuse() {
        let bucket = PeriodBucket::new(0, 3, 2);
        let mut tally = ShardTally::new(1, 2, 2);
        // Word 3 is a batch request of 64 KiB.
        tally.record_attribute(3);
        let snapshot = RouterSnapshot::from_tables(&[vec![], vec![], vec![(1.0, 1)]]);
        tally.route(2, snapshot.table(2), 0, 1, &mut StdRng::seed_from_u64(0));
        tally.record_backpressure(1, 2, 3);
        tally.fold_into(&bucket);
        // A second fold of the emptied tally adds nothing.
        tally.fold_into(&bucket);
        let sealed = bucket.seal();
        assert_eq!(sealed.city_counts, vec![0, 0, 1]);
        assert_eq!(sealed.arc_counts, vec![0, 1]);
        assert_eq!(sealed.class_kib, [0, 0, 64]);
        assert_eq!(
            (sealed.carried_in, sealed.deferred, sealed.dropped),
            (1, 2, 3)
        );
    }

    #[test]
    fn routing_draws_follow_the_stream_order() {
        use rand::RngCore;
        let snapshot = RouterSnapshot::from_tables(&[
            vec![(0.2, 0), (0.5, 1), (1.0, 2)],
            vec![(1.0, 1)],
            vec![],
        ]);
        let (carried, fresh) = (40u64, 60u64);
        for city in 0..3 {
            let mut tally = ShardTally::new(0, 3, 3);
            let mut rng = StdRng::seed_from_u64(99);
            tally.route(city, snapshot.table(city), carried, fresh, &mut rng);
            let bucket = PeriodBucket::new(0, 3, 3);
            tally.fold_into(&bucket);
            let sealed = bucket.seal();

            // Carried requests draw (attribute, route) pairs, then each
            // fresh request one routing word.
            let mut want = StdRng::seed_from_u64(99);
            let mut words = Vec::new();
            let mut arcs = [0u64; 3];
            let mut unroutable = 0;
            for i in 0..carried + fresh {
                if i < carried {
                    words.push(want.next_u64());
                }
                match snapshot.route(city, want.next_u64()) {
                    Some(arc) => arcs[arc] += 1,
                    None => unroutable += 1,
                }
            }
            assert_eq!(sealed.class_kib, class_kib_of(words), "city {city}");
            assert_eq!(sealed.arc_counts, arcs, "city {city}");
            assert_eq!(sealed.unroutable, unroutable, "city {city}");
            assert_eq!(sealed.city_counts[city], carried + fresh);
            if city == 0 {
                assert!(arcs.iter().all(|&n| n > 0), "{arcs:?}");
            } else {
                // One arc or none: the fresh routing words stay undrawn.
                let mut skipped = StdRng::seed_from_u64(99);
                for _ in 0..2 * carried {
                    skipped.next_u64();
                }
                assert_eq!(rng.next_u64(), skipped.next_u64(), "city {city}");
            }
        }
    }
}

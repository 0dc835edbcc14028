//! Compiled placement snapshots.
//!
//! The controller publishes each new placement as an immutable
//! [`RouterSnapshot`] (the eq. 13 split of [`dspp_core::RoutingPolicy`]
//! compiled into flat cumulative sampling tables). The ingest loop owns
//! the published snapshot and replaces it only between control periods,
//! so every shard of a period borrows the same snapshot and routing a
//! request touches no atomic and no lock.

use dspp_core::{Dspp, RoutingPolicy};

/// Pick thresholds are compared in groups of this many, so the compare of
/// a table with up to `LANES + 1` arcs is one fixed-width step.
const LANES: usize = 4;

/// `2^-64`: maps a 64-bit draw onto `[0, 1]`.
const DRAW_SCALE: f64 = 5.421_010_862_427_522e-20;

/// An immutable, shareable compilation of one routing policy: per city, a
/// cumulative-fraction table over its arcs, flattened for cache-dense,
/// branch-free picks (cities have at most `num_dcs` arcs).
#[derive(Debug)]
pub struct RouterSnapshot {
    version: u64,
    /// `offsets[v]..offsets[v + 1]` indexes this city's entries in `arcs`.
    offsets: Vec<u32>,
    /// The arc index of every table entry.
    arcs: Vec<u32>,
    /// `groups[v]..groups[v + 1]` indexes this city's threshold groups in
    /// `cuts`.
    groups: Vec<u32>,
    /// The pick threshold of every entry but each city's last, `LANES`
    /// to a group and padded with `u64::MAX`: the least draw that passes
    /// the entry (see [`CityTable::pick`]).
    cuts: Vec<[u64; LANES]>,
}

/// One city's compiled routing table, borrowed from a [`RouterSnapshot`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CityTable<'a> {
    arcs: &'a [u32],
    cuts: &'a [[u64; LANES]],
}

impl CityTable<'_> {
    /// The arcs of the table, in entry order (empty when the city has no
    /// routable weight).
    #[inline]
    pub(crate) fn arcs(&self) -> &[u32] {
        self.arcs
    }

    /// The entry a uniform 64-bit draw picks, without branching on the
    /// draw: the number of pick thresholds the draw reaches, at most the
    /// last entry.
    ///
    /// This equals the linear scan over the cumulative fractions `t` with
    /// `u = draw · 2^-64` — the first entry with `u < t`, or else the last
    /// — for every draw, however the fractions rounded. Up to the first
    /// entry with `u < t` every fraction is `≤ u`, and so is their running
    /// maximum `m`; from that entry on, `m > u`. Comparing against `m`
    /// instead of `t` keeps that true when a fraction rounded above a
    /// later one, such as a forced final 1.0 below a sum that rounded to
    /// 1.0000000000000002. Because `draw · 2^-64` never decreases as the
    /// draw grows, `m ≤ u` exactly when the draw reaches the least draw
    /// with that property, so the compare is on integers. No draw reaches
    /// an `m` above 1, and compiling ends each table at the first such
    /// entry; the cap keeps the `u64::MAX` padding from counting at the
    /// top draw.
    #[inline]
    pub(crate) fn pick(&self, draw: u64) -> usize {
        let passed: usize = self
            .cuts
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|&cut| usize::from(cut <= draw))
                    .sum::<usize>()
            })
            .sum();
        passed.min(self.arcs.len().saturating_sub(1))
    }
}

/// The least draw `d` with `d · 2^-64 ≥ m`, for `m ≤ 1`: found by bisection
/// on exactly that expression, which never decreases in `d`. Converting a
/// draw to `f64` moves it by at most 2^10, so the answer lies within 2^11
/// below `m · 2^64` (exact: a power-of-two scaling) and at most one above.
fn least_draw_reaching(m: f64) -> u64 {
    let guess = (m * 18_446_744_073_709_551_616.0) as u64;
    let (mut lo, mut hi) = (guess.saturating_sub(1 << 11), guess.saturating_add(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid as f64 * DRAW_SCALE >= m {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl RouterSnapshot {
    /// An empty snapshot at `version`, ready for `cities` calls of
    /// [`RouterSnapshot::push_city`] with at most `entries` entries in
    /// all.
    fn with_capacity(version: u64, cities: usize, entries: usize) -> Self {
        let starts = || {
            let mut starts = Vec::with_capacity(cities + 1);
            starts.push(0);
            starts
        };
        RouterSnapshot {
            version,
            offsets: starts(),
            groups: starts(),
            arcs: Vec::with_capacity(entries),
            cuts: Vec::with_capacity(entries / LANES + cities),
        }
    }

    /// A snapshot sized for `policy`'s tables over `cities` cities.
    fn for_policy(version: u64, cities: usize, policy: &RoutingPolicy) -> Self {
        let entries = (0..cities).map(|v| policy.location_weights(v).len()).sum();
        RouterSnapshot::with_capacity(version, cities, entries)
    }

    /// Appends the next city's table, given as `(cumulative fraction,
    /// arc)` entries in order. The last entry gets no threshold: a draw
    /// that passes every earlier entry picks it. An entry whose running
    /// maximum exceeds 1 ends the table, since no draw passes it.
    fn push_city(&mut self, table: impl IntoIterator<Item = (f64, usize)>) {
        let mut table = table.into_iter().peekable();
        let mut m = f64::NEG_INFINITY;
        let mut thresholds = 0;
        while let Some((fraction, arc)) = table.next() {
            self.arcs.push(arc as u32);
            m = m.max(fraction);
            if table.peek().is_none() || m > 1.0 {
                break;
            }
            if thresholds % LANES == 0 {
                self.cuts.push([u64::MAX; LANES]);
            }
            if let Some(group) = self.cuts.last_mut() {
                group[thresholds % LANES] = least_draw_reaching(m);
            }
            thresholds += 1;
        }
        self.offsets.push(self.arcs.len() as u32);
        self.groups.push(self.cuts.len() as u32);
    }

    /// Compiles `policy` (over `problem`) into snapshot `version`,
    /// restricted to the arcs whose data center is marked `alive` and
    /// renormalizing each city's split over its surviving arcs (the
    /// eq. 13 fractions conditioned on the live set; with every DC alive,
    /// each weight over the city's weight total). A city whose entire
    /// routable weight sat on dead DCs compiles to an empty table, so
    /// [`RouterSnapshot::route`] returns `None` and the caller can defer
    /// the request instead of sending it to a DC with zero capacity.
    ///
    /// # Panics
    ///
    /// Panics when `alive` does not cover every data center.
    pub fn compile_masked(
        problem: &Dspp,
        policy: &RoutingPolicy,
        alive: &[bool],
        version: u64,
    ) -> Self {
        assert_eq!(
            alive.len(),
            problem.num_dcs(),
            "alive mask must cover every data center"
        );
        let arcs = problem.arcs();
        let cities = problem.num_locations();
        let mut snapshot = RouterSnapshot::for_policy(version, cities, policy);
        for v in 0..cities {
            let live = || {
                policy
                    .location_weights(v)
                    .iter()
                    .filter(|&&(arc, _)| alive[arcs[arc].0])
            };
            let total: f64 = live().map(|&(_, w)| w).sum();
            let mut cum = 0.0f64;
            let table = live().map(|&(arc, w)| {
                cum += w / total;
                (cum, arc)
            });
            if total > 0.0 {
                snapshot.push_city(table);
            } else {
                snapshot.push_city([]);
            }
        }
        snapshot
    }

    /// An empty snapshot covering `cities` locations with no arcs
    /// (version 0) — the state before the first placement is published.
    pub fn uncovered(cities: usize) -> Self {
        RouterSnapshot {
            version: 0,
            offsets: vec![0; cities + 1],
            arcs: Vec::new(),
            groups: vec![0; cities + 1],
            cuts: Vec::new(),
        }
    }

    /// The compiled table of `city`.
    #[inline]
    pub(crate) fn table(&self, city: usize) -> CityTable<'_> {
        let entries = self.offsets[city] as usize..self.offsets[city + 1] as usize;
        let groups = self.groups[city] as usize..self.groups[city + 1] as usize;
        CityTable {
            arcs: &self.arcs[entries],
            cuts: &self.cuts[groups],
        }
    }

    /// Routes one request from `city` given a uniform 64-bit draw.
    /// Returns the chosen arc index, or `None` when the city has no
    /// routable weight under this placement.
    #[inline]
    pub fn route(&self, city: usize, draw: u64) -> Option<usize> {
        let table = self.table(city);
        let arc = *table.arcs().get(table.pick(draw))?;
        Some(arc as usize)
    }

    /// The publication version (0 for [`RouterSnapshot::uncovered`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of cities the snapshot covers.
    pub fn num_cities(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
impl RouterSnapshot {
    /// A snapshot (version 1) over hand-written tables: `tables[v]` lists
    /// city `v`'s `(cumulative fraction, arc)` entries in order.
    pub(crate) fn from_tables(tables: &[Vec<(f64, usize)>]) -> Self {
        let entries = tables.iter().map(Vec::len).sum();
        let mut snapshot = RouterSnapshot::with_capacity(1, tables.len(), entries);
        for table in tables {
            snapshot.push_city(table.iter().copied());
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::{Allocation, DsppBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Compiles `policy` with every data center alive.
    fn compile(p: &Dspp, policy: &RoutingPolicy, version: u64) -> RouterSnapshot {
        RouterSnapshot::compile_masked(p, policy, &vec![true; p.num_dcs()], version)
    }

    fn snapshot_3to1() -> (Dspp, RouterSnapshot) {
        let p = DsppBuilder::new(2, 1)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap();
        let mut x = Allocation::zeros(&p);
        x.set(&p, 0, 0, 3.0);
        x.set(&p, 1, 0, 1.0);
        let policy = RoutingPolicy::from_allocation(&p, &x);
        let snap = compile(&p, &policy, 1);
        (p, snap)
    }

    #[test]
    fn compiled_split_matches_eq13_fractions() {
        let (p, snap) = snapshot_3to1();
        let mut hits = [0u64; 2];
        let n = 100_000u64;
        // A coarse uniform sweep of the draw space (not an RNG, so the
        // empirical split is exact up to grid resolution).
        for i in 0..n {
            let draw = i.wrapping_mul(u64::MAX / n);
            let arc = snap.route(0, draw).unwrap();
            hits[p.arcs()[arc].0] += 1;
        }
        let f0 = hits[0] as f64 / n as f64;
        assert!((f0 - 0.75).abs() < 0.01, "dc0 fraction {f0}");
    }

    #[test]
    fn masked_compile_renormalizes_over_surviving_dcs() {
        let p = DsppBuilder::new(2, 1)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .build()
            .unwrap();
        let mut x = Allocation::zeros(&p);
        x.set(&p, 0, 0, 3.0);
        x.set(&p, 1, 0, 1.0);
        let policy = RoutingPolicy::from_allocation(&p, &x);
        // DC 0 dead: the 3:1 split collapses entirely onto DC 1.
        let snap = RouterSnapshot::compile_masked(&p, &policy, &[false, true], 2);
        let n = 10_000u64;
        for i in 0..n {
            let draw = i.wrapping_mul(u64::MAX / n);
            let arc = snap.route(0, draw).unwrap();
            assert_eq!(p.arcs()[arc].0, 1, "request routed to a dead DC");
        }
        // Both DCs dead: the city has no live weight and defers.
        let dark = RouterSnapshot::compile_masked(&p, &policy, &[false, false], 3);
        assert!(dark.route(0, 42).is_none());
    }

    #[test]
    fn uncovered_city_routes_nowhere_and_extreme_draws_stay_in_table() {
        let (_, snap) = snapshot_3to1();
        assert!(RouterSnapshot::uncovered(3).route(2, 42).is_none());
        assert!(snap.route(0, 0).is_some());
        assert!(snap.route(0, u64::MAX).is_some());
    }

    /// The linear scan `route` used before the branch-free pick, over a
    /// table of cumulative fractions with the last one forced to 1.0: the
    /// first entry whose fraction exceeds `u`, or else the last entry.
    fn scan(table: &[(f64, usize)], draw: u64) -> Option<usize> {
        let &(_, last) = table.last()?;
        let u = draw as f64 * DRAW_SCALE;
        Some(
            table
                .iter()
                .find(|&&(t, _)| u < t)
                .map_or(last, |&(_, arc)| arc),
        )
    }

    #[test]
    fn pick_matches_the_linear_scan_on_edge_draws_and_tables() {
        let tables: Vec<Vec<(f64, usize)>> = vec![
            vec![],
            vec![(1.0, 7)],
            vec![(0.25, 0), (0.75, 1), (1.0, 2)],
            // Zero-width entries: duplicated fractions, and a first entry
            // that no draw can pick.
            vec![(0.3, 0), (0.3, 1), (0.6, 2), (0.6, 3), (1.0, 4)],
            vec![(0.0, 0), (0.5, 1), (1.0, 2)],
            // Tiny entries, as real snapshots hold.
            vec![(1e-9, 0), (2e-9, 1), (1.0 - 1e-9, 2), (1.0, 3)],
            // A forced final 1.0 below a sum that rounded above 1.
            vec![(0.5, 0), (1.000_000_000_000_000_2, 1), (1.0, 2)],
            vec![(1.000_000_000_000_000_2, 0), (1.0, 1)],
            // Fractions out of order, whatever produced them.
            vec![(0.7, 0), (0.6, 1), (0.9, 2), (1.0, 3)],
            // More thresholds than one compare group holds.
            vec![
                (0.1, 0),
                (0.2, 1),
                (0.2, 2),
                (0.45, 3),
                (0.5, 4),
                (0.7, 5),
                (0.65, 6),
                (0.9, 7),
                (1.0, 8),
            ],
        ];
        let snapshot = RouterSnapshot::from_tables(&tables);
        // Draws at and next to every fraction: `t · 2^64` is the draw
        // whose `u` equals `t` whenever that product is an integer.
        let mut draws = vec![
            0,
            1,
            u64::MAX,
            u64::MAX - (1 << 10) + 1,
            u64::MAX - (1 << 10),
        ];
        for &(t, _) in tables.iter().flatten() {
            let at = (t * 18_446_744_073_709_551_616.0) as u64;
            for delta in [0, 1, 2, 1 << 11, 1 << 12] {
                draws.extend([at.wrapping_sub(delta), at.wrapping_add(delta)]);
            }
        }
        // And at and next to every compiled threshold.
        for table in &tables {
            let mut m = f64::NEG_INFINITY;
            for &(t, _) in table {
                m = m.max(t);
                if m <= 1.0 {
                    let cut = least_draw_reaching(m);
                    draws.extend([cut.wrapping_sub(1), cut, cut.wrapping_add(1)]);
                }
            }
        }
        assert!(
            draws.iter().any(|&d| d as f64 * DRAW_SCALE == 0.25),
            "some draw must land exactly on a fraction"
        );
        assert_eq!(
            (u64::MAX - (1 << 10) + 1) as f64 * DRAW_SCALE,
            1.0,
            "the top draws must round to exactly 1.0"
        );
        let mut rng = StdRng::seed_from_u64(3);
        draws.extend((0..10_000).map(|_| rng.next_u64()));
        for (city, table) in tables.iter().enumerate() {
            for &draw in &draws {
                assert_eq!(
                    snapshot.route(city, draw),
                    scan(table, draw),
                    "city {city}, draw {draw:#x}"
                );
            }
        }
        // The cases that separate the pick from a plain count: at u = 1.0
        // the scan stops at the entry above 1, not at the final 1.0.
        assert_eq!(snapshot.route(6, u64::MAX), Some(1));
        assert_eq!(snapshot.route(7, u64::MAX), Some(0));
        assert_eq!(snapshot.route(8, (0.65 * 1.8e19) as u64), Some(0));
        assert_eq!(
            snapshot.route(9, (0.68 * 1.8446744073709552e19) as u64),
            Some(5)
        );
    }

    #[test]
    fn thresholds_are_the_least_draws_that_reach_them() {
        let mut rng = StdRng::seed_from_u64(5);
        // Powers of two and their neighbours, where the spacing of the
        // draws' f64 values changes.
        let mut fractions = vec![0.0, 1e-300, 1e-9, 0.3, 1.0 - 1e-16, 1.0];
        for shift in 1..64 {
            let power = (-f64::from(shift)).exp2();
            fractions.extend([power, power.next_down(), power.next_up()]);
        }
        for _ in 0..1000 {
            fractions.extend([rng.next_u64() as f64 * DRAW_SCALE, rng.gen::<f64>()]);
        }
        for m in fractions.into_iter().filter(|&m| m <= 1.0) {
            let cut = least_draw_reaching(m);
            assert!(cut as f64 * DRAW_SCALE >= m, "{m}: {cut} falls short");
            assert!(
                cut == 0 || ((cut - 1) as f64 * DRAW_SCALE) < m,
                "{m}: {cut} is not the least"
            );
        }
        assert_eq!(least_draw_reaching(0.0), 0);
        assert_eq!(least_draw_reaching(1.0), u64::MAX - (1 << 10) + 1);
    }

    #[test]
    fn compiled_tables_route_like_the_scan_over_their_fractions() {
        // Three-way split with fractions that do not sum to exactly 1 in
        // floating point.
        let p = DsppBuilder::new(3, 1)
            .price_trace(0, vec![1.0])
            .price_trace(1, vec![1.0])
            .price_trace(2, vec![1.0])
            .build()
            .unwrap();
        let mut x = Allocation::zeros(&p);
        for (dc, n) in [(0, 0.1), (1, 0.2), (2, 0.7)] {
            x.set(&p, dc, 0, n);
        }
        let policy = RoutingPolicy::from_allocation(&p, &x);
        let snap = compile(&p, &policy, 1);
        // The fractions the compile uses: each weight over the city's
        // weight total.
        let weights = policy.location_weights(0);
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut cum = 0.0;
        let table: Vec<(f64, usize)> = weights
            .iter()
            .enumerate()
            .map(|(i, &(arc, w))| {
                cum += w / total;
                (if i + 1 == weights.len() { 1.0 } else { cum }, arc)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(11);
        for draw in (0..20_000).map(|_| rng.next_u64()).chain([0, u64::MAX]) {
            assert_eq!(snap.route(0, draw), scan(&table, draw));
        }
    }

    #[test]
    fn snapshots_carry_their_publication_version() {
        let (p, snap) = snapshot_3to1();
        let uncovered = RouterSnapshot::uncovered(1);
        assert_eq!(uncovered.version(), 0);
        assert!(uncovered.route(0, 7).is_none());
        assert_eq!(snap.version(), 1);
        assert!(snap.route(0, 7).is_some());
        let p2 = RoutingPolicy::from_allocation(&p, &{
            let mut x = Allocation::zeros(&p);
            x.set(&p, 0, 0, 1.0);
            x
        });
        assert_eq!(compile(&p, &p2, 2).version(), 2);
    }
}

//! Read-mostly placement snapshots.
//!
//! The controller publishes each new placement as an immutable
//! [`RouterSnapshot`] (the eq. 13 split of [`dspp_core::RoutingPolicy`]
//! compiled into flat cumulative sampling tables). Publication happens
//! between control periods through [`SnapshotSwap::publish`]. The ingest
//! loop takes one [`SnapshotSwap::load`] per period and every shard
//! routes that period's requests off the shared `Arc`, so routing a
//! request touches no atomic and no lock.

use std::sync::{Arc, Mutex};

use dspp_core::{Dspp, RoutingPolicy};

/// An immutable, shareable compilation of one routing policy: per city, a
/// cumulative-fraction table over its arcs, flattened into two arrays for
/// cache-dense linear scans (cities have at most `num_dcs` arcs).
#[derive(Debug)]
pub struct RouterSnapshot {
    version: u64,
    /// `offsets[v]..offsets[v + 1]` indexes this city's entries.
    offsets: Vec<u32>,
    /// `(cumulative fraction, arc index)`; the last entry of every
    /// covered city is forced to 1.0 so a draw can never fall off the end.
    entries: Vec<(f64, u32)>,
}

impl RouterSnapshot {
    /// Compiles `policy` (over `problem`) into snapshot `version`.
    pub fn compile(problem: &Dspp, policy: &RoutingPolicy, version: u64) -> Self {
        let cities = problem.num_locations();
        let mut offsets = Vec::with_capacity(cities + 1);
        let mut entries = Vec::new();
        offsets.push(0u32);
        for v in 0..cities {
            let weights = policy.location_weights(v);
            let mut cum = 0.0f64;
            for (i, &(arc, w)) in weights.iter().enumerate() {
                cum += w;
                let threshold = if i + 1 == weights.len() { 1.0 } else { cum };
                entries.push((threshold, arc as u32));
            }
            offsets.push(entries.len() as u32);
        }
        RouterSnapshot {
            version,
            offsets,
            entries,
        }
    }

    /// Compiles `policy` restricted to the arcs whose data center is
    /// marked `alive`, renormalizing each city's split over its
    /// surviving arcs (the eq. 13 fractions conditioned on the live
    /// set). A city whose entire routable weight sat on dead DCs
    /// compiles to an empty table, so [`RouterSnapshot::route`] returns
    /// `None` and the caller can defer the request instead of sending
    /// it to a DC with zero capacity.
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
        let mut offsets = Vec::with_capacity(cities + 1);
        let mut entries = Vec::new();
        offsets.push(0u32);
        for v in 0..cities {
            let live: Vec<(usize, f64)> = policy
                .location_weights(v)
                .iter()
                .filter(|&&(arc, _)| alive[arcs[arc].0])
                .copied()
                .collect();
            let total: f64 = live.iter().map(|&(_, w)| w).sum();
            if total > 0.0 {
                let mut cum = 0.0f64;
                for (i, &(arc, w)) in live.iter().enumerate() {
                    cum += w / total;
                    let threshold = if i + 1 == live.len() { 1.0 } else { cum };
                    entries.push((threshold, arc as u32));
                }
            }
            offsets.push(entries.len() as u32);
        }
        RouterSnapshot {
            version,
            offsets,
            entries,
        }
    }

    /// An empty snapshot covering `cities` locations with no arcs
    /// (version 0) — the state before the first placement is published.
    pub fn uncovered(cities: usize) -> Self {
        RouterSnapshot {
            version: 0,
            offsets: vec![0; cities + 1],
            entries: Vec::new(),
        }
    }

    /// Routes one request from `city` given a uniform 64-bit draw.
    /// Returns the chosen arc index, or `None` when the city has no
    /// routable weight under this placement.
    #[inline]
    pub fn route(&self, city: usize, draw: u64) -> Option<usize> {
        let lo = self.offsets[city] as usize;
        let hi = self.offsets[city + 1] as usize;
        if lo == hi {
            return None;
        }
        // 2^-64 · draw ∈ [0, 1).
        let u = draw as f64 * 5.421_010_862_427_522e-20;
        for &(threshold, arc) in &self.entries[lo..hi] {
            if u < threshold {
                return Some(arc as usize);
            }
        }
        Some(self.entries[hi - 1].1 as usize)
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

/// The single-writer / many-reader swap cell. The writer (the control
/// loop) publishes a fresh `Arc<RouterSnapshot>` between periods; a
/// reader clones the current `Arc` once and routes off it.
#[derive(Debug)]
pub struct SnapshotSwap {
    slot: Mutex<Arc<RouterSnapshot>>,
}

impl SnapshotSwap {
    /// A swap cell holding `initial`.
    pub fn new(initial: RouterSnapshot) -> Self {
        SnapshotSwap {
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// Publishes a new snapshot. Its version must be strictly newer than
    /// the current one, so versions identify publications.
    ///
    /// # Panics
    ///
    /// Panics when the version does not advance.
    pub fn publish(&self, snapshot: RouterSnapshot) {
        let mut slot = self.slot.lock().expect("snapshot slot poisoned");
        assert!(
            snapshot.version > slot.version,
            "snapshot version must advance ({} -> {})",
            slot.version,
            snapshot.version
        );
        *slot = Arc::new(snapshot);
    }

    /// The currently published snapshot.
    pub fn load(&self) -> Arc<RouterSnapshot> {
        self.slot.lock().expect("snapshot slot poisoned").clone()
    }

    /// The currently published version.
    pub fn version(&self) -> u64 {
        self.slot.lock().expect("snapshot slot poisoned").version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspp_core::{Allocation, DsppBuilder};

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
        let snap = RouterSnapshot::compile(&p, &policy, 1);
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
        // All alive: masked compile equals the plain compile split.
        let full = RouterSnapshot::compile_masked(&p, &policy, &[true, true], 4);
        let plain = RouterSnapshot::compile(&p, &policy, 4);
        for i in 0..n {
            let draw = i.wrapping_mul(u64::MAX / n);
            assert_eq!(full.route(0, draw), plain.route(0, draw));
        }
    }

    #[test]
    fn uncovered_city_routes_nowhere_and_extreme_draws_stay_in_table() {
        let (_, snap) = snapshot_3to1();
        assert!(RouterSnapshot::uncovered(3).route(2, 42).is_none());
        assert!(snap.route(0, 0).is_some());
        assert!(snap.route(0, u64::MAX).is_some());
    }

    #[test]
    fn loads_see_each_publication() {
        let (p, snap) = snapshot_3to1();
        let swap = SnapshotSwap::new(RouterSnapshot::uncovered(1));
        assert_eq!(swap.load().version(), 0);
        assert!(swap.load().route(0, 7).is_none());
        swap.publish(snap);
        assert_eq!((swap.version(), swap.load().version()), (1, 1));
        assert!(swap.load().route(0, 7).is_some());
        let p2 = RoutingPolicy::from_allocation(&p, &{
            let mut x = Allocation::zeros(&p);
            x.set(&p, 0, 0, 1.0);
            x
        });
        swap.publish(RouterSnapshot::compile(&p, &p2, 2));
        assert_eq!((swap.version(), swap.load().version()), (2, 2));
    }

    #[test]
    #[should_panic(expected = "version must advance")]
    fn stale_publication_is_rejected() {
        let (_, snap) = snapshot_3to1();
        let swap = SnapshotSwap::new(snap);
        swap.publish(RouterSnapshot::uncovered(1));
    }
}

//! Deterministic request-stream generation.
//!
//! Every `(city, period)` pair gets two seeded streams of its own: the
//! arrival stream and, seeded apart from it, the routing stream. The
//! requests of a city are therefore a pure function of `(seed, city,
//! period, rate)` — independent of which shard thread draws them and of
//! how many shards exist. That independence is what makes sealed period
//! matrices byte-identical at any `--jobs` count and lets a checkpoint
//! resume mid-stream bit-exactly: period `k+1` streams are fresh seeds,
//! never continuations of period `k` RNG state.
//!
//! The arrival stream is the paper's Poisson arrival process over one
//! period, reduced to what the controller observes. The count of a
//! Poisson process of rate `λ` on `[0, T)` is `Poisson(λT)`, and given
//! the count the requests' attributes are independent, so the stream
//! draws its arrival count as one exact Poisson variate
//! ([`dspp_workload::poisson::sample`]) and then one attribute word per
//! arrival. Arrival times are never drawn: nothing downstream reads them.
//! The routing stream supplies each admitted request's routing word. A
//! shard draws both streams of a city in one loop, a fresh request's
//! attribute word and its routing word in the same iteration, and counts
//! them without building events; [`generate_city_period`] collects the
//! arrival stream as events.

use dspp_workload::poisson;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::event::{Event, RequestClass};

/// SplitMix64-style finalizer mixing the run seed with a city and period
/// index into one stream seed. Distinct inputs land in distinct streams
/// with overwhelming probability.
#[inline]
pub fn stream_seed(seed: u64, city: usize, period: usize) -> u64 {
    let mut z = seed
        .wrapping_add((city as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((period as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt separating the per-`(city, period)` routing stream from the
/// arrival stream with the same coordinates.
const ROUTE_STREAM_SALT: u64 = 0x5ee0_1e55_0c0f_fee5;

/// Starts the arrival stream of one `(city, period)` pair — the one
/// definition of that stream. From an RNG seeded with [`stream_seed`] it
/// draws the arrival count `N ~ Poisson(rate · period_seconds)` (a zero
/// rate draws nothing) and returns it with the RNG, whose next words are
/// the arrivals' attribute words (class and payload size), one per
/// arrival in arrival order. `rate` is the city's mean arrival rate in
/// requests/second over a period of `period_seconds`. The ingest shards
/// draw only the words of the arrivals they admit;
/// [`generate_city_period`] draws all `N`.
#[inline]
pub(crate) fn arrival_stream(
    seed: u64,
    city: usize,
    period: usize,
    rate: f64,
    period_seconds: f64,
) -> (u64, StdRng) {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, city, period));
    let arrivals = poisson::sample(&mut rng, rate * period_seconds);
    (arrivals, rng)
}

/// The routing stream of one `(city, period)` pair — the one definition
/// of that stream: an RNG seeded apart from the arrival stream, which
/// supplies the city's routing words. A carried request draws its
/// attribute word and then its routing word from it (only its count
/// survived the deferral); a fresh request draws its routing word.
#[inline]
pub(crate) fn routing_stream(seed: u64, city: usize, period: usize) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed ^ ROUTE_STREAM_SALT, city, period))
}

/// Collects the whole event stream of one `(city, period)` pair — the
/// stream the ingest shards count — into `out` (cleared first, capacity
/// reused across periods). `rate` is the city's mean arrival rate in
/// requests/second over a period of `period_seconds`. Returns the number
/// of events generated.
///
/// # Panics
///
/// Panics if `rate · period_seconds` is negative or not finite.
pub fn generate_city_period(
    seed: u64,
    city: usize,
    period: usize,
    rate: f64,
    period_seconds: f64,
    out: &mut Vec<Event>,
) -> u64 {
    out.clear();
    let (arrivals, mut words) = arrival_stream(seed, city, period, rate, period_seconds);
    for _ in 0..arrivals {
        let word = words.next_u64();
        let class = RequestClass::from_draw(word);
        out.push(Event {
            city: city as u32,
            class,
            size_kib: class.size_kib(word >> 2),
        });
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_pure_function_of_its_coordinates() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        generate_city_period(9, 3, 5, 200.0, 60.0, &mut a);
        generate_city_period(9, 3, 5, 200.0, 60.0, &mut b);
        assert_eq!(a, b);
        // A different period (or city) is a different stream.
        generate_city_period(9, 3, 6, 200.0, 60.0, &mut b);
        assert_ne!(a, b);
        generate_city_period(9, 4, 5, 200.0, 60.0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn rate_calibration_holds() {
        let mut out = Vec::new();
        let n = generate_city_period(1, 0, 0, 500.0, 20.0, &mut out);
        // λ·T = 10_000; 4σ = 400.
        assert!((n as f64 - 10_000.0).abs() < 400.0, "{n} events");
        assert!(out.iter().all(|e| e.city == 0));
    }

    /// Over 2 500 `(city, period)` streams at λT = 100 and at 5 000, the
    /// arrival counts have mean λT and an index of dispersion
    /// (variance ÷ mean) of 1, each within 5 standard errors: the
    /// counts are Poisson, not a deterministic `λT` nor an under- or
    /// over-dispersed draw.
    #[test]
    fn arrival_counts_are_poisson_across_streams() {
        const STREAMS: f64 = 2_500.0;
        for (rate, period_seconds) in [(2.5, 40.0), (125.0, 40.0)] {
            let mean = rate * period_seconds;
            let counts: Vec<f64> = (0..50)
                .flat_map(|city| (0..50).map(move |period| (city, period)))
                .map(|(city, period)| {
                    arrival_stream(11, city, period, rate, period_seconds).0 as f64
                })
                .collect();
            let m = counts.iter().sum::<f64>() / STREAMS;
            let var = counts.iter().map(|c| (c - m).powi(2)).sum::<f64>() / (STREAMS - 1.0);
            assert!(
                (m - mean).abs() < 5.0 * (mean / STREAMS).sqrt(),
                "λT {mean}: mean count {m}"
            );
            let dispersion = var / m;
            assert!(
                (dispersion - 1.0).abs() < 5.0 * (2.0 / (STREAMS - 1.0)).sqrt(),
                "λT {mean}: index of dispersion {dispersion}"
            );
        }
    }

    #[test]
    fn arrival_stream_draws_the_collected_stream() {
        let mut events = Vec::new();
        let n = generate_city_period(5, 2, 7, 300.0, 10.0, &mut events);
        assert!(n > 1000);
        let (counted, mut words) = arrival_stream(5, 2, 7, 300.0, 10.0);
        assert_eq!(counted, n);
        for ev in &events {
            let word = words.next_u64();
            let class = RequestClass::from_draw(word);
            assert_eq!((class, class.size_kib(word >> 2)), (ev.class, ev.size_kib));
        }
        assert_eq!(arrival_stream(5, 2, 7, 0.0, 10.0).0, 0);
        // The routing stream is another stream with the same coordinates.
        let (_, mut arrivals) = arrival_stream(5, 2, 7, 0.0, 10.0);
        assert_ne!(routing_stream(5, 2, 7).next_u64(), arrivals.next_u64());
    }

    #[test]
    fn zero_rate_city_generates_nothing() {
        let mut out = vec![Event {
            city: 0,
            class: RequestClass::Standard,
            size_kib: 1,
        }];
        assert_eq!(generate_city_period(1, 0, 0, 0.0, 3600.0, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn seed_mixer_separates_nearby_coordinates() {
        let mut seen = std::collections::HashSet::new();
        for city in 0..50 {
            for period in 0..50 {
                assert!(seen.insert(stream_seed(42, city, period)));
            }
        }
    }
}

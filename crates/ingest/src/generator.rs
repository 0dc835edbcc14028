//! Deterministic request-stream generation.
//!
//! Every `(city, period)` pair gets its own seeded stream, so the
//! requests of a city are a pure function of `(seed, city, period,
//! rate)` — independent of which shard thread generates them and of how
//! many shards exist. That independence is what makes sealed period
//! matrices byte-identical at any `--jobs` count and lets a checkpoint
//! resume mid-stream bit-exactly: period `k+1` streams are fresh seeds,
//! never continuations of period `k` RNG state.
//!
//! A stream is the paper's Poisson arrival process over one period,
//! reduced to what the controller observes. The count of a Poisson
//! process of rate `λ` on `[0, T)` is `Poisson(λT)`, and given the count
//! the requests' attributes are independent, so a stream draws its
//! arrival count as one exact Poisson variate
//! ([`dspp_workload::poisson::sample`]) and then one attribute word per
//! arrival. Arrival times are never drawn: nothing downstream reads them.

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

/// Draws the request stream of one `(city, period)` pair — the one
/// definition of that stream — and returns its arrival count. From an
/// RNG seeded with [`stream_seed`] it draws the arrival count
/// `N ~ Poisson(rate · period_seconds)` (a zero rate draws nothing),
/// then one attribute word (class and payload size) per arrival, in
/// arrival order, for the first `admitted` arrivals only: those words go
/// to `attribute`, and the words of later arrivals are not drawn. `rate`
/// is the city's mean arrival rate in requests/second over a period of
/// `period_seconds`. The ingest shards pass their admission budget;
/// [`generate_city_period`] passes `u64::MAX` and collects every word.
#[inline]
pub(crate) fn count_arrivals(
    seed: u64,
    city: usize,
    period: usize,
    rate: f64,
    period_seconds: f64,
    admitted: u64,
    mut attribute: impl FnMut(u64),
) -> u64 {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, city, period));
    let arrivals = poisson::sample(&mut rng, rate * period_seconds);
    for _ in 0..arrivals.min(admitted) {
        attribute(rng.next_u64());
    }
    arrivals
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
    count_arrivals(seed, city, period, rate, period_seconds, u64::MAX, |word| {
        let class = RequestClass::from_draw(word);
        out.push(Event {
            city: city as u32,
            class,
            size_kib: class.size_kib(word >> 2),
        });
    })
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
                    count_arrivals(11, city, period, rate, period_seconds, 0, |_| {}) as f64
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
    fn counting_pass_draws_the_collected_stream() {
        let mut events = Vec::new();
        let n = generate_city_period(5, 2, 7, 300.0, 10.0, &mut events);
        assert!(n > 1000);
        for admitted in [0, 1, n / 2, n - 1, n, n + 5, u64::MAX] {
            let mut words = Vec::new();
            let counted = count_arrivals(5, 2, 7, 300.0, 10.0, admitted, |word| words.push(word));
            assert_eq!(counted, n, "admitted {admitted}");
            assert_eq!(words.len() as u64, admitted.min(n));
            for (&word, ev) in words.iter().zip(&events) {
                let class = RequestClass::from_draw(word);
                assert_eq!((class, class.size_kib(word >> 2)), (ev.class, ev.size_kib));
            }
        }
        let silent = count_arrivals(5, 2, 7, 0.0, 10.0, u64::MAX, |_| {
            panic!("a zero-rate stream has no arrivals");
        });
        assert_eq!(silent, 0);
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

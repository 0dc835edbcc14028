//! Deterministic request-stream generation.
//!
//! Every `(city, period)` pair gets an independently seeded
//! [`dspp_sim::ArrivalProcess`] (the DES arrival machinery factored out
//! for reuse), so the event stream of a city is a pure function of
//! `(seed, city, period, rate)` — independent of which shard thread
//! generates it and of how many shards exist. That independence is what
//! makes sealed period matrices byte-identical at any `--jobs` count and
//! lets a checkpoint resume mid-stream bit-exactly: period `k+1` streams
//! are fresh seeds, never continuations of period `k` RNG state.

use dspp_sim::ArrivalProcess;
use rand::RngCore;

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

/// The event stream of one `(city, period)` pair, drawn lazily: the one
/// definition of that stream. Each arrival draws its inter-arrival time
/// and then one attribute word (class and payload size) from the pair's
/// own [`ArrivalProcess`], so the sequence is a pure function of
/// `(seed, city, period, rate)` however much of it a caller consumes.
/// The ingest shards count it ([`CityStream::count_arrivals`]);
/// collecting events ([`generate_city_period`]) iterates it. Both take
/// the same draws.
#[derive(Debug)]
pub(crate) struct CityStream {
    arrivals: ArrivalProcess,
    city: u32,
    horizon: f64,
}

impl CityStream {
    /// The stream of `city` in `period`; `rate` is the city's mean
    /// arrival rate in requests/second over a period of `period_seconds`.
    pub(crate) fn new(
        seed: u64,
        city: usize,
        period: usize,
        rate: f64,
        period_seconds: f64,
    ) -> Self {
        CityStream {
            arrivals: ArrivalProcess::new(stream_seed(seed, city, period), rate),
            city: city as u32,
            horizon: period_seconds,
        }
    }

    /// The one per-arrival draw step: the next arrival's time in seconds
    /// and its attribute word, or `None` once the stream has passed the
    /// period's end.
    #[inline]
    fn next_arrival(&mut self) -> Option<(f64, u64)> {
        let t = self.arrivals.next_before(self.horizon)?;
        Some((t, self.arrivals.rng_mut().next_u64()))
    }

    /// Draws the whole stream without building events and returns its
    /// number of arrivals. The attribute words of the first `admitted`
    /// arrivals go to `attribute`, in arrival order; later arrivals make
    /// the same draws but are only counted.
    #[inline]
    pub(crate) fn count_arrivals(mut self, admitted: u64, mut attribute: impl FnMut(u64)) -> u64 {
        let mut arrivals = 0u64;
        while arrivals < admitted {
            let Some((_, word)) = self.next_arrival() else {
                return arrivals;
            };
            attribute(word);
            arrivals += 1;
        }
        while self.next_arrival().is_some() {
            arrivals += 1;
        }
        arrivals
    }
}

impl Iterator for CityStream {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        let (t, attr) = self.next_arrival()?;
        let class = RequestClass::from_draw(attr);
        Some(Event {
            time_us: (t * 1e6) as u64,
            city: self.city,
            class,
            size_kib: class.size_kib(attr >> 2),
        })
    }
}

/// Collects the whole event stream of one `(city, period)` pair — the
/// stream the ingest shards consume lazily — into `out` (cleared first,
/// capacity reused across periods). `rate` is the city's mean arrival
/// rate in requests/second over a period of `period_seconds`. Returns the
/// number of events generated.
pub fn generate_city_period(
    seed: u64,
    city: usize,
    period: usize,
    rate: f64,
    period_seconds: f64,
    out: &mut Vec<Event>,
) -> u64 {
    out.clear();
    out.extend(CityStream::new(seed, city, period, rate, period_seconds));
    out.len() as u64
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
    fn rate_calibration_and_ordering_hold() {
        let mut out = Vec::new();
        let n = generate_city_period(1, 0, 0, 500.0, 20.0, &mut out);
        // λ·T = 10_000; 4σ = 400.
        assert!((n as f64 - 10_000.0).abs() < 400.0, "{n} events");
        assert!(out.windows(2).all(|w| w[0].time_us <= w[1].time_us));
        assert!(out.iter().all(|e| e.city == 0));
        assert!(out.iter().all(|e| (e.time_us as f64) < 20.0 * 1e6));
    }

    #[test]
    fn counting_pass_draws_the_collected_stream() {
        let mut events = Vec::new();
        let n = generate_city_period(5, 2, 7, 300.0, 10.0, &mut events);
        assert!(n > 1000);
        for admitted in [0, 1, n / 2, n - 1, n, n + 5, u64::MAX] {
            let mut words = Vec::new();
            let counted = CityStream::new(5, 2, 7, 300.0, 10.0)
                .count_arrivals(admitted, |word| words.push(word));
            assert_eq!(counted, n, "admitted {admitted}");
            assert_eq!(words.len() as u64, admitted.min(n));
            for (&word, ev) in words.iter().zip(&events) {
                let class = RequestClass::from_draw(word);
                assert_eq!((class, class.size_kib(word >> 2)), (ev.class, ev.size_kib));
            }
        }
        let silent = CityStream::new(5, 2, 7, 0.0, 10.0).count_arrivals(u64::MAX, |_| {
            panic!("a zero-rate stream has no arrivals");
        });
        assert_eq!(silent, 0);
    }

    #[test]
    fn zero_rate_city_generates_nothing() {
        let mut out = vec![Event {
            time_us: 0,
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

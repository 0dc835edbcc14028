//! Request events and their deterministic attribute model.

/// Coarse request classes, mirroring the three traffic tiers the
/// evaluation workloads mix (interactive page views, standard API calls,
/// batch uploads). The class drives the payload-size draw and is carried
/// on every event so downstream aggregation can split byte totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestClass {
    /// Latency-sensitive, small payload.
    Interactive,
    /// Ordinary API traffic.
    Standard,
    /// Bulk transfer, large payload.
    Batch,
}

impl RequestClass {
    /// Maps a raw 2-bit draw onto a class (3 maps back to `Standard` so
    /// the distribution is 1/4 interactive, 1/2 standard, 1/4 batch).
    #[inline]
    pub const fn from_draw(bits: u64) -> RequestClass {
        match bits & 0b11 {
            0 => RequestClass::Interactive,
            3 => RequestClass::Batch,
            _ => RequestClass::Standard,
        }
    }

    /// Payload size in KiB for this class given a raw 8-bit draw:
    /// interactive 1–16, standard 4–64, batch 64–1024.
    #[inline]
    pub const fn size_kib(self, bits: u64) -> u32 {
        let b = (bits & 0xff) as u32;
        match self {
            RequestClass::Interactive => 1 + b % 16,
            RequestClass::Standard => 4 + b % 61,
            RequestClass::Batch => 64 + (b % 241) * 4,
        }
    }

    /// Stable index (0/1/2) for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            RequestClass::Interactive => 0,
            RequestClass::Standard => 1,
            RequestClass::Batch => 2,
        }
    }
}

/// Number of distinct attribute words: the class reads bits 0–1 of a
/// request's attribute draw and the payload size bits 2–9, so only its
/// low 10 bits matter.
pub(crate) const ATTRIBUTE_WORDS: usize = 1 << 10;

/// `(class index, payload KiB)` of every attribute word, indexed by its
/// low 10 bits: what [`RequestClass::from_draw`] and
/// [`RequestClass::size_kib`] give for any draw with those bits. Counting
/// admitted requests per word and weighting the counts by this table sums
/// exactly the payload bytes the requests carry.
pub(crate) static ATTRIBUTES: [(u8, u16); ATTRIBUTE_WORDS] = attribute_table();

const fn attribute_table() -> [(u8, u16); ATTRIBUTE_WORDS] {
    let mut table = [(0, 0); ATTRIBUTE_WORDS];
    let mut word = 0;
    while word < ATTRIBUTE_WORDS {
        let class = RequestClass::from_draw(word as u64);
        table[word] = (class.index() as u8, class.size_kib(word as u64 >> 2) as u16);
        word += 1;
    }
    table
}

/// One request: the unit the ingest front end routes and aggregates at
/// millions per control period. 12 bytes and `Copy`, so a collected
/// stream stores events by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Client location (city) index.
    pub city: u32,
    /// Traffic class.
    pub class: RequestClass,
    /// Payload size in KiB.
    pub size_kib: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_draws_cover_all_variants_and_sizes_stay_in_band() {
        let mut seen = [false; 3];
        for bits in 0..4u64 {
            seen[RequestClass::from_draw(bits).index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for bits in 0..256u64 {
            let i = RequestClass::Interactive.size_kib(bits);
            let s = RequestClass::Standard.size_kib(bits);
            let b = RequestClass::Batch.size_kib(bits);
            assert!((1..=16).contains(&i));
            assert!((4..=64).contains(&s));
            assert!((64..=1024).contains(&b));
        }
    }

    #[test]
    fn attribute_table_matches_the_class_and_size_draws() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        // Random high bits must not matter: only the low 10 bits index
        // the table.
        let mut rng = StdRng::seed_from_u64(17);
        for low in 0..ATTRIBUTE_WORDS as u64 {
            let word = (rng.next_u64() << 10) | low;
            let class = RequestClass::from_draw(word);
            let (index, kib) = ATTRIBUTES[(word % ATTRIBUTE_WORDS as u64) as usize];
            assert_eq!(usize::from(index), class.index(), "word {word:#x}");
            assert_eq!(u32::from(kib), class.size_kib(word >> 2), "word {word:#x}");
        }
    }

    #[test]
    fn event_is_compact() {
        assert!(std::mem::size_of::<Event>() <= 24);
    }
}

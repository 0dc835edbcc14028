//! End-to-end benchmark of the dspp placement loop.
//!
//! Three closed-loop workloads drive the real program through its public
//! entry points, one period in flight at a time:
//!
//! * [`paper`] — the paper's 4 DC × 24 city instance behind
//!   [`dspp_ingest::IngestLoop`], with a scheduled brownout and DC outage
//!   (the recovery path and masked republish);
//! * [`regional`] — 20 DCs × 200 locations behind
//!   [`dspp_sim::ClosedLoopSim`] (the structured KKT backend);
//! * [`game`] — the rolling multi-provider game, one
//!   [`dspp_game::ResourceGame::run_from`] per period.
//!
//! Layers are timed from outside: decorators on the two trait seams the
//! program exposes ([`probe::TimedPolicy`], [`probe::TimedPredictor`]) and,
//! in traced runs, a replay of the public solve calls ([`replay`]). See
//! `NOTES.md` for the metric definitions and the layer → end-to-end map.

pub mod checks;
pub mod game;
pub mod noise;
pub mod paper;
pub mod probe;
pub mod regional;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;

/// Process-wide allocation counting behind `core.allocs_per_decision`.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The system allocator plus a relaxed allocation counter (a statistic
    /// that publishes no other data). Every call delegates to [`System`]
    /// with the matching method, so reallocation and zeroed allocation
    /// keep the system allocator's fast paths.
    pub struct CountingAllocator;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    // SAFETY: every method forwards its arguments unchanged to the system
    // allocator, whose contract is the one `GlobalAlloc` requires; the only
    // addition is a relaxed counter increment with no effect on memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocations (including reallocations) made by this process so far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

//! Acceptance check: bulk-loading a relation allocates per *page*, not per
//! tuple. `Catalog::load` validates each tuple where it is and moves it into
//! its page once, so what it allocates is each page's slot array, reserved
//! once when the page opens, the heap's page array and the statistics pass —
//! `blocks + k` for a small constant, whatever the tuple count.
//!
//! Proven with a counting `#[global_allocator]` wrapping the system
//! allocator. This file holds exactly one `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use xprs_disk::StripedLayout;
use xprs_storage::{Catalog, Schema, Tuple};

/// Tuples loaded; each is 74 bytes on the page, 110 to a page.
const N: usize = 20_000;
/// Allocations a page may cost: its slot array, reserved for 110 entries
/// from the row that opens the page.
const PER_PAGE: u64 = 1;
/// Allocations independent of both counts: the heap's page array doubling
/// and the statistics pass's distinct-key set.
const FIXED: u64 = 64;

#[test]
fn load_allocates_per_page_not_per_tuple() {
    // Rows are built before the measured window; that allocates freely.
    let rows: Vec<Tuple> = (0..N).map(|i| Tuple::paper((i % 1000) as i32, 60)).collect();
    let mut cat = Catalog::new(StripedLayout::new(4));
    cat.create("r", Schema::paper_rel());

    let before = ALLOCS.load(Ordering::SeqCst);
    cat.load("r", rows);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    let blocks = cat.get("r").expect("loaded").stats().n_blocks;
    assert_eq!(blocks, N.div_ceil(110) as u64);
    let bound = blocks * PER_PAGE + FIXED;
    eprintln!("load: {allocs} allocations for {N} tuples on {blocks} pages (bound {bound})");
    assert!(
        allocs <= bound,
        "{allocs} allocations loading {N} tuples on {blocks} pages: more than \
         {PER_PAGE} per page + {FIXED}, so some tuple is copied on its way in"
    );
}

//! Acceptance check: a paper row `r(a int4, b text)` is one allocation.
//! Its two fields sit inline in the tuple, so building or cloning one
//! allocates only its `b` text, and nothing when `b` is empty; a join of
//! two rows allocates its four-field output once, plus each non-empty text.
//!
//! Proven with a counting `#[global_allocator]` wrapping the system
//! allocator. This file holds exactly one `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
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

use xprs_storage::Tuple;

/// Allocations `f` makes; its result is dropped outside the window.
fn allocs<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    let out = black_box(f());
    let n = ALLOCS.load(Ordering::SeqCst) - before;
    drop(out);
    n
}

#[test]
fn a_paper_row_is_one_allocation() {
    for blen in [0usize, 1, 60, 8000] {
        let text = u64::from(blen > 0);
        assert_eq!(allocs(|| Tuple::paper(7, blen)), text, "building a row with a {blen}-byte b");
        let row = Tuple::paper(7, blen);
        assert_eq!(allocs(|| row.clone()), text, "cloning a row with a {blen}-byte b");
        for other in [0usize, 5] {
            let right = Tuple::paper(8, other);
            let want = 1 + text + u64::from(other > 0);
            assert_eq!(allocs(|| row.join(&right)), want, "joining {blen}- and {other}-byte b");
        }
    }
}

//! Acceptance check: probing a CSR-indexed [`Materialized`] performs **zero
//! heap allocations** — `matches()` is a binary search plus a slice borrow,
//! and iterating the hits only walks the positions array.
//!
//! Proven with a counting `#[global_allocator]` wrapping the system
//! allocator. This file holds exactly one `#[test]` so no sibling test
//! thread can allocate concurrently and pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use xprs_executor::Materialized;
use xprs_storage::{Datum, Tuple};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

#[test]
fn csr_probes_do_not_allocate() {
    // Build happens before the measured window; it allocates freely.
    let mut seed = 0x0A11_0C0D_u64;
    let runs: Vec<Vec<(i32, Tuple)>> = (0..4)
        .map(|_| {
            let mut run: Vec<(i32, Tuple)> = (0..2_000)
                .map(|_| {
                    let a = (lcg(&mut seed) % 512) as i32;
                    (a, Tuple::from_values(vec![Datum::Int(a)]))
                })
                .collect();
            run.sort_by_key(|(k, _)| *k);
            run
        })
        .collect();
    let mat = Materialized::from_runs(runs);

    // Measured window: many probes — hits, misses, plain and cursored —
    // with full iteration of every match. `sum` into a stack integer so
    // the loop body itself is allocation-free too.
    //
    // The counter is process-wide, so the libtest harness thread can leak a
    // stray allocation into a window under load. A probe-path allocation
    // would repeat in *every* window (~5M probes each), so retrying and
    // accepting one clean window keeps the assertion sound while shedding
    // harness noise.
    let mut min_allocs = u64::MAX;
    for _attempt in 0..5 {
        let mut checksum = 0i64;
        let before = ALLOCS.load(Ordering::SeqCst);
        for round in 0..100 {
            for key in -8i32..520 {
                for t in mat.matches(key) {
                    if let Datum::Int(v) = t.get(0) {
                        checksum += *v as i64;
                    }
                }
            }
            // Monotone sweep through the cursor path (the MergeWith shape).
            let mut cursor = 0usize;
            for key in -8i32..520 {
                for t in mat.matches_from(key, &mut cursor) {
                    if let Datum::Int(v) = t.get(0) {
                        checksum -= *v as i64;
                    }
                }
            }
            let _ = round;
        }
        let after = ALLOCS.load(Ordering::SeqCst);

        assert_eq!(checksum, 0, "plain and cursored probes must visit the same rows");
        min_allocs = min_allocs.min(after - before);
        if min_allocs == 0 {
            break;
        }
    }

    assert_eq!(
        min_allocs, 0,
        "CSR probe path allocated {min_allocs} times in every measured window"
    );
}

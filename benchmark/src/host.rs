//! What the numbers were measured on, and the host-side clocks.
//!
//! Every output carries this header so a number can be read against the
//! machine and the noise it came from: core count, CPU model, load average,
//! commit, seed, and a fixed spin-loop calibration.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Threads the load generator uses, stated in every header.
pub const GENERATOR_THREADS: u32 = 1;

/// The host and noise header.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
    pub commit: String,
    pub seed: u64,
    /// Nanoseconds one million iterations of a fixed integer loop took:
    /// compare it between two outputs before comparing anything else.
    pub spin_ns_per_miter: f64,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spin_calibration() -> f64 {
    // Best of five: the floor is the host's speed, the rest is its noise.
    const ITERS: u64 = 20_000_000;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= (x << 17).wrapping_add(i);
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as f64 / (ITERS as f64 / 1e6)
        })
        .fold(f64::INFINITY, f64::min)
}

impl Host {
    pub fn capture(seed: u64, commit: &str) -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let loadavg = read("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: nproc(),
            cpu_model,
            loadavg,
            commit: commit.to_string(),
            seed,
            spin_ns_per_miter: spin_calibration(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" loadavg=\"{}\" commit={} seed={} spin={:.0} ns/Miter generator_threads={}",
            self.nproc,
            self.cpu_model,
            self.loadavg,
            self.commit,
            self.seed,
            self.spin_ns_per_miter,
            GENERATOR_THREADS
        )
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU seconds (user + system, every thread, exited ones included)
/// from `CLOCK_PROCESS_CPUTIME_ID`: nanosecond resolution, where the 10 ms
/// ticks of `/proc/self/stat` would quantize a sleep-dominated run's CPU by
/// a percent or two. Wall time is [`Instant`]; the two are never added.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which the cfg above pins), and the call
    // writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Counts heap allocations while [`count_allocs`] runs, and nothing
/// otherwise: the disabled path is one relaxed load of a read-mostly flag.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with allocation counting on; returns its result and the number
/// of allocations every thread made meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

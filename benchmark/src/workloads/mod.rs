//! The five workloads. Each builds its inputs from the seed alone, runs its
//! operations for the requested time, checks every answer against an oracle
//! that shares no code with the path under test, and hands back one
//! [`Pass`].

pub mod cached_join;
pub mod cached_scan;
pub mod disk_mix;
pub mod sched_sim;
pub mod service_open;

use std::time::Instant;

use crate::host::process_cpu_s;
use crate::stats;
use crate::trace::{Open, Tracer};

/// Workers the cached workloads run every fragment with: constant, so any
/// host with at least two cores measures the same thing.
pub const CACHED_WORKERS: u32 = 2;

/// What one timed pass of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Operations offered.
    pub attempted: u64,
    /// Operations that errored, were shed or cancelled, or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Host wall milliseconds of every completed operation.
    pub latencies_ms: Vec<f64>,
    /// Operations answered correctly within the workload's latency limit.
    pub in_limit: u64,
    /// Operations per wall second, one sample per trial.
    pub trial_ops_per_s: Vec<f64>,
    /// Operations completed inside the timed part.
    pub ops: u64,
    /// Wall seconds of the timed part.
    pub wall_s: f64,
    /// Process CPU seconds of the timed part.
    pub cpu_s: f64,
    /// Workload-specific metrics under their per-layer names.
    pub named: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Record one correctly answered operation that took `ms`, against the
    /// workload's latency limit.
    pub fn completed(&mut self, ms: f64, limit_ms: f64) {
        self.latencies_ms.push(ms);
        self.in_limit += u64::from(ms <= limit_ms);
    }

    pub fn within_limit_share(&self) -> f64 {
        self.in_limit as f64 / self.attempted.max(1) as f64
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn throughput_ops_s(&self) -> f64 {
        stats::median(&self.trial_ops_per_s)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s / self.ops.max(1) as f64 * 1e6
    }

    pub fn named(&self, name: &str) -> Option<f64> {
        self.named.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// How long each stage of a set-up took, for the `setup_s` attribution.
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub load_s: f64,
    pub index_s: f64,
    pub plan_s: f64,
}

/// Time `f` under a `name` span; adds the seconds to `slot`.
pub fn stage<T>(
    tr: &Tracer,
    parent: &Open<'_>,
    name: &'static str,
    slot: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let _s = tr.span(name, Some(parent), None);
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// A workload: seeded set-up, then timed passes over the same inputs.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Build every input from `seed`. Stages run under `parent` as
    /// `generate`, `load`, `index`, `plan` spans.
    fn setup(seed: u64, tr: &Tracer, parent: &Open<'_>) -> (Self, SetupTimes);

    /// Warm up (threads spawned, pool resident), then measure for about
    /// `seconds`. `obs` turns the system's own metric collection on (the
    /// traced run); spans go to `tr`.
    fn measure(&self, seconds: f64, obs: bool, tr: &Tracer) -> Pass;
}

/// Wall and process-CPU stopwatch over one region.
pub struct Stopwatch {
    t: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            t: Instant::now(),
            cpu: process_cpu_s(),
        }
    }
    pub fn wall_s(&self) -> f64 {
        self.t.elapsed().as_secs_f64()
    }
    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.t.elapsed().as_secs_f64(), process_cpu_s() - self.cpu)
    }
}

/// SplitMix64: the benchmark's only random source, so inputs are a pure
/// function of `--seed` and of nothing in the system under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Set by `--flip-oracle`: the scan oracle then counts the complement of
/// the predicate, so every answer must be reported wrong. It exists to show
/// that the answer check can fail.
pub static FLIP_ORACLE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

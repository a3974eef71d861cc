//! `xprs-obs`: measurement primitives for the whole workspace.
//!
//! The paper's argument (§2.2–2.3) is quantitative — pair an IO-bound and a
//! CPU-bound task at the balance point and *both* resources stay saturated —
//! so the repro has to be able to measure utilization, not just model it.
//! This crate supplies the two pieces every other layer shares:
//!
//! * **Metrics primitives** — [`Counter`] (a relaxed `AtomicU64`, one
//!   uncontended CAS-free add on the hot path) and [`Histogram`] (fixed
//!   power-of-two buckets of atomics, no locks, no allocation after
//!   construction). Both snapshot into plain-old-data ([`u64`],
//!   [`HistSnapshot`]) that supports window diffs: sample at a window edge,
//!   diff against the previous edge, and the delta is what happened inside
//!   the window.
//! * **JSON** — the workspace builds offline with no serde, and JSON syntax
//!   is owned by one module, [`json`]: every producer (scheduler traces,
//!   executor `metrics.json`, bench artefacts) builds a [`json::JsonValue`]
//!   from its fields and renders it with `Display`; every consumer
//!   (`metrics.json` tests, `benchmark/`) parses with [`json::parse`] and
//!   walks the [`json::JsonValue`] it returns.
//!
//! Collection is always on, so it must be cheap: this crate uses relaxed
//! atomics only, and instrumented hot paths sample or count locally.

use std::sync::atomic::{AtomicU64, Ordering};

pub mod json;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter. All operations are relaxed
/// atomics: safe to share across worker threads, never a synchronization
/// point. Totals are exact once the writers have quiesced (e.g. after
/// `Executor::run` joins its workers).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Accumulates durations (or any `f64` quantity) as integer nanoseconds so
/// the hot path stays a single relaxed `fetch_add` — no float CAS loop.
#[derive(Debug, Default)]
pub struct TimeSum(AtomicU64);

impl TimeSum {
    /// A sum starting at zero.
    pub const fn new() -> Self {
        TimeSum(AtomicU64::new(0))
    }

    /// Add `ns` nanoseconds.
    #[inline]
    pub fn add_ns(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add `secs` seconds, to the nearest nanosecond (saturating at ~584
    /// years; negative/NaN ignored). Rounding, not truncation: a whole
    /// number of nanoseconds computed in floating point may land just below
    /// itself, and truncating would drop a nanosecond from the sum.
    #[inline]
    pub fn add_secs(&self, secs: f64) {
        if secs > 0.0 {
            self.add_ns((secs * 1e9).round() as u64);
        }
    }

    /// Total in nanoseconds.
    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Total in seconds.
    #[inline]
    pub fn secs(&self) -> f64 {
        self.ns() as f64 / 1e9
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of buckets in a [`Histogram`]: bucket `i` holds values whose
/// highest set bit is `i - 1` (bucket 0 holds the value 0), so the upper
/// bound of bucket `i` is `2^i - 1` and 65 buckets cover all of `u64`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram of `u64` samples (latencies in
/// nanoseconds, fan-outs, run sizes...). `observe` is two relaxed
/// `fetch_add`s plus one `fetch_max` — no locks, no allocation — which keeps
/// enabled-metrics overhead inside the ~2% budget on the executor benches.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index of `v`: 0 for 0, else one past the highest set bit.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram. Not atomic across buckets —
    /// take snapshots at quiescent points or treat small cross-bucket skew
    /// as noise (the counters themselves never go backwards).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-old-data copy of a [`Histogram`], supporting window diffs and JSON
/// export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts ([`HIST_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (over the histogram's whole life, even in diffs).
    pub max: u64,
}

impl HistSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`0.0..=1.0`): the upper bound of the bucket
    /// containing the `q`-th sample. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_bound(i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// What happened since `earlier`: per-bucket and total deltas
    /// (saturating, so a mismatched pair degrades to zeros rather than
    /// nonsense). `max` keeps the later snapshot's lifetime max.
    pub fn diff(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// JSON object: count, sum, mean, max, p50/p99, and the non-empty
    /// buckets as `[bucket_upper_bound, count]` pairs.
    pub fn to_json(&self) -> json::JsonValue {
        let buckets = self.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
        let pairs = buckets.map(|(i, &c)| vec![Histogram::bucket_bound(i), c]);
        json::JsonValue::obj()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("mean", self.mean())
            .with("max", self.max)
            .with("p50", self.quantile(0.5))
            .with("p99", self.quantile(0.99))
            .with("buckets", pairs.collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn time_sum_round_trips_seconds() {
        let t = TimeSum::new();
        t.add_secs(1.5);
        t.add_ns(500_000_000);
        assert!((t.secs() - 2.0).abs() < 1e-9);
        t.add_secs(-1.0); // ignored
        t.add_secs(f64::NAN); // ignored
        assert!((t.secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(2), 3);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1106.0 / 6.0).abs() < 1e-9);
        assert!(s.quantile(0.0) <= s.quantile(1.0));
        assert_eq!(s.quantile(1.0), 1000); // last bucket bound clamped to max
        let empty = HistSnapshot { buckets: vec![0; HIST_BUCKETS], count: 0, sum: 0, max: 0 };
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn histogram_diff_isolates_a_window() {
        let h = Histogram::new();
        h.observe(10);
        let edge = h.snapshot();
        h.observe(20);
        h.observe(30);
        let delta = h.snapshot().diff(&edge);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 50);
    }

    #[test]
    fn histogram_json_parses_back() {
        let h = Histogram::new();
        for v in 0..100u64 {
            h.observe(v);
        }
        let text = h.snapshot().to_json().to_string();
        let v = json::parse(&text).expect("valid json");
        assert_eq!(v.get("count").and_then(|x| x.num()), Some(100.0));
        let buckets = v.get("buckets").and_then(|x| x.arr()).expect("buckets");
        let total: f64 = buckets
            .iter()
            .map(|pair| pair.arr().unwrap()[1].num().unwrap())
            .sum();
        assert_eq!(total, 100.0);
    }
}

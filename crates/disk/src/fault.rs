//! Deterministic fault injection for the disk array and the executor.
//!
//! A [`FaultPlan`] is a fixed schedule of faults decided before the run
//! starts: transient read errors keyed by `(relation, block)`, sustained
//! per-disk service-time multipliers keyed by request ordinal, and worker
//! stalls/deaths keyed by `(fragment, slot, units claimed)`. Keying every
//! fault to *logical* progress rather than wall-clock time is what makes a
//! plan reproducible across thread interleavings: the same plan against the
//! same query fires the same faults no matter how the OS schedules the
//! workers.
//!
//! The plan is immutable after construction; the only mutable state is the
//! atomic "already fired" bookkeeping, so a single `Arc<FaultPlan>` is
//! shared freely between the master, the machine layer, and every worker.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use crate::model::RelId;

/// What happens to a worker slot when its scheduled fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFaultKind {
    /// Fail-stop at a unit boundary: the worker stops pulling units, and
    /// its exit is reported as a death, not a clean one. The master
    /// reclaims its unfinished partition share.
    Death,
    /// The worker freezes for this many wall-clock milliseconds, then
    /// resumes. A stall is not a death, however long: nothing reports one,
    /// so the worker is never replaced and finishes its own share.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// The worker panics at a unit boundary — a bug, which the worker pool
    /// must catch and surface as a typed error while the others drain.
    Panic,
}

/// A worker fault scheduled against logical progress: fires once, the first
/// time worker `slot` of fragment `fragment` is about to claim a unit with
/// `after_units` or more claimed units behind it. A scan backend overlaps
/// the read of its latest claimed page with the evaluation of the one
/// before, so *claimed* — not finished — is the count that is the same at
/// every claim boundary whatever is still in flight; a claimed unit is
/// always finished by its claimant, so a worker that dies here has
/// completed exactly `after_units` units.
#[derive(Debug)]
struct WorkerFault {
    fragment: usize,
    slot: usize,
    after_units: u64,
    kind: WorkerFaultKind,
    taken: AtomicBool,
}

/// A transient read error: the next `remaining` reads of `(rel, block)`
/// fail, then the block reads cleanly — the classic recoverable-media model.
#[derive(Debug)]
struct ReadError {
    rel: RelId,
    block: u64,
    remaining: AtomicU32,
}

/// A sustained slowdown: from its `after_requests`-th service onward, disk
/// `disk` takes `multiplier`× the modeled service time for every request.
#[derive(Debug)]
struct Slowdown {
    disk: usize,
    after_requests: u64,
    multiplier: f64,
}

/// Counters for how many faults actually fired — tests assert against these
/// so a "survived the chaos" pass cannot silently mean "no chaos happened".
#[derive(Debug, Default)]
pub struct FaultStats {
    read_errors: AtomicU64,
    slow_requests: AtomicU64,
    stalls: AtomicU64,
    deaths: AtomicU64,
}

impl FaultStats {
    /// Transient read errors delivered.
    pub fn read_errors_fired(&self) -> u64 {
        self.read_errors.load(Ordering::Relaxed)
    }

    /// Requests served at a degraded (multiplier > 1) rate.
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// Worker stalls delivered.
    pub fn stalls_fired(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }

    /// Worker deaths delivered.
    pub fn deaths_fired(&self) -> u64 {
        self.deaths.load(Ordering::Relaxed)
    }
}

/// A deterministic, pre-decided schedule of faults. See the module docs for
/// the determinism argument; construct with the `with_*` builders or
/// [`FaultPlan::seeded`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    read_errors: Vec<ReadError>,
    slowdowns: Vec<Slowdown>,
    worker_faults: Vec<WorkerFault>,
    stats: FaultStats,
}

impl FaultPlan {
    /// An empty plan: injects nothing, every query runs clean.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `count` consecutive transient read failures on one block of
    /// `rel` (global block numbering, as the executor's `Machine` sees it).
    #[must_use]
    pub fn with_read_error(mut self, rel: RelId, block: u64, count: u32) -> Self {
        self.read_errors.push(ReadError { rel, block, remaining: AtomicU32::new(count) });
        self
    }

    /// Schedule a sustained slowdown of `multiplier`× on `disk`, starting at
    /// its `after_requests`-th request and lasting for the rest of the run.
    ///
    /// # Panics
    /// Panics if `multiplier` is not finite and ≥ 1 — a "slowdown" that
    /// speeds the disk up would let a degraded run beat the clean model.
    /// An invariant of the plan's author, not a runtime condition: a plan
    /// is written by a test or drawn by [`FaultPlan::seeded`] (always ≥ 1)
    /// before any run starts, never built from a request.
    #[must_use]
    pub fn with_slowdown(mut self, disk: usize, after_requests: u64, multiplier: f64) -> Self {
        assert!(
            multiplier.is_finite() && multiplier >= 1.0,
            "slowdown multiplier must be finite and >= 1, got {multiplier}"
        );
        self.slowdowns.push(Slowdown { disk, after_requests, multiplier });
        self
    }

    /// Schedule a fail-stop death of worker `slot` on fragment `fragment`
    /// once it has claimed `after_units` units (it finishes those first).
    #[must_use]
    pub fn with_worker_death(self, fragment: usize, slot: usize, after_units: u64) -> Self {
        self.with_worker_fault(fragment, slot, after_units, WorkerFaultKind::Death)
    }

    /// Schedule a panic of worker `slot` on fragment `fragment` once it has
    /// claimed `after_units` units (it finishes those first).
    #[must_use]
    pub fn with_worker_panic(self, fragment: usize, slot: usize, after_units: u64) -> Self {
        self.with_worker_fault(fragment, slot, after_units, WorkerFaultKind::Panic)
    }

    /// Schedule a `millis`-long stall of worker `slot` on fragment
    /// `fragment` once it has claimed `after_units` units.
    #[must_use]
    pub fn with_worker_stall(
        self,
        fragment: usize,
        slot: usize,
        after_units: u64,
        millis: u64,
    ) -> Self {
        self.with_worker_fault(fragment, slot, after_units, WorkerFaultKind::Stall { millis })
    }

    fn with_worker_fault(
        mut self,
        fragment: usize,
        slot: usize,
        after_units: u64,
        kind: WorkerFaultKind,
    ) -> Self {
        let taken = AtomicBool::new(false);
        self.worker_faults.push(WorkerFault { fragment, slot, after_units, kind, taken });
        self
    }

    /// The `(slot, after_units)` of every worker fault aimed at `fragment`.
    pub fn worker_fault_points(&self, fragment: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.worker_faults
            .iter()
            .filter(move |f| f.fragment == fragment)
            .map(|f| (f.slot, f.after_units))
    }

    /// Does this plan inject anything at all? An empty plan lets callers
    /// skip fault bookkeeping entirely.
    pub fn is_empty(&self) -> bool {
        self.read_errors.is_empty() && self.slowdowns.is_empty() && self.worker_faults.is_empty()
    }

    /// Consume one transient read error for `(rel, block)` if one is still
    /// pending. Returns `true` exactly `count` times per scheduled error,
    /// across any number of racing readers.
    pub fn take_read_error(&self, rel: RelId, block: u64) -> bool {
        for e in &self.read_errors {
            if e.rel != rel || e.block != block {
                continue;
            }
            // Claim one failure; a concurrent reader may win the race, in
            // which case keep scanning (two specs for one block compose).
            let mut left = e.remaining.load(Ordering::Relaxed);
            while left > 0 {
                match e.remaining.compare_exchange_weak(
                    left,
                    left - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.stats.read_errors.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(cur) => left = cur,
                }
            }
        }
        false
    }

    /// The service-time multiplier for the `request_index`-th request on
    /// `disk` (0-based ordinal of requests that disk has served). Overlapping
    /// slowdowns compound; a clean disk returns exactly 1.0.
    pub fn slowdown_multiplier(&self, disk: usize, request_index: u64) -> f64 {
        let mut mult = 1.0;
        for s in &self.slowdowns {
            if s.disk == disk && request_index >= s.after_requests {
                mult *= s.multiplier;
            }
        }
        if mult > 1.0 {
            self.stats.slow_requests.fetch_add(1, Ordering::Relaxed);
        }
        mult
    }

    /// Fire the pending worker fault for `(fragment, slot)` whose trigger
    /// point `units_claimed` has reached, if any. Each scheduled fault fires
    /// at most once.
    pub fn take_worker_fault(
        &self,
        fragment: usize,
        slot: usize,
        units_claimed: u64,
    ) -> Option<WorkerFaultKind> {
        for f in &self.worker_faults {
            if f.fragment != fragment || f.slot != slot || units_claimed < f.after_units {
                continue;
            }
            if f.taken.swap(true, Ordering::Relaxed) {
                continue;
            }
            let fired = match f.kind {
                WorkerFaultKind::Death => &self.stats.deaths,
                WorkerFaultKind::Stall { .. } => &self.stats.stalls,
                // A panic is counted where it surfaces, as a typed error.
                WorkerFaultKind::Panic => return Some(f.kind),
            };
            fired.fetch_add(1, Ordering::Relaxed);
            return Some(f.kind);
        }
        None
    }

    /// Fired-fault counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// How many faults the plan schedules in total (fired or not).
    pub fn scheduled(&self) -> usize {
        self.read_errors.len() + self.slowdowns.len() + self.worker_faults.len()
    }
}

/// The shape of the system a seeded plan draws its faults against.
#[derive(Debug, Clone)]
pub struct FaultDomain {
    /// Relations that can suffer read errors, with their block counts.
    pub rels: Vec<(RelId, u64)>,
    /// Number of disks in the array.
    pub n_disks: usize,
    /// Number of fragments in the plan under test.
    pub n_fragments: usize,
    /// Upper bound on worker slots per fragment.
    pub max_slots: usize,
}

/// splitmix64 — the standard seed expander; good enough for drawing fault
/// coordinates and fully deterministic.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Draw a random (but fully seed-determined) plan against `domain`:
    /// a handful of transient read errors, up to one sustained slowdown,
    /// and up to two worker faults. The same `(seed, domain)` always yields
    /// the identical plan.
    pub fn seeded(seed: u64, domain: &FaultDomain) -> FaultPlan {
        let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
        let mut plan = FaultPlan::new();
        if domain.rels.is_empty() || domain.n_disks == 0 {
            return plan;
        }
        let n_read_errors = splitmix64(&mut s) % 4; // 0..=3
        for _ in 0..n_read_errors {
            let (rel, blocks) = domain.rels[(splitmix64(&mut s) as usize) % domain.rels.len()];
            if blocks == 0 {
                continue;
            }
            let block = splitmix64(&mut s) % blocks;
            let count = 1 + (splitmix64(&mut s) % 2) as u32; // 1..=2
            plan = plan.with_read_error(rel, block, count);
        }
        if splitmix64(&mut s).is_multiple_of(2) {
            let disk = (splitmix64(&mut s) as usize) % domain.n_disks;
            let after = splitmix64(&mut s) % 32;
            let mult = 2.0 + (splitmix64(&mut s) % 4) as f64; // 2..=5×
            plan = plan.with_slowdown(disk, after, mult);
        }
        if domain.n_fragments > 0 && domain.max_slots > 0 {
            let n_worker_faults = splitmix64(&mut s) % 3; // 0..=2
            for _ in 0..n_worker_faults {
                let fragment = (splitmix64(&mut s) as usize) % domain.n_fragments;
                let slot = (splitmix64(&mut s) as usize) % domain.max_slots;
                let after = splitmix64(&mut s) % 8;
                if splitmix64(&mut s).is_multiple_of(2) {
                    plan = plan.with_worker_death(fragment, slot, after);
                } else {
                    let millis = 5 + splitmix64(&mut s) % 20;
                    plan = plan.with_worker_stall(fragment, slot, after, millis);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: RelId = RelId(3);

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert!(!p.take_read_error(R, 0));
        assert_eq!(p.slowdown_multiplier(0, 100), 1.0);
        assert_eq!(p.take_worker_fault(0, 0, 99), None);
        assert_eq!(p.scheduled(), 0);
    }

    #[test]
    fn read_error_fires_exactly_count_times() {
        let p = FaultPlan::new().with_read_error(R, 7, 2);
        assert!(p.take_read_error(R, 7));
        assert!(p.take_read_error(R, 7));
        assert!(!p.take_read_error(R, 7));
        assert!(!p.take_read_error(R, 8), "other blocks unaffected");
        assert_eq!(p.stats().read_errors_fired(), 2);
    }

    #[test]
    fn read_error_count_holds_under_contention() {
        use std::sync::Arc;
        let p = Arc::new(FaultPlan::new().with_read_error(R, 1, 10));
        let hits: usize = (0..4)
            .map(|_| {
                let p = p.clone();
                std::thread::spawn(move || (0..100).filter(|_| p.take_read_error(R, 1)).count())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .sum();
        assert_eq!(hits, 10);
    }

    #[test]
    fn slowdown_starts_at_the_chosen_request_and_compounds() {
        let p = FaultPlan::new().with_slowdown(1, 5, 3.0).with_slowdown(1, 10, 2.0);
        assert_eq!(p.slowdown_multiplier(1, 4), 1.0);
        assert_eq!(p.slowdown_multiplier(1, 5), 3.0);
        assert_eq!(p.slowdown_multiplier(1, 10), 6.0);
        assert_eq!(p.slowdown_multiplier(0, 999), 1.0, "other disks clean");
        assert!(p.stats().slow_requests() >= 2);
    }

    #[test]
    #[should_panic(expected = "slowdown multiplier")]
    fn speedup_multipliers_are_rejected() {
        let _ = FaultPlan::new().with_slowdown(0, 0, 0.5);
    }

    #[test]
    fn worker_fault_fires_once_at_its_trigger_point() {
        let p = FaultPlan::new()
            .with_worker_death(2, 1, 3)
            .with_worker_stall(2, 0, 0, 50)
            .with_worker_panic(2, 2, 1);
        assert_eq!(p.take_worker_fault(2, 1, 2), None, "not yet due");
        assert_eq!(p.take_worker_fault(2, 1, 3), Some(WorkerFaultKind::Death));
        assert_eq!(p.take_worker_fault(2, 1, 4), None, "already taken");
        assert_eq!(p.take_worker_fault(2, 0, 0), Some(WorkerFaultKind::Stall { millis: 50 }));
        assert_eq!(p.take_worker_fault(2, 2, 1), Some(WorkerFaultKind::Panic));
        assert_eq!(p.take_worker_fault(2, 2, 1), None, "already taken");
        assert_eq!(p.stats().deaths_fired(), 1);
        assert_eq!(p.stats().stalls_fired(), 1);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_seed_sensitive() {
        let domain = FaultDomain {
            rels: vec![(RelId(1), 100), (RelId(2), 50)],
            n_disks: 4,
            n_fragments: 3,
            max_slots: 8,
        };
        let a = FaultPlan::seeded(42, &domain);
        let b = FaultPlan::seeded(42, &domain);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same plan");
        // Some nearby seed must give a different plan (debug repr differs).
        let differs = (0..16_u64)
            .any(|s| format!("{:?}", FaultPlan::seeded(s, &domain)) != format!("{a:?}"));
        assert!(differs, "seeds must actually vary the plan");
    }

    #[test]
    fn seeded_plan_on_empty_domain_is_empty() {
        let domain = FaultDomain { rels: vec![], n_disks: 0, n_fragments: 0, max_slots: 0 };
        assert!(FaultPlan::seeded(7, &domain).is_empty());
    }
}

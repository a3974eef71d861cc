//! A page-hashed sharded buffer pool.
//!
//! One [`BufferPool`] behind one mutex makes the pool latch — not the
//! disks — set the scan rate at 8 workers. Here the frames are split into
//! `n_shards` independent shards, each with its own latch, its own LRU
//! clock, and its own hit/miss/eviction counters. A page
//! hashes to exactly one shard, so residency stays unique and per-shard LRU
//! is exact within its slice of the frames; only the *eviction choice* is
//! local rather than global, which for the paper's scan-dominated workloads
//! (no reuse beyond a pass) is indistinguishable from global LRU.
//!
//! `n_shards == 1` degenerates to a single-latch pool with exact global
//! LRU.

use std::sync::{Mutex, MutexGuard, PoisonError};

use xprs_disk::RelId;

use crate::bufpool::{BufferPool, FetchOutcome, PoolExhausted, PoolStats, UnpinError};

/// Fixed-capacity buffer pool split into independently latched shards.
#[derive(Debug)]
pub struct ShardedBufferPool {
    shards: Vec<Mutex<BufferPool>>,
    /// Admission-grant reservation ledger (cold path — latched only by the
    /// master's admission decisions, never by page reads).
    reserve: Mutex<ReserveState>,
}

#[derive(Debug)]
struct ReserveState {
    /// Frames reserved per shard by outstanding grants.
    per_shard: Vec<u64>,
    /// Rotating start shard for remainder distribution, so a stream of
    /// small grants doesn't pile its odd frames onto shard 0.
    cursor: usize,
}

/// A committed shard-capacity reservation: the per-shard frame shares one
/// admission grant holds. Returned by [`ShardedBufferPool::try_reserve`] and
/// handed back verbatim to [`ShardedBufferPool::release`], so release always
/// returns exactly the frames the grant took — the ledger cannot drift.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardReservation {
    shares: Vec<u64>,
}

impl ShardReservation {
    /// Total frames this reservation holds.
    pub fn pages(&self) -> u64 {
        self.shares.iter().sum()
    }
}

/// Recover the guard even if a panicking thread poisoned a shard latch: the
/// pool holds bookkeeping only (no torn page images), so the state is usable
/// and the panic is propagating elsewhere regardless.
fn latch<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ShardedBufferPool {
    /// A pool of `total_pages` frames spread over `n_shards` shards (each
    /// shard gets `ceil(total/n)` frames, so capacity is never rounded to 0).
    ///
    /// # Panics
    /// Panics if `total_pages` or `n_shards` is zero, or if there are fewer
    /// frames than shards.
    pub fn new(total_pages: usize, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        assert!(
            total_pages >= n_shards,
            "pool of {total_pages} frames cannot fill {n_shards} shards"
        );
        let per_shard = total_pages.div_ceil(n_shards);
        ShardedBufferPool {
            shards: (0..n_shards).map(|_| Mutex::new(BufferPool::new(per_shard))).collect(),
            reserve: Mutex::new(ReserveState { per_shard: vec![0; n_shards], cursor: 0 }),
        }
    }

    /// Try to reserve `pages` frames of shard capacity for an admission
    /// grant, spread evenly across the shards (pages hash uniformly, so a
    /// fragment's pin pressure lands on every shard). Fails — committing
    /// nothing — if any shard's outstanding reservations would exceed its
    /// frame count.
    ///
    /// Reservations are *admission accounting*: they bound the aggregate
    /// demand the master admits concurrently, they do not pin frames. The
    /// pin/unpin discipline still governs actual residency, and the bypass
    /// path remains the last-resort safety valve within a grant.
    pub fn try_reserve(&self, pages: u64) -> Option<ShardReservation> {
        let n = self.shards.len();
        let cap = self.shard_capacity() as u64;
        let mut st = latch(&self.reserve);
        let base = pages / n as u64;
        let rem = (pages % n as u64) as usize;
        let mut shares = vec![base; n];
        for i in 0..rem {
            shares[(st.cursor + i) % n] += 1;
        }
        if shares.iter().zip(&st.per_shard).any(|(&s, &r)| r + s > cap) {
            return None;
        }
        for (r, &s) in st.per_shard.iter_mut().zip(&shares) {
            *r += s;
        }
        st.cursor = (st.cursor + rem) % n;
        Some(ShardReservation { shares })
    }

    /// Return a reservation's frames to the shards it took them from.
    ///
    /// # Panics
    /// Panics if `r` did not come from this pool (shard count mismatch or
    /// under-flowing a shard's reserved count) — releasing someone else's
    /// grant is a ledger bug worth failing loudly on.
    pub fn release(&self, r: ShardReservation) {
        if r.shares.is_empty() {
            return;
        }
        let mut st = latch(&self.reserve);
        assert_eq!(r.shares.len(), st.per_shard.len(), "reservation from another pool");
        for (held, &s) in st.per_shard.iter_mut().zip(&r.shares) {
            *held = held.checked_sub(s).expect("reservation released twice");
        }
    }

    /// Frames currently reserved by outstanding grants, summed over shards.
    pub fn reserved(&self) -> u64 {
        latch(&self.reserve).per_shard.iter().sum()
    }

    /// Which shard `(rel, block)` lives on. Deterministic, uniform mix of
    /// both key components so striped scans spread across shards.
    pub fn shard_of(&self, rel: RelId, block: u64) -> usize {
        let h = rel
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(block.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let h = (h ^ (h >> 32)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// One-latch page access: on a **hit** the pin is taken and released in
    /// the same critical section (callers copy what they need out of the
    /// resident image) and `Hit` is returned; on a **miss** the frame stays
    /// pinned for the caller's disk read — release it with
    /// [`ShardedBufferPool::finish_read`].
    pub fn access(&self, rel: RelId, block: u64) -> Result<FetchOutcome, PoolExhausted> {
        let mut shard = latch(&self.shards[self.shard_of(rel, block)]);
        let outcome = shard.fetch(rel, block)?;
        if outcome == FetchOutcome::Hit {
            // Cannot fail: the fetch above pinned the page and the shard
            // latch is still held, so no other thread touched the frame.
            shard.unpin(rel, block).expect("hit page pinned in this critical section");
        }
        Ok(outcome)
    }

    /// Release the pin held since a `Miss` from [`ShardedBufferPool::access`].
    /// A no-op if the page is gone (the miss bypassed an exhausted shard);
    /// an unpin that finds the page resident but unpinned — a double release
    /// under a retry race — surfaces as a typed [`UnpinError`] instead of a
    /// panic on release builds.
    pub fn finish_read(&self, rel: RelId, block: u64) -> Result<(), UnpinError> {
        let mut shard = latch(&self.shards[self.shard_of(rel, block)]);
        if shard.contains(rel, block) {
            shard.unpin(rel, block)
        } else {
            Ok(())
        }
    }

    /// Is the page resident (in its one home shard)?
    pub fn contains(&self, rel: RelId, block: u64) -> bool {
        latch(&self.shards[self.shard_of(rel, block)]).contains(rel, block)
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Frames per shard.
    pub fn shard_capacity(&self) -> usize {
        latch(&self.shards[0]).capacity()
    }

    /// Total frames across shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity() * self.shards.len()
    }

    /// Counters summed over all shards.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            let st = latch(s).stats();
            total.hits += st.hits;
            total.misses += st.misses;
            total.evictions += st.evictions;
            total.bypasses += st.bypasses;
        }
        total
    }

    /// Per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<PoolStats> {
        self.shards.iter().map(|s| latch(s).stats()).collect()
    }

    /// Outstanding pins summed over all shards (zero when no read is
    /// between `access` and `finish_read`).
    pub fn pinned(&self) -> u64 {
        self.shards.iter().map(|s| latch(s).pinned()).sum()
    }

    /// Resident page count per shard, indexed by shard.
    pub fn shard_resident(&self) -> Vec<usize> {
        self.shards.iter().map(|s| latch(s).resident()).collect()
    }

    /// Resident page keys per shard, indexed by shard. For invariant checks
    /// (residency uniqueness across shards), not the hot path.
    pub fn shard_resident_keys(&self) -> Vec<Vec<(RelId, u64)>> {
        self.shards.iter().map(|s| latch(s).resident_keys()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: RelId = RelId(1);

    #[test]
    fn one_shard_behaves_like_the_global_pool() {
        let p = ShardedBufferPool::new(4, 1);
        assert_eq!(p.access(R, 0), Ok(FetchOutcome::Miss));
        p.finish_read(R, 0).unwrap();
        assert_eq!(p.access(R, 0), Ok(FetchOutcome::Hit));
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn pages_route_to_exactly_one_shard() {
        let p = ShardedBufferPool::new(64, 8);
        for b in 0..48u64 {
            p.access(R, b).unwrap();
            p.finish_read(R, b).unwrap();
            let home = p.shard_of(R, b);
            assert!(home < 8);
            // Residency reported only via the home shard.
            assert!(p.contains(R, b) || p.stats().evictions > 0);
        }
    }

    #[test]
    fn stats_sum_over_shards() {
        let p = ShardedBufferPool::new(32, 4);
        for b in 0..16u64 {
            p.access(R, b).unwrap();
            p.finish_read(R, b).unwrap();
        }
        for b in 0..16u64 {
            assert_eq!(p.access(R, b), Ok(FetchOutcome::Hit), "block {b} should be warm");
        }
        let total = p.stats();
        assert_eq!((total.hits, total.misses), (16, 16));
        let by_shard = p.shard_stats();
        assert_eq!(by_shard.iter().map(|s| s.hits).sum::<u64>(), 16);
        assert_eq!(by_shard.iter().map(|s| s.misses).sum::<u64>(), 16);
    }

    #[test]
    fn capacity_is_per_shard_rounded_up() {
        let p = ShardedBufferPool::new(10, 4);
        assert_eq!(p.shard_capacity(), 3);
        assert_eq!(p.capacity(), 12);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn too_many_shards_rejected() {
        ShardedBufferPool::new(4, 8);
    }

    #[test]
    fn reservations_fill_release_and_balance() {
        let p = ShardedBufferPool::new(32, 4); // 8 frames per shard
        let a = p.try_reserve(10).expect("fits");
        assert_eq!(a.pages(), 10);
        assert_eq!(p.reserved(), 10);
        let b = p.try_reserve(22).expect("exactly fills the pool");
        assert_eq!(p.reserved(), 32);
        assert!(p.try_reserve(1).is_none(), "pool fully reserved");
        p.release(a);
        assert_eq!(p.reserved(), 22);
        assert!(p.try_reserve(10).is_some());
        p.release(b);
    }

    #[test]
    fn small_reservations_rotate_across_shards() {
        // 4 shards x 4 frames: sixteen 1-page grants must all fit — the
        // rotating cursor spreads the odd frames instead of piling them on
        // shard 0.
        let p = ShardedBufferPool::new(16, 4);
        let grants: Vec<_> =
            (0..16).map(|i| p.try_reserve(1).unwrap_or_else(|| panic!("grant {i}"))).collect();
        assert_eq!(p.reserved(), 16);
        assert!(p.try_reserve(1).is_none());
        for g in grants {
            p.release(g);
        }
        assert_eq!(p.reserved(), 0);
    }

    #[test]
    fn zero_page_reservation_is_free() {
        let p = ShardedBufferPool::new(8, 2);
        let g = p.try_reserve(0).expect("empty grant always fits");
        assert_eq!(g.pages(), 0);
        assert_eq!(p.reserved(), 0);
        p.release(g);
    }

    #[test]
    fn exhausted_shard_counts_bypasses() {
        // One shard, one frame: hold the only frame pinned (a miss keeps its
        // pin until finish_read) and every other access is a bypass — and
        // must show up in the stats, or hit rates lie under pin pressure.
        let p = ShardedBufferPool::new(1, 1);
        assert_eq!(p.access(R, 0), Ok(FetchOutcome::Miss)); // pin held
        let mut reads = 1u64;
        for b in 1..=5u64 {
            assert_eq!(p.access(R, b), Err(PoolExhausted));
            reads += 1;
        }
        p.finish_read(R, 0).unwrap();
        assert_eq!(p.access(R, 0), Ok(FetchOutcome::Hit));
        reads += 1;
        let s = p.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (1, 1, 5));
        assert_eq!(s.fetches(), reads, "hits + misses + bypasses == reads");
        assert_eq!(p.shard_stats()[0].bypasses, 5);
    }
}

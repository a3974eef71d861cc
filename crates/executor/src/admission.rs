//! The memory-grant ledger of one run: which fragments hold a reservation
//! on the buffer pool, which are parked waiting for one, and the counters
//! the report audits (`granted == released` on every exit path).
//!
//! A started fragment is *admitted* when the pool can reserve the pages it
//! declared it holds ([`xprs_scheduler::TaskProfile::memory`], clamped to
//! the pool); otherwise it is *parked* — Running in the policy's eyes,
//! unstaffed — and retried in park order as completions release capacity.
//! A [`ShardReservation`] has no `Drop`, so this is the only place one is
//! taken or given back.

use std::collections::{HashMap, VecDeque};

use xprs_storage::{ShardReservation, ShardedBufferPool};

/// Cumulative counters of one run's ledger.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GrantTotals {
    pub granted_pages: u64,
    pub released_pages: u64,
    /// Fragments that had to park at least once.
    pub waits: u64,
}

#[derive(Default)]
pub(crate) struct Admission<'p> {
    /// `None` on a machine without a buffer pool, where no fragment has a
    /// demand.
    pool: Option<&'p ShardedBufferPool>,
    held: HashMap<usize, ShardReservation>,
    /// `(gid, demand_pages)` of parked fragments, oldest first.
    parked: VecDeque<(usize, u64)>,
    totals: GrantTotals,
}

impl<'p> Admission<'p> {
    pub fn new(pool: Option<&'p ShardedBufferPool>) -> Self {
        Admission { pool, ..Admission::default() }
    }

    fn try_hold(&mut self, gid: usize, demand_pages: u64) -> bool {
        let Some(grant) = self.pool.and_then(|p| p.try_reserve(demand_pages)) else {
            return false;
        };
        self.totals.granted_pages += grant.pages();
        self.held.insert(gid, grant);
        true
    }

    /// Fragment `gid` was started with `demand_pages` to hold: may it be
    /// staffed now? A zero demand reserves nothing, and a newcomer that
    /// fits is not queued behind parked ones. `false` parks it; it comes
    /// back from [`Admission::retry`]. A lone fragment always fits (its
    /// demand is clamped to the pool), so the queue cannot deadlock.
    pub fn admit(&mut self, gid: usize, demand_pages: u64) -> bool {
        debug_assert!(!self.held.contains_key(&gid) && !self.is_parked(gid));
        if demand_pages == 0 || self.try_hold(gid, demand_pages) {
            return true;
        }
        self.totals.waits += 1;
        self.parked.push_back((gid, demand_pages));
        false
    }

    pub fn is_parked(&self, gid: usize) -> bool {
        self.parked.iter().any(|&(g, _)| g == gid)
    }

    /// Return what `gid` holds, if anything; a second call is a no-op.
    pub fn release(&mut self, gid: usize) {
        if let (Some(grant), Some(pool)) = (self.held.remove(&gid), self.pool) {
            self.totals.released_pages += grant.pages();
            pool.release(grant);
        }
    }

    /// Drop a parked fragment from the queue (it was cancelled while
    /// waiting: it holds nothing and will never be staffed).
    pub fn forget(&mut self, gid: usize) {
        self.parked.retain(|&(g, _)| g != gid);
    }

    /// Admit parked fragments, oldest first, until the head no longer fits;
    /// returns those now holding their reservation, in queue order. A later
    /// small demand never overtakes an earlier large one, so a big build
    /// cannot be starved by the fragments parked behind it.
    pub fn retry(&mut self) -> Vec<usize> {
        let mut admitted = Vec::new();
        while let Some(&(gid, demand_pages)) = self.parked.front() {
            if !self.try_hold(gid, demand_pages) {
                break;
            }
            self.parked.pop_front();
            admitted.push(gid);
        }
        admitted
    }

    /// The run is over or failing: return every reservation and empty the
    /// queue. Load-bearing on error paths — the pool may be a service's,
    /// and would stay shrunk for its lifetime.
    pub fn release_all(&mut self) {
        self.parked.clear();
        let held: Vec<usize> = self.held.keys().copied().collect();
        for gid in held {
            self.release(gid);
        }
    }

    pub fn totals(&self) -> GrantTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What the ledger must look like, kept beside it: pages per holder and
    /// the park order.
    #[derive(Default)]
    struct Model {
        held: HashMap<usize, u64>,
        parked: Vec<(usize, u64)>,
        waits: u64,
    }

    fn check(a: &Admission, m: &Model, pool: &ShardedBufferPool) {
        let t = a.totals();
        let held: u64 = m.held.values().sum();
        assert_eq!(t.granted_pages - t.released_pages, pool.reserved(), "ledger vs pool");
        assert_eq!(pool.reserved(), held, "pool vs the holders' demands");
        assert_eq!(t.waits, m.waits);
        // Same holders, same queue in the same order: nothing parked was
        // overtaken by something parked after it, nothing is in both.
        let mut holders: Vec<_> = a.held.iter().map(|(&g, r)| (g, r.pages())).collect();
        let mut want: Vec<_> = m.held.iter().map(|(&g, &p)| (g, p)).collect();
        holders.sort_unstable();
        want.sort_unstable();
        assert_eq!(holders, want);
        assert_eq!(Vec::from(a.parked.clone()), m.parked);
        assert!(m.parked.iter().all(|(g, _)| !a.held.contains_key(g) && a.is_parked(*g)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_step_of_a_random_sequence_keeps_the_ledger_honest(
            pages in 8usize..64,
            shards in 1usize..5,
            ops in proptest::collection::vec((0u8..8, 0usize..10, 0u64..80), 1..120),
        ) {
            let pool = ShardedBufferPool::new(pages, shards);
            let mut a = Admission::new(Some(&pool));
            let mut m = Model::default();
            for (op, gid, demand) in ops {
                match op {
                    // Weighted towards admit so the pool actually fills.
                    0..=3 => {
                        if m.held.contains_key(&gid) || m.parked.iter().any(|&(g, _)| g == gid) {
                            continue; // the fragment table starts a fragment once
                        }
                        let demand = demand.min(pool.capacity() as u64);
                        if a.admit(gid, demand) {
                            if demand > 0 {
                                m.held.insert(gid, demand);
                            }
                        } else {
                            assert!(pool.reserved() > 0, "a lone fragment must always fit");
                            m.parked.push((gid, demand));
                            m.waits += 1;
                        }
                    }
                    4 => {
                        a.release(gid);
                        a.release(gid);
                        m.held.remove(&gid);
                    }
                    5 => {
                        a.forget(gid);
                        m.parked.retain(|&(g, _)| g != gid);
                    }
                    6 => {
                        let admitted = a.retry();
                        let head: Vec<usize> =
                            m.parked.iter().take(admitted.len()).map(|&(g, _)| g).collect();
                        assert_eq!(admitted, head, "retry admits the head of the queue, in order");
                        m.held.extend(m.parked.drain(..admitted.len()));
                    }
                    _ => {
                        a.release_all();
                        m.held.clear();
                        m.parked.clear();
                    }
                }
                check(&a, &m, &pool);
            }
            a.release_all();
            assert_eq!(pool.reserved(), 0);
            assert_eq!(a.totals().granted_pages, a.totals().released_pages);
            assert!(a.held.is_empty() && a.parked.is_empty());
        }
    }

    #[test]
    fn a_machine_without_a_pool_admits_what_demands_nothing() {
        let mut a = Admission::new(None);
        assert!(a.admit(0, 0));
        a.release(0);
        a.release_all();
        assert_eq!(a.totals(), GrantTotals::default());
    }
}

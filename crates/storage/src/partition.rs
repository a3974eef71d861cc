//! Intra-operation partitioning and the Section 2.4 dynamic-adjustment
//! protocols.
//!
//! **Page partitioning** (sequential scans): with parallelism `n`, worker `i`
//! scans pages `{p | p mod n = i}`. The *max-page* protocol (Figure 5)
//! adjusts a running scan from `n` to `n'` workers: the master collects each
//! worker's current page, computes `maxpage = max_i curpage_i`, and
//! broadcasts `(maxpage, n')`. Every page **up to and including** `maxpage`
//! is still owned under the old assignment; pages **after** `maxpage` are
//! owned under the new one. Old workers finish their old-assignment pages
//! below the boundary, then either continue with their new phase or — if
//! their index falls outside `n'` — retire; new workers start directly after
//! the boundary.
//!
//! We represent the history of assignments as a list of *eras*: era `k`
//! covers a half-open page interval with one `(stride, phase per worker)`
//! assignment. Eras tile the page space and phases tile each era, so every
//! page belongs to exactly one worker — the coverage invariant the property
//! tests in `tests/` hammer on.
//!
//! **Range partitioning** (index scans): workers own intervals of key
//! values. The adjustment protocol (Figure 6) collects the *remaining*
//! interval of every worker (`[c, h]` if the worker was scanning `[l, h]`
//! and stands at `c`), re-splits the union into `n'` balanced chunks, and
//! redistributes; a worker may end up with several disjoint intervals.

use std::collections::VecDeque;

/// Result of a dynamic adjustment: what the master must do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjustInfo {
    /// Worker slots created by this adjustment (to be staffed by newly
    /// available slave backends).
    pub new_slots: Vec<usize>,
    /// Worker slots that will retire once they pass the boundary.
    pub retiring_slots: Vec<usize>,
}

// ---------------------------------------------------------------------------
// Page partitioning
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Era {
    /// First page of the era.
    start: u64,
    /// One past the last page (`u64::MAX` for the open era).
    end: u64,
    stride: u64,
    /// `phases[slot]` is the slot's residue class in this era, if assigned.
    phases: Vec<Option<u64>>,
}

#[derive(Debug, Clone, Default)]
struct PageWorkerState {
    /// Next page at or after which this worker looks for work.
    cursor: u64,
    /// Page most recently handed out (the page "currently being scanned").
    current: Option<u64>,
}

/// Page-partitioned scan state with max-page dynamic adjustment.
#[derive(Debug, Clone)]
pub struct PagePartition {
    n_pages: u64,
    eras: Vec<Era>,
    workers: Vec<PageWorkerState>,
}

/// Smallest `q >= from` with `q % stride == phase`.
fn next_congruent(from: u64, stride: u64, phase: u64) -> u64 {
    debug_assert!(phase < stride);
    let rem = from % stride;
    if rem <= phase {
        from + (phase - rem)
    } else {
        from + (stride - rem) + phase
    }
}

impl PagePartition {
    /// Partition `n_pages` pages among `parallelism` workers (slots
    /// `0..parallelism`), worker `i` owning pages `≡ i (mod parallelism)`.
    pub fn new(n_pages: u64, parallelism: u32) -> Self {
        assert!(parallelism >= 1, "need at least one worker");
        let stride = parallelism as u64;
        PagePartition {
            n_pages,
            eras: vec![Era {
                start: 0,
                end: u64::MAX,
                stride,
                phases: (0..stride).map(Some).collect(),
            }],
            workers: vec![PageWorkerState::default(); parallelism as usize],
        }
    }

    /// Total pages being scanned.
    pub fn n_pages(&self) -> u64 {
        self.n_pages
    }

    /// Number of worker slots ever created (including retired ones).
    pub fn n_slots(&self) -> usize {
        self.workers.len()
    }

    /// Current degree of parallelism (assignments in the open era).
    pub fn parallelism(&self) -> u32 {
        self.eras.last().expect("always one era").stride as u32
    }

    /// Slots assigned work in the open era, in phase order.
    pub fn active_slots(&self) -> Vec<usize> {
        let era = self.eras.last().expect("always one era");
        let mut slots: Vec<(u64, usize)> = era
            .phases
            .iter()
            .enumerate()
            .filter_map(|(slot, ph)| ph.map(|p| (p, slot)))
            .collect();
        slots.sort_unstable();
        slots.into_iter().map(|(_, s)| s).collect()
    }

    /// Hand worker `slot` its next page, or `None` when the slot has no
    /// remaining obligation (done or retired).
    pub fn next_page(&mut self, slot: usize) -> Option<u64> {
        let cursor = self.workers[slot].cursor;
        let mut best: Option<u64> = None;
        for era in &self.eras {
            if era.end <= cursor {
                continue;
            }
            let Some(phase) = era.phases.get(slot).copied().flatten() else {
                continue;
            };
            let from = cursor.max(era.start);
            let q = next_congruent(from, era.stride, phase);
            if q < era.end && q < self.n_pages {
                best = Some(best.map_or(q, |b| b.min(q)));
            }
        }
        if let Some(q) = best {
            self.workers[slot].cursor = q + 1;
            self.workers[slot].current = Some(q);
        }
        best
    }

    /// The max-page adjustment protocol: change the scan's parallelism to
    /// `new_parallelism`. Returns the slots to staff and the slots that will
    /// retire. Pages at or below `maxpage` stay with their old owners; pages
    /// above it follow the new assignment.
    pub fn adjust(&mut self, new_parallelism: u32) -> AdjustInfo {
        assert!(new_parallelism >= 1, "need at least one worker");
        let maxpage = self.workers.iter().filter_map(|w| w.current).max();
        // First page governed by the new assignment.
        let last_start = self.eras.last().expect("always one era").start;
        let boundary = maxpage.map_or(0, |m| m + 1).max(last_start);

        let old_active = self.active_slots();
        let stride = new_parallelism as u64;

        // Keep the lowest-phase survivors, retire the rest (the paper keeps
        // backends 0..n'−1 and releases i ≥ n').
        let survivors: Vec<usize> = old_active.iter().copied().take(stride as usize).collect();
        let retiring_slots: Vec<usize> =
            old_active.iter().copied().skip(stride as usize).collect();
        let mut new_slots = Vec::new();
        let mut assigned = survivors;
        while assigned.len() < stride as usize {
            let slot = self.workers.len();
            self.workers.push(PageWorkerState { cursor: boundary, current: None });
            new_slots.push(slot);
            assigned.push(slot);
        }

        let mut phases = vec![None; self.workers.len()];
        for (phase, slot) in assigned.iter().enumerate() {
            phases[*slot] = Some(phase as u64);
        }

        // Close the open era at the boundary (dropping it entirely if it
        // never covered a page) and open the new one.
        {
            let last = self.eras.last_mut().expect("always one era");
            last.end = boundary;
        }
        if self.eras.last().map(|e| e.start == e.end) == Some(true) {
            self.eras.pop();
        }
        self.eras.push(Era { start: boundary, end: u64::MAX, stride, phases });

        AdjustInfo { new_slots, retiring_slots }
    }
}

// ---------------------------------------------------------------------------
// Range partitioning
// ---------------------------------------------------------------------------

/// An inclusive key interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Smallest key.
    pub lo: i64,
    /// Largest key (inclusive).
    pub hi: i64,
}

impl KeyRange {
    /// Number of keys in the interval.
    pub fn len(&self) -> u64 {
        (self.hi - self.lo + 1) as u64
    }

    /// True if the interval holds no keys (never constructed; for API use).
    pub fn is_empty(&self) -> bool {
        self.hi < self.lo
    }
}

#[derive(Debug, Clone, Default)]
struct RangeWorkerState {
    /// Intervals still to scan, in ascending order; the front interval's
    /// `lo` is the key currently being examined.
    intervals: VecDeque<KeyRange>,
    active: bool,
}

/// Range-partitioned scan state with interval re-partitioning adjustment.
#[derive(Debug, Clone)]
pub struct RangePartition {
    workers: Vec<RangeWorkerState>,
}

impl RangePartition {
    /// Split `[lo, hi]` into `parallelism` balanced contiguous intervals.
    pub fn new(lo: i64, hi: i64, parallelism: u32) -> Self {
        assert!(parallelism >= 1, "need at least one worker");
        assert!(lo <= hi, "empty key range");
        let chunks = split_evenly(&[KeyRange { lo, hi }], parallelism as usize);
        let workers = chunks
            .into_iter()
            .map(|intervals| RangeWorkerState { intervals: intervals.into(), active: true })
            .collect();
        RangePartition { workers }
    }

    /// Total slots ever created.
    pub fn n_slots(&self) -> usize {
        self.workers.len()
    }

    /// Currently active slots.
    pub fn active_slots(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.active)
            .map(|(s, _)| s)
            .collect()
    }

    /// The intervals worker `slot` still owns (front first).
    pub fn remaining(&self, slot: usize) -> Vec<KeyRange> {
        self.workers[slot].intervals.iter().copied().collect()
    }

    /// Hand worker `slot` its next key, or `None` when it has nothing left.
    pub fn next_key(&mut self, slot: usize) -> Option<i64> {
        let w = &mut self.workers[slot];
        let front = w.intervals.front_mut()?;
        let key = front.lo;
        if front.lo == front.hi {
            w.intervals.pop_front();
        } else {
            front.lo += 1;
        }
        Some(key)
    }

    /// The Figure 6 protocol: collect every worker's remaining intervals,
    /// re-split the union into `new_parallelism` balanced chunks and
    /// redistribute. A worker may receive several disjoint intervals.
    pub fn adjust(&mut self, new_parallelism: u32) -> AdjustInfo {
        assert!(new_parallelism >= 1, "need at least one worker");
        // Gather and sort all remaining work.
        let mut remaining: Vec<KeyRange> = Vec::new();
        for w in &mut self.workers {
            remaining.extend(w.intervals.drain(..));
        }
        remaining.sort_by_key(|r| r.lo);

        let old_active = self.active_slots();
        let survivors: Vec<usize> =
            old_active.iter().copied().take(new_parallelism as usize).collect();
        let retiring: Vec<usize> =
            old_active.iter().copied().skip(new_parallelism as usize).collect();
        for &s in &retiring {
            self.workers[s].active = false;
        }
        let mut new_slots = Vec::new();
        let mut assigned = survivors;
        while assigned.len() < new_parallelism as usize {
            let slot = self.workers.len();
            self.workers.push(RangeWorkerState { intervals: VecDeque::new(), active: true });
            new_slots.push(slot);
            assigned.push(slot);
        }

        let chunks = split_evenly(&remaining, assigned.len());
        for (slot, chunk) in assigned.iter().zip(chunks) {
            self.workers[*slot].intervals = chunk.into();
        }

        AdjustInfo { new_slots, retiring_slots: retiring }
    }
}

/// Split a sorted list of disjoint intervals into `n` chunks whose key
/// counts differ by at most one, preserving order.
fn split_evenly(intervals: &[KeyRange], n: usize) -> Vec<Vec<KeyRange>> {
    assert!(n >= 1);
    let total: u64 = intervals.iter().map(KeyRange::len).sum();
    let mut out: Vec<Vec<KeyRange>> = vec![Vec::new(); n];
    let mut iter = intervals.iter().copied();
    let mut cur: Option<KeyRange> = iter.next();
    for (k, chunk) in out.iter_mut().enumerate() {
        // Keys this chunk should take: distribute the remainder first.
        let base = total / n as u64;
        let extra = u64::from((total % n as u64) > k as u64);
        let mut want = base + extra;
        while want > 0 {
            let Some(r) = cur else { break };
            let take = want.min(r.len());
            chunk.push(KeyRange { lo: r.lo, hi: r.lo + take as i64 - 1 });
            if take == r.len() {
                cur = iter.next();
            } else {
                cur = Some(KeyRange { lo: r.lo + take as i64, hi: r.hi });
            }
            want -= take;
        }
    }
    debug_assert!(cur.is_none(), "split_evenly left keys unassigned");
    out
}

// ---------------------------------------------------------------------------
// Morsels
// ---------------------------------------------------------------------------

/// A fixed-size contiguous range of work units — heap pages for a
/// sequential scan, key offsets for an index scan or key-domain walk. The
/// morsel is the grain of the work-stealing execution path: a worker claims
/// a whole morsel, then claims its units one by one on a private atomic,
/// and idle workers steal *whole pending morsels* from victims' deques.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First unit (inclusive).
    pub start: u64,
    /// One past the last unit (exclusive).
    pub end: u64,
}

impl Morsel {
    /// Units covered.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Does the morsel cover no units?
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Decompose `[0, total_units)` into fixed-size morsels of `morsel_units`
/// each; the final morsel may be short. `morsel_units` is clamped to ≥ 1.
/// Morsels tile the unit space exactly: disjoint, in order, covering every
/// unit once.
pub fn morselize(total_units: u64, morsel_units: u64) -> Vec<Morsel> {
    let grain = morsel_units.max(1);
    let mut out = Vec::with_capacity(total_units.div_ceil(grain) as usize);
    let mut start = 0;
    while start < total_units {
        let end = (start + grain).min(total_units);
        out.push(Morsel { start, end });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn morselize_tiles_the_unit_space() {
        for total in [0u64, 1, 7, 16, 17, 100] {
            for grain in [0u64, 1, 4, 16, 1000] {
                let morsels = morselize(total, grain);
                let mut next = 0;
                for m in &morsels {
                    assert_eq!(m.start, next, "gap or overlap at {next}");
                    assert!(!m.is_empty(), "empty morsel in {morsels:?}");
                    assert!(m.len() <= grain.max(1));
                    next = m.end;
                }
                assert_eq!(next, total, "units uncovered ({total}, {grain})");
            }
        }
    }

    #[test]
    fn morselize_zero_units_is_empty() {
        assert!(morselize(0, 8).is_empty());
    }

    #[test]
    fn next_congruent_arithmetic() {
        assert_eq!(next_congruent(0, 4, 0), 0);
        assert_eq!(next_congruent(1, 4, 0), 4);
        assert_eq!(next_congruent(5, 4, 3), 7);
        assert_eq!(next_congruent(7, 4, 3), 7);
        assert_eq!(next_congruent(8, 4, 3), 11);
    }

    /// Drain a partition round-robin, recording who scanned what.
    fn drain(p: &mut PagePartition) -> HashMap<u64, usize> {
        let mut seen = HashMap::new();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for slot in 0..p.n_slots() {
                if let Some(page) = p.next_page(slot) {
                    assert!(seen.insert(page, slot).is_none(), "page {page} scanned twice");
                    progressed = true;
                }
            }
        }
        seen
    }

    #[test]
    fn static_page_partition_covers_all_pages() {
        let mut p = PagePartition::new(100, 4);
        let seen = drain(&mut p);
        assert_eq!(seen.len(), 100);
        for (page, slot) in &seen {
            assert_eq!(*slot as u64, page % 4, "worker owns its residue class");
        }
    }

    #[test]
    fn grow_adjustment_adds_workers_after_maxpage() {
        let mut p = PagePartition::new(1000, 2);
        // Let worker 0 scan 0,2,4 and worker 1 scan 1,3 — maxpage = 4.
        for _ in 0..3 {
            p.next_page(0);
        }
        for _ in 0..2 {
            p.next_page(1);
        }
        let info = p.adjust(4);
        assert_eq!(info.new_slots, vec![2, 3]);
        assert!(info.retiring_slots.is_empty());
        assert_eq!(p.parallelism(), 4);
        // New workers only see pages after the boundary (maxpage = 4).
        let first_new = p.next_page(2).unwrap();
        assert!(first_new > 4, "new worker started at page {first_new}");
        // Everything is still covered exactly once: 5 pages pre-scanned plus
        // the probe above plus whatever the drain sees.
        let seen = drain(&mut p);
        assert_eq!(seen.len() + 5 + 1, 1000);
    }

    #[test]
    fn shrink_adjustment_retires_highest_phase_workers() {
        let mut p = PagePartition::new(200, 4);
        for slot in 0..4 {
            p.next_page(slot);
        }
        let info = p.adjust(2);
        assert!(info.new_slots.is_empty());
        assert_eq!(info.retiring_slots, vec![2, 3]);
        // Retiring workers still finish their old pages below the boundary,
        // then get None. (Here they already scanned their one page ≤ maxpage.)
        let seen = drain(&mut p);
        // All pages covered once across the whole run.
        assert_eq!(seen.len() + 4, 200);
        // After draining, retired slots yield nothing.
        assert_eq!(p.next_page(2), None);
    }

    #[test]
    fn adjust_before_any_scanning_replaces_assignment_wholesale() {
        let mut p = PagePartition::new(40, 2);
        let info = p.adjust(4);
        assert_eq!(info.new_slots.len(), 2);
        let seen = drain(&mut p);
        assert_eq!(seen.len(), 40);
        // The fresh assignment owns everything from page 0.
        for (page, slot) in &seen {
            let phase = p.eras.last().unwrap().phases[*slot].unwrap();
            assert_eq!(page % 4, phase);
        }
    }

    #[test]
    fn repeated_adjustments_still_cover_every_page_once() {
        let mut p = PagePartition::new(500, 3);
        let mut seen = HashMap::new();
        let mut step = 0u64;
        let plan = [(60, 5u32), (140, 2), (300, 6), (301, 1)];
        let mut plan_idx = 0;
        loop {
            let mut progressed = false;
            for slot in 0..p.n_slots() {
                if let Some(page) = p.next_page(slot) {
                    assert!(seen.insert(page, slot).is_none(), "page {page} scanned twice");
                    progressed = true;
                    step += 1;
                    if plan_idx < plan.len() && step == plan[plan_idx].0 {
                        p.adjust(plan[plan_idx].1);
                        plan_idx += 1;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(seen.len(), 500, "every page exactly once across adjustments");
        assert_eq!(plan_idx, plan.len(), "all adjustments exercised");
    }

    #[test]
    fn range_partition_covers_key_space() {
        let mut p = RangePartition::new(0, 99, 4);
        let mut seen = std::collections::HashSet::new();
        for slot in 0..4 {
            while let Some(k) = p.next_key(slot) {
                assert!(seen.insert(k), "key {k} scanned twice");
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn range_chunks_are_balanced() {
        let p = RangePartition::new(0, 102, 4); // 103 keys over 4 workers
        let sizes: Vec<u64> = (0..4)
            .map(|s| p.remaining(s).iter().map(KeyRange::len).sum())
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), 103);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn range_adjustment_redistributes_remainder() {
        let mut p = RangePartition::new(0, 99, 2);
        // Worker 0 advances 30 keys into [0,49]; worker 1 stays at 50.
        for _ in 0..30 {
            p.next_key(0);
        }
        let info = p.adjust(4);
        assert_eq!(info.new_slots.len(), 2);
        // 70 keys remain, split 18/18/17/17.
        let sizes: Vec<u64> = (0..4)
            .map(|s| p.remaining(s).iter().map(KeyRange::len).sum())
            .collect();
        assert_eq!(sizes.iter().sum::<u64>(), 70);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        // Coverage: the remaining keys are exactly 30..100.
        let mut seen = std::collections::HashSet::new();
        for slot in 0..p.n_slots() {
            while let Some(k) = p.next_key(slot) {
                assert!(seen.insert(k));
            }
        }
        assert_eq!(seen.len(), 70);
        assert!(seen.contains(&30) && seen.contains(&99) && !seen.contains(&29));
    }

    #[test]
    fn range_shrink_retires_and_reassigns() {
        let mut p = RangePartition::new(0, 999, 4);
        for slot in 0..4 {
            for _ in 0..100 {
                p.next_key(slot);
            }
        }
        let info = p.adjust(1);
        assert_eq!(info.retiring_slots.len(), 3);
        // Retired slots have nothing left.
        for &s in &info.retiring_slots {
            assert_eq!(p.next_key(s), None);
        }
        // The survivor owns all 600 remaining keys, possibly as several
        // disjoint intervals ("more than one intervals to scan").
        let survivor = p.active_slots()[0];
        let total: u64 = p.remaining(survivor).iter().map(KeyRange::len).sum();
        assert_eq!(total, 600);
        assert!(p.remaining(survivor).len() > 1);
    }

    #[test]
    fn split_evenly_handles_multiple_intervals() {
        let parts = split_evenly(
            &[KeyRange { lo: 0, hi: 9 }, KeyRange { lo: 100, hi: 109 }],
            3,
        );
        let sizes: Vec<u64> = parts.iter().map(|c| c.iter().map(KeyRange::len).sum()).collect();
        assert_eq!(sizes, vec![7, 7, 6]);
    }
}

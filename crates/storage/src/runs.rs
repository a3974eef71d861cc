//! Sorted-run utilities for parallel join materialization.
//!
//! A fragment's workers emit **locally sorted runs** (each worker sorts its
//! output batch before flushing it into the shared sink), so the master
//! never has to re-sort the whole fragment output: it performs a **stable
//! k-way merge** of the runs — O(n log k) instead of O(n log n), and the
//! merge itself can be farmed out to the worker pool by first splitting the
//! runs at key boundaries ([`split_runs_stats`]) into disjoint, independently
//! mergeable key sub-ranges.
//!
//! On top of the merged (key-sorted) rows sits a [`CsrIndex`]: sorted unique
//! keys and a CSR-style offsets array, built by one counting pass. A probe
//! is a binary search (or a cursor-advancing seek for merge joins) returning
//! a row range — **zero heap allocation per probe**, unlike the
//! `HashMap<key, Vec<pos>>` it replaces.
//!
//! Everything here is generic over the row payload: a row is `(i32, T)`
//! where the `i32` is the join key.

use std::ops::Range;

/// Is `run` sorted by key (ascending, duplicates allowed)?
pub fn is_sorted_run<T>(run: &[(i32, T)]) -> bool {
    run.windows(2).all(|w| w[0].0 <= w[1].0)
}

/// Stable k-way merge of key-sorted runs into one key-sorted vector.
///
/// Ties are broken by run index, then by position within the run. This
/// makes the merge *the* merge step of a stable merge sort: splitting a
/// vector into consecutive chunks, stably sorting each chunk, and merging
/// the chunks with this function reproduces a stable sort of the whole
/// vector element for element. The executor's parity tests lean on exactly
/// that property.
///
/// Implemented as a bottom-up pairwise merge — adjacent runs merge
/// two-at-a-time, level by level, preferring the left (earlier) run on key
/// ties. Same O(n log k) comparison bound as a tournament-heap merge, but
/// the inner loop is a branch-light two-pointer walk over contiguous
/// memory, which in practice beats both a heap (whose per-element
/// sift costs dominate at large k — worker sinks produce one small run per
/// flush batch, so k is in the hundreds) and a full re-sort of the
/// concatenation.
///
/// Rows are moved, never cloned.
pub fn merge_runs<T>(mut runs: Vec<Vec<(i32, T)>>) -> Vec<(i32, T)> {
    debug_assert!(runs.iter().all(|r| is_sorted_run(r)), "merge_runs fed an unsorted run");
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge_two(a, b)),
                None => next.push(a),
            }
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Stable two-way merge, left run first among equal keys.
fn merge_two<T>(a: Vec<(i32, T)>, b: Vec<(i32, T)>) -> Vec<(i32, T)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ai = a.into_iter().peekable();
    let mut bi = b.into_iter().peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(&(ka, _)), Some(&(kb, _))) => {
                let src = if ka <= kb { &mut ai } else { &mut bi };
                out.push(src.next().expect("peeked row"));
            }
            (Some(_), None) => {
                out.extend(ai);
                return out;
            }
            (None, _) => {
                out.extend(bi);
                return out;
            }
        }
    }
}

/// What [`split_runs_stats`] did to the key space: which heavy-hitter keys
/// were carved across groups, and how many rows each emitted group holds
/// (in group order; trivially empty interval groups are dropped).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitStats {
    /// Keys detected as heavy hitters and carved into run-sub-range chunks,
    /// in ascending key order.
    pub hot_keys: Vec<i32>,
    /// Rows per emitted group, aligned with the returned groups.
    pub group_rows: Vec<usize>,
}

/// One independently mergeable group of key-sorted runs, as produced by
/// [`split_runs_stats`].
pub type RunGroup<T> = Vec<Vec<(i32, T)>>;

/// Split key-sorted runs into independently mergeable groups, returning the
/// groups plus [`SplitStats`].
///
/// **Boundary selection** is a weighted key sample: sample positions are
/// spread evenly over the *concatenation* of the runs, so a run contributes
/// samples in proportion to its length and every sample stands for roughly
/// `total / samples` rows — quantiles of the sample approximate quantiles
/// of the merged output regardless of how unevenly the rows are spread
/// across runs. Boundaries are applied with binary search
/// (`partition_point`) and a strict `<` cut, so an interval group keeps
/// every run (possibly empty) in the original run order.
///
/// **Heavy hitters**: any key holding strictly more than an even `1/ways`
/// share of the sample mass gets hard cut points at `k` and `k + 1`,
/// isolating it in a single-key group. A single-key group whose *actual*
/// row count exceeds the even share is then carved into
/// `⌊rows · ways / total⌋` (clamped to `[1, ways]`) run-sub-range chunks:
/// the group's rows are flattened in (run index, position) order — exactly
/// the order the stable merge would emit them, since every row bears the
/// same key — and cut into near-equal consecutive chunks, each emitted as
/// its own one-run group. A hot key therefore no longer serializes the
/// merge, and because a one-run group *is* its own merge, the concatenation
/// of the groups' [`merge_runs`] outputs still equals `merge_runs` of the
/// original runs byte for byte, tie-breaks included.
///
/// Consequences for callers: consecutive groups cover non-decreasing key
/// ranges but may *share* one (hot) key at the seam; the group count can
/// exceed `ways` when hot keys are carved; trivially empty groups are
/// dropped. Rows are moved via `split_off`, never cloned.
pub fn split_runs_stats<T>(
    runs: Vec<Vec<(i32, T)>>,
    ways: usize,
) -> (Vec<RunGroup<T>>, SplitStats) {
    let total: usize = runs.iter().map(Vec::len).sum();
    if ways <= 1 || total == 0 {
        let stats = SplitStats { hot_keys: Vec::new(), group_rows: vec![total] };
        return (vec![runs], stats);
    }
    // Weighted sample: probe positions evenly spaced over the concatenated
    // rows. Positions ascend, so one cumulative cursor walks the runs once.
    let n_samples = (ways * 16).clamp(1, total);
    let mut samples: Vec<i32> = Vec::with_capacity(n_samples);
    {
        let mut run_idx = 0usize;
        let mut cum = 0usize; // rows preceding runs[run_idx]
        for j in 0..n_samples {
            let pos = j * total / n_samples;
            while pos >= cum + runs[run_idx].len() {
                cum += runs[run_idx].len();
                run_idx += 1;
            }
            samples.push(runs[run_idx][pos - cum].0);
        }
    }
    samples.sort_unstable();
    // Heavy hitters by sample mass: strictly more than an even 1/ways share.
    let mut hot_candidates: Vec<i32> = Vec::new();
    let mut i = 0;
    while i < samples.len() {
        let mut j = i + 1;
        while j < samples.len() && samples[j] == samples[i] {
            j += 1;
        }
        if (j - i) * ways > samples.len() {
            hot_candidates.push(samples[i]);
        }
        i = j;
    }
    let mut bounds: Vec<i32> =
        (1..ways).map(|i| samples[i * samples.len() / ways]).collect();
    // Hard cuts isolate each hot candidate in its own single-key group.
    for &h in &hot_candidates {
        bounds.push(h);
        if let Some(above) = h.checked_add(1) {
            bounds.push(above);
        }
    }
    bounds.sort_unstable();
    bounds.dedup();

    // Split from the highest bound down: `split_off` copies only the tail
    // it removes, so taking groups back-to-front moves every row at most
    // once (and the lowest group never moves at all).
    let mut groups_rev: Vec<Vec<Vec<(i32, T)>>> = Vec::with_capacity(bounds.len() + 1);
    let mut rest = runs;
    for &b in bounds.iter().rev() {
        // Rows with key >= b split off into this group; `rest` keeps the
        // head. Equal keys always stay together (strict `<` cut point).
        let group: Vec<Vec<(i32, T)>> = rest
            .iter_mut()
            .map(|run| run.split_off(run.partition_point(|&(k, _)| k < b)))
            .collect();
        groups_rev.push(group);
    }
    groups_rev.push(rest);
    groups_rev.reverse();

    // Carve pass: a single-key group heavier than the even share splits
    // into run-sub-range chunks (see the function docs for why the
    // concatenation stays byte-identical).
    let mut out: Vec<Vec<Vec<(i32, T)>>> = Vec::with_capacity(groups_rev.len());
    let mut stats = SplitStats::default();
    for group in groups_rev {
        let rows: usize = group.iter().map(Vec::len).sum();
        if rows == 0 {
            continue;
        }
        let lo = group.iter().filter_map(|r| r.first()).map(|&(k, _)| k).min();
        let hi = group.iter().filter_map(|r| r.last()).map(|&(k, _)| k).max();
        let parts = (rows * ways / total).min(ways).min(rows);
        if lo == hi && parts >= 2 {
            stats.hot_keys.push(lo.expect("non-empty group has a first key"));
            let mut flat = Vec::with_capacity(rows);
            for run in group {
                flat.extend(run);
            }
            let (base, extra) = (rows / parts, rows % parts);
            let mut it = flat.into_iter();
            for c in 0..parts {
                let chunk: Vec<(i32, T)> =
                    it.by_ref().take(base + usize::from(c < extra)).collect();
                stats.group_rows.push(chunk.len());
                out.push(vec![chunk]);
            }
        } else {
            stats.group_rows.push(rows);
            out.push(group);
        }
    }
    if out.is_empty() {
        // total > 0 guarantees at least one non-empty group; keep the
        // invariant explicit for the degenerate ways where it is not.
        stats.group_rows.push(0);
        out.push(Vec::new());
    }
    (out, stats)
}

/// A CSR-style (compressed sparse row) index over key-sorted rows: sorted
/// unique `keys` and an `offsets` array one longer than `keys` — the rows
/// bearing `keys[i]` are the contiguous range `offsets[i]..offsets[i+1]`.
///
/// Built by a single counting pass over already-sorted rows; probing is a
/// binary search ([`CsrIndex::lookup`]) or a monotone cursor seek
/// ([`CsrIndex::seek`]) returning a row range — no heap allocation per
/// probe, in contrast to the hash-map-of-vectors it replaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsrIndex {
    keys: Vec<i32>,
    offsets: Vec<u32>,
}

impl CsrIndex {
    /// Build from key-sorted rows in one counting pass.
    ///
    /// # Panics
    /// Panics (debug) if `rows` is not key-sorted, or if it holds more than
    /// `u32::MAX` rows.
    pub fn from_sorted<T>(rows: &[(i32, T)]) -> Self {
        debug_assert!(is_sorted_run(rows), "CSR build over unsorted rows");
        assert!(rows.len() <= u32::MAX as usize, "CSR index limited to u32 positions");
        let mut keys = Vec::new();
        let mut offsets = Vec::new();
        for (i, &(k, _)) in rows.iter().enumerate() {
            if keys.last() != Some(&k) {
                keys.push(k);
                offsets.push(i as u32); // start of this key's group
            }
        }
        offsets.push(rows.len() as u32); // end sentinel
        CsrIndex { keys, offsets }
    }

    /// The sorted unique keys.
    pub fn keys(&self) -> &[i32] {
        &self.keys
    }

    /// The rows bearing `key` (empty if absent): a binary search, zero
    /// allocation.
    pub fn lookup(&self, key: i32) -> Range<usize> {
        let i = self.keys.partition_point(|&k| k < key);
        self.group(i, key)
    }

    /// Cursor-based lookup for merge joins: `cursor` is an index into the
    /// unique-key array that only moves forward while probe keys ascend
    /// (amortized O(1) per probe over a sorted probe stream). A probe key
    /// *below* the cursor — possible when a worker's key range is
    /// re-partitioned mid-run — falls back to a binary re-seek, so the
    /// result is always exactly [`CsrIndex::lookup`]'s.
    pub fn seek(&self, key: i32, cursor: &mut usize) -> Range<usize> {
        let n = self.keys.len();
        let mut i = (*cursor).min(n);
        if i > 0 && self.keys[i - 1] >= key {
            // The cursor overshot this probe (key stream regressed).
            i = self.keys.partition_point(|&k| k < key);
        } else {
            while i < n && self.keys[i] < key {
                i += 1;
            }
        }
        *cursor = i;
        self.group(i, key)
    }

    fn group(&self, i: usize, key: i32) -> Range<usize> {
        if i < self.keys.len() && self.keys[i] == key {
            self.offsets[i] as usize..self.offsets[i + 1] as usize
        } else {
            0..0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed(keys: &[i32]) -> Vec<(i32, usize)> {
        keys.iter().enumerate().map(|(i, &k)| (k, i)).collect()
    }

    #[test]
    fn merge_equals_stable_sort_of_concatenation() {
        let original = keyed(&[5, 1, 5, -3, 2, 2, 5, 0, -3, 7, 1, 1]);
        for chunk in [1usize, 2, 3, 5, 12, 20] {
            let mut runs: Vec<Vec<(i32, usize)>> =
                original.chunks(chunk).map(|c| c.to_vec()).collect();
            for r in &mut runs {
                r.sort_by_key(|&(k, _)| k); // stable
            }
            let merged = merge_runs(runs);
            let mut want = original.clone();
            want.sort_by_key(|&(k, _)| k); // stable
            assert_eq!(merged, want, "chunk size {chunk}");
        }
    }

    #[test]
    fn merge_handles_empty_and_single_runs() {
        assert!(merge_runs::<u8>(vec![]).is_empty());
        assert!(merge_runs::<u8>(vec![vec![], vec![]]).is_empty());
        let one = vec![(1, 9u8), (4, 2)];
        assert_eq!(merge_runs(vec![vec![], one.clone(), vec![]]), one);
    }

    #[test]
    fn split_then_merge_equals_direct_merge() {
        let original = keyed(&[9, 3, 3, 8, 1, 1, 1, 6, 2, 9, 9, 0, 5, 4, 4, 7]);
        let mk = |chunk: usize| -> Vec<Vec<(i32, usize)>> {
            let mut runs: Vec<Vec<(i32, usize)>> =
                original.chunks(chunk).map(|c| c.to_vec()).collect();
            for r in &mut runs {
                r.sort_by_key(|&(k, _)| k);
            }
            runs
        };
        let want = merge_runs(mk(3));
        for ways in [1usize, 2, 3, 4, 8, 32] {
            let (groups, stats) = split_runs_stats(mk(3), ways);
            assert_eq!(
                stats.group_rows.iter().sum::<usize>(),
                want.len(),
                "stats must account for every row (ways {ways})"
            );
            let mut got = Vec::new();
            let mut last_hi: Option<i32> = None;
            for g in groups {
                let m = merge_runs(g);
                if let (Some(hi), Some(&(lo, _))) = (last_hi, m.first()) {
                    // Non-decreasing: a carved hot key may straddle a seam.
                    assert!(lo >= hi, "groups must cover non-decreasing key ranges");
                }
                last_hi = m.last().map(|&(k, _)| k).or(last_hi);
                got.extend(m);
            }
            assert_eq!(got, want, "ways {ways}");
        }
    }

    #[test]
    fn degenerate_all_equal_keys_fan_out_across_ways() {
        // All rows share one key. The seed serialized this case (one
        // non-trivial group = one merge worker); post heavy-hitter carving
        // the key must fan out across `ways` run-sub-range chunks whose
        // concatenation is byte-identical to merging the original runs.
        let runs = vec![vec![(7, 0), (7, 1)], vec![(7, 2)], vec![(7, 3), (7, 4)]];
        let want = merge_runs(runs.clone());
        let ways = 4;
        let (groups, stats) = split_runs_stats(runs, ways);
        assert_eq!(stats.hot_keys, vec![7], "the lone key must be detected hot");
        assert_eq!(groups.len(), ways, "hot key must fan out across `ways` groups");
        assert!(groups.iter().all(|g| g.iter().map(Vec::len).sum::<usize>() > 0));
        let got: Vec<(i32, i32)> = groups.into_iter().flat_map(merge_runs).collect();
        assert_eq!(got, want, "carved output must be byte-identical");
    }

    #[test]
    fn weighted_sampling_balances_one_long_run_against_many_short() {
        // One long uniform run plus many 4-row runs clustered in a narrow
        // key band. Per-run equal sampling (the seed: up to `ways * 8`
        // samples from every run regardless of length) let the short runs
        // dominate the sample, drove most boundaries into their narrow
        // band, and left one group with nearly all of the long run.
        // Length-weighted sampling must keep every way within 2x of ideal.
        let long: Vec<(i32, usize)> = (0..8192).map(|i| (i as i32, i)).collect();
        let mut runs = vec![long];
        for s in 0..64usize {
            let key = (s % 8) as i32;
            runs.push((0..4).map(|j| (key, 10_000 + s * 4 + j)).collect());
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let ways = 8;
        let ideal = total / ways;
        let want = merge_runs(runs.clone());
        let (groups, stats) = split_runs_stats(runs, ways);
        for (g, &rows) in groups.iter().zip(&stats.group_rows) {
            assert_eq!(g.iter().map(Vec::len).sum::<usize>(), rows);
            assert!(
                rows <= 2 * ideal,
                "way holds {rows} rows, over 2x the ideal {ideal}"
            );
        }
        assert!(
            stats.group_rows.len() >= ways / 2,
            "expected a real fan-out, got {} groups",
            stats.group_rows.len()
        );
        let got: Vec<(i32, usize)> = groups.into_iter().flat_map(merge_runs).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn hot_key_is_carved_into_balanced_run_subranges() {
        // Four runs, each: 50 rows of hot key 5, then 50 distinct tail keys.
        // Key 5 holds 50% of the mass — far over the 1/ways sample share —
        // so it must be detected, isolated, and carved into ~50%/25% = 2
        // chunks, while the output stays byte-identical.
        let runs: Vec<Vec<(i32, usize)>> = (0..4usize)
            .map(|r| {
                let mut run: Vec<(i32, usize)> =
                    (0..50).map(|j| (5, r * 100 + j)).collect();
                run.extend((0..50).map(|j| (10 + j as i32, r * 100 + 50 + j)));
                run
            })
            .collect();
        let total: usize = runs.iter().map(Vec::len).sum();
        let ways = 4;
        let want = merge_runs(runs.clone());
        let (groups, stats) = split_runs_stats(runs, ways);
        assert_eq!(stats.hot_keys, vec![5]);
        let hot_groups = groups
            .iter()
            .filter(|g| g.iter().any(|run| run.iter().any(|&(k, _)| k == 5)))
            .count();
        assert!(hot_groups >= 2, "hot key must span at least two groups");
        let ideal = total / ways;
        assert!(stats.group_rows.iter().all(|&r| r <= 2 * ideal));
        let got: Vec<(i32, usize)> = groups.into_iter().flat_map(merge_runs).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn split_stats_degenerate_ways() {
        let runs = vec![vec![(1, 0usize), (2, 1)], vec![(1, 2)]];
        for ways in [0usize, 1] {
            let (groups, stats) = split_runs_stats(runs.clone(), ways);
            assert_eq!(groups.len(), 1);
            assert!(stats.hot_keys.is_empty());
            assert_eq!(stats.group_rows, vec![3]);
        }
        let (groups, stats) = split_runs_stats(Vec::<Vec<(i32, u8)>>::new(), 4);
        assert_eq!(groups.len(), 1);
        assert_eq!(stats.group_rows, vec![0]);
    }

    #[test]
    fn csr_build_and_lookup() {
        let rows = vec![(-4, 'a'), (-4, 'b'), (0, 'c'), (3, 'd'), (3, 'e'), (3, 'f'), (9, 'g')];
        let idx = CsrIndex::from_sorted(&rows);
        assert_eq!(idx.keys().len(), 4);
        assert_eq!(idx.keys(), &[-4, 0, 3, 9]);
        assert_eq!(idx.lookup(-4), 0..2);
        assert_eq!(idx.lookup(0), 2..3);
        assert_eq!(idx.lookup(3), 3..6);
        assert_eq!(idx.lookup(9), 6..7);
        assert!(idx.lookup(1).is_empty());
        assert!(idx.lookup(-100).is_empty());
        assert!(idx.lookup(100).is_empty());
    }

    #[test]
    fn csr_empty() {
        let idx = CsrIndex::from_sorted::<u8>(&[]);
        assert!(idx.keys().is_empty());
        assert!(idx.lookup(0).is_empty());
        let mut cur = 0;
        assert!(idx.seek(0, &mut cur).is_empty());
    }

    #[test]
    fn csr_seek_matches_lookup_on_any_probe_order() {
        let rows = vec![(1, ()), (1, ()), (2, ()), (5, ()), (5, ()), (8, ())];
        let idx = CsrIndex::from_sorted(&rows);
        // Ascending, repeated, and regressing probes all agree with lookup.
        let probes = [0, 1, 1, 2, 3, 5, 8, 9, 5, 1, 8, -2, 2];
        let mut cur = 0usize;
        for &p in &probes {
            assert_eq!(idx.seek(p, &mut cur), idx.lookup(p), "probe {p}");
        }
    }
}

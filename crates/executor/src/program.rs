//! Materialized fragment outputs: what a producer fragment leaves in shared
//! memory for the pipeline programs that read it.
//!
//! The programs themselves — a partitioned driver plus probe/merge/nest
//! operators — are cut from the plan once, by the optimizer's
//! [`decompose`](xprs_optimizer::fragment::decompose), and carried on each
//! [`Fragment`](xprs_optimizer::Fragment); the executor runs them as given.

use std::ops::Range;

use xprs_storage::runs::{merge_runs, CsrIndex};
use xprs_storage::Tuple;

/// A materialized fragment output: rows sorted by key plus a CSR key index
/// (sorted unique keys + offsets, built by one counting pass over the
/// already-sorted rows). A probe is a binary search (or cursor seek) plus a
/// slice borrow, with zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct Materialized {
    /// `(key, tuple)` rows in ascending key order.
    pub rows: Vec<(i32, Tuple)>,
    /// key → its range of `rows`.
    index: CsrIndex,
}

impl Materialized {
    /// Build from rows already sorted by key: one counting pass erects the
    /// CSR index, no re-sort, no per-key allocation.
    pub fn from_sorted_rows(rows: Vec<(i32, Tuple)>) -> Self {
        let index = CsrIndex::from_sorted(&rows);
        Materialized { rows, index }
    }

    /// Build from locally sorted worker runs by stable k-way merge
    /// (O(n log k)) plus the CSR counting pass. Equal keys keep run order,
    /// so merging consecutive stably-sorted chunks of a vector reproduces
    /// a stable sort of the whole vector exactly.
    pub fn from_runs(runs: Vec<Vec<(i32, Tuple)>>) -> Self {
        Materialized::from_sorted_rows(merge_runs(runs))
    }

    /// Smallest key present (None if empty).
    pub fn min_key(&self) -> Option<i32> {
        self.rows.first().map(|(k, _)| *k)
    }

    /// Largest key present.
    pub fn max_key(&self) -> Option<i32> {
        self.rows.last().map(|(k, _)| *k)
    }

    fn tuples_at(&self, rows: Range<usize>) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows[rows].iter().map(|(_, t)| t)
    }

    /// Rows bearing `key`: a binary search + slice borrow (zero
    /// allocation).
    pub fn matches(&self, key: i32) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples_at(self.index.lookup(key))
    }

    /// Cursor-based variant of [`Materialized::matches`] for merge joins:
    /// over an ascending probe-key stream the cursor only moves forward
    /// (amortized O(1) per probe), falling back to a binary re-seek when
    /// the stream regresses (e.g. after an interval re-partitioning).
    pub fn matches_from(&self, key: i32, cursor: &mut usize) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples_at(self.index.seek(key, cursor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagged(key: i32, tag: i32) -> (i32, Tuple) {
        (key, Tuple::from_values(vec![xprs_storage::Datum::Int(tag)]))
    }

    #[test]
    fn materialized_from_sorted_rows_and_lookup() {
        let m = Materialized::from_sorted_rows(vec![tagged(1, 0), tagged(5, 1), tagged(5, 2)]);
        assert_eq!(m.min_key(), Some(1));
        assert_eq!(m.max_key(), Some(5));
        assert_eq!(m.matches(5).count(), 2);
        assert_eq!(m.matches(2).count(), 0);
    }

    #[test]
    fn from_runs_equals_a_stable_sort_of_the_whole_input() {
        let rows = vec![
            tagged(5, 0),
            tagged(-1, 1),
            tagged(5, 2),
            tagged(3, 3),
            tagged(-1, 4),
            tagged(5, 5),
            tagged(7, 6),
        ];
        let mut sorted = rows.clone();
        sorted.sort_by_key(|(k, _)| *k);
        // Worker emulation: consecutive chunks, each stably sorted locally.
        let mut runs: Vec<Vec<(i32, Tuple)>> = rows.chunks(3).map(|c| c.to_vec()).collect();
        for r in &mut runs {
            r.sort_by_key(|(k, _)| *k);
        }
        let m = Materialized::from_runs(runs);
        assert_eq!(m.rows, sorted, "stable merge must reproduce the stable sort");
        assert_eq!(m.min_key(), Some(-1));
        assert_eq!(m.max_key(), Some(7));
        for key in -2..9 {
            let want: Vec<&Tuple> =
                sorted.iter().filter(|(k, _)| *k == key).map(|(_, t)| t).collect();
            let got: Vec<&Tuple> = m.matches(key).collect();
            assert_eq!(got, want, "matches({key})");
        }
    }

    #[test]
    fn csr_cursor_matches_agree_with_plain_matches() {
        let mut rows: Vec<(i32, Tuple)> = (0..200).map(|i| tagged(i % 17, i)).collect();
        rows.sort_by_key(|(k, _)| *k);
        let m = Materialized::from_sorted_rows(rows);
        let mut cursor = 0usize;
        // Ascending probes, then a regression, then ascent again.
        for key in [-3, 0, 0, 4, 4, 5, 16, 20, 2, 11, 11, 16] {
            let a: Vec<&Tuple> = m.matches(key).collect();
            let b: Vec<&Tuple> = m.matches_from(key, &mut cursor).collect();
            assert_eq!(a, b, "probe {key}");
        }
    }

    #[test]
    fn empty_materialized_probes_cleanly() {
        for m in [
            Materialized::default(),
            Materialized::from_sorted_rows(Vec::new()),
            Materialized::from_runs(Vec::new()),
        ] {
            assert_eq!(m.min_key(), None);
            assert_eq!(m.max_key(), None);
            assert_eq!(m.matches(0).count(), 0);
            let mut cur = 0;
            assert_eq!(m.matches_from(0, &mut cur).count(), 0);
        }
    }
}

//! Test-only reference for the `Materialized` builders: one stable sort of
//! the whole input plus a key → row-positions hash map. It shares no code
//! with the sorted-runs merge or the CSR index it is held against.

use std::collections::HashMap;

use xprs_storage::Tuple;

/// Rows stably sorted by key, indexed by a `HashMap<i32, Vec<usize>>`.
pub struct HashReference {
    /// `(key, tuple)` rows in ascending key order, input order within a key.
    pub rows: Vec<(i32, Tuple)>,
    index: HashMap<i32, Vec<usize>>,
}

impl HashReference {
    /// Build from unordered rows.
    pub fn build(mut rows: Vec<(i32, Tuple)>) -> Self {
        rows.sort_by_key(|(k, _)| *k);
        let mut index: HashMap<i32, Vec<usize>> = HashMap::new();
        for (i, (k, _)) in rows.iter().enumerate() {
            index.entry(*k).or_default().push(i);
        }
        HashReference { rows, index }
    }

    /// Smallest key present (None if empty).
    pub fn min_key(&self) -> Option<i32> {
        self.rows.first().map(|(k, _)| *k)
    }

    /// Largest key present.
    pub fn max_key(&self) -> Option<i32> {
        self.rows.last().map(|(k, _)| *k)
    }

    /// Tuples bearing `key`, in row order.
    pub fn matches(&self, key: i32) -> impl Iterator<Item = &Tuple> {
        self.index.get(&key).into_iter().flatten().map(|&i| &self.rows[i].1)
    }
}

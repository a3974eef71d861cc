//! The system catalog: relations, indexes and optimizer statistics.

use std::collections::BTreeMap;

use xprs_disk::{RelId, StripedLayout};

use crate::heap::HeapFile;
use crate::runs::CsrIndex;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};

/// Statistics the optimizer's selectivity and cost estimation consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelStats {
    /// Cardinality.
    pub n_tuples: u64,
    /// Heap pages.
    pub n_blocks: u64,
    /// Distinct values of the key attribute `a`.
    pub n_distinct_a: u64,
    /// Minimum of `a` (0 if no row has an integer `a`).
    pub min_a: i32,
    /// Maximum of `a` (0 if no row has an integer `a`).
    pub max_a: i32,
}

/// An index on column `a`: every tuple's `TupleId` grouped by key, a key's
/// postings in TID order. A relation is loaded before it is probed, so the
/// index is built once, from a heap scan, and a later load rebuilds it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelIndex {
    keys: CsrIndex,
    tids: Vec<TupleId>,
    clustered: bool,
}

impl RelIndex {
    /// Index `heap`'s `int4` keys: the `(a, TupleId)` pairs in TID order,
    /// stable-sorted by key. `clustered` records whether the heap is stored
    /// in key order (which the optimizer's cost model and the scheduler's
    /// I/O-kind classification both consult).
    fn build(heap: &HeapFile, clustered: bool) -> Self {
        let mut pairs: Vec<(i32, TupleId)> =
            heap.scan().filter_map(|(tid, t)| Some((t.get(0).as_int()?, tid))).collect();
        pairs.sort_by_key(|&(k, _)| k);
        let keys = CsrIndex::from_sorted(&pairs);
        RelIndex { keys, tids: pairs.into_iter().map(|(_, tid)| tid).collect(), clustered }
    }

    /// Whether the underlying heap is clustered on this key.
    pub fn is_clustered(&self) -> bool {
        self.clustered
    }

    /// All tuples with exactly `key`, in TID order.
    pub fn lookup(&self, key: i32) -> &[TupleId] {
        &self.tids[self.keys.lookup(key)]
    }
}

/// One catalogued relation: heap, optional index on `a`, cached statistics.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Relation name.
    pub name: String,
    /// The heap file.
    pub heap: HeapFile,
    /// Optional index on column `a`.
    pub index_on_a: Option<RelIndex>,
    stats: RelStats,
}

impl Relation {
    /// Cached statistics (recomputed on load and index build).
    pub fn stats(&self) -> RelStats {
        self.stats
    }

    fn recompute_stats(&mut self) {
        let mut distinct = std::collections::HashSet::new();
        let mut min_a = i32::MAX;
        let mut max_a = i32::MIN;
        for (_, t) in self.heap.scan() {
            if let Some(v) = t.get(0).as_int() {
                distinct.insert(v);
                min_a = min_a.min(v);
                max_a = max_a.max(v);
            }
        }
        let keyless = distinct.is_empty();
        self.stats = RelStats {
            n_tuples: self.heap.n_tuples(),
            n_blocks: self.heap.n_blocks(),
            n_distinct_a: distinct.len() as u64,
            min_a: if keyless { 0 } else { min_a },
            max_a: if keyless { 0 } else { max_a },
        };
    }
}

/// The catalog: name → relation, plus relation-id allocation.
#[derive(Debug, Clone)]
pub struct Catalog {
    layout: StripedLayout,
    rels: BTreeMap<String, Relation>,
    next_id: u64,
}

impl Catalog {
    /// A catalog whose relations stripe over `layout`.
    pub fn new(layout: StripedLayout) -> Self {
        Catalog { layout, rels: BTreeMap::new(), next_id: 1 }
    }

    /// The striping layout shared by every relation.
    pub fn layout(&self) -> StripedLayout {
        self.layout
    }

    /// Create an empty relation. Returns its id.
    ///
    /// # Panics
    /// Panics if the name is taken.
    pub fn create(&mut self, name: &str, schema: Schema) -> RelId {
        assert!(!self.rels.contains_key(name), "relation {name} already exists");
        let rel = RelId(self.next_id);
        self.next_id += 1;
        self.rels.insert(
            name.to_string(),
            Relation {
                name: name.to_string(),
                heap: HeapFile::new(rel, schema, self.layout),
                index_on_a: None,
                stats: RelStats { n_tuples: 0, n_blocks: 0, n_distinct_a: 0, min_a: 0, max_a: 0 },
            },
        );
        rel
    }

    /// Bulk-load rows into `name` and refresh statistics; an existing index
    /// on `a` is rebuilt.
    pub fn load(&mut self, name: &str, rows: impl IntoIterator<Item = Tuple>) {
        let rel = self.rels.get_mut(name).unwrap_or_else(|| panic!("no relation {name}"));
        for row in rows {
            rel.heap.insert(row);
        }
        if let Some(clustered) = rel.index_on_a.as_ref().map(RelIndex::is_clustered) {
            rel.index_on_a = Some(RelIndex::build(&rel.heap, clustered));
        }
        rel.recompute_stats();
    }

    /// Build an index on column `a` of `name`.
    pub fn build_index(&mut self, name: &str, clustered: bool) {
        let rel = self.rels.get_mut(name).unwrap_or_else(|| panic!("no relation {name}"));
        rel.index_on_a = Some(RelIndex::build(&rel.heap, clustered));
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name)
    }

    /// All relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.rels.values()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True when no relation exists.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::schema::Schema;

    fn row(a: i32, blen: usize) -> Tuple {
        Tuple::from_values(vec![Datum::Int(a), Datum::Text("b".repeat(blen))])
    }

    /// Postings over every key the test rows use (`0..100`).
    fn entries(idx: &RelIndex) -> usize {
        (0..100).map(|k| idx.lookup(k).len()).sum()
    }

    fn catalog_with_rows(n: i32) -> Catalog {
        let mut c = Catalog::new(StripedLayout::new(4));
        c.create("r1", Schema::paper_rel());
        c.load("r1", (0..n).map(|i| row(i % 100, 100)));
        c
    }

    #[test]
    fn create_load_and_stats() {
        let c = catalog_with_rows(1000);
        let r = c.get("r1").unwrap();
        let s = r.stats();
        assert_eq!(s.n_tuples, 1000);
        assert_eq!(s.n_distinct_a, 100);
        assert_eq!(s.min_a, 0);
        assert_eq!(s.max_a, 99);
        assert!(s.n_blocks > 0);
    }

    #[test]
    fn index_build_covers_every_tuple() {
        let mut c = catalog_with_rows(1000);
        c.build_index("r1", false);
        let r = c.get("r1").unwrap();
        let idx = r.index_on_a.as_ref().unwrap();
        assert_eq!(entries(idx), 1000);
        // Key 7 appears 10 times (i % 100).
        assert_eq!(idx.lookup(7).len(), 10);
        // Postings point back at real tuples with the right key.
        for &tid in idx.lookup(7) {
            assert_eq!(r.heap.fetch(tid).unwrap().get(0), &Datum::Int(7));
        }
    }

    #[test]
    fn incremental_index_maintenance_on_load() {
        let mut c = catalog_with_rows(10);
        c.build_index("r1", false);
        c.load("r1", vec![row(7, 10)]);
        let r = c.get("r1").unwrap();
        assert_eq!(entries(r.index_on_a.as_ref().unwrap()), 11);
        assert_eq!(r.stats().n_tuples, 11);
    }

    #[test]
    fn empty_relation_stats_are_zeroed() {
        let mut c = Catalog::new(StripedLayout::new(4));
        c.create("empty", Schema::paper_rel());
        c.load("empty", Vec::<Tuple>::new());
        let s = c.get("empty").unwrap().stats();
        assert_eq!(s.n_tuples, 0);
        assert_eq!(s.min_a, 0);
    }

    #[test]
    fn a_relation_with_no_integer_key_reports_a_zero_key_range() {
        let mut c = Catalog::new(StripedLayout::new(4));
        c.create("nulls", Schema::paper_rel());
        c.load("nulls", vec![Tuple::from_values(vec![Datum::Null, Datum::Null])]);
        let s = c.get("nulls").unwrap().stats();
        assert_eq!((s.n_tuples, s.n_distinct_a, s.min_a, s.max_a), (1, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_relation_names_rejected() {
        let mut c = Catalog::new(StripedLayout::new(4));
        c.create("r", Schema::paper_rel());
        c.create("r", Schema::paper_rel());
    }

    #[test]
    fn relations_iterate_in_name_order() {
        let mut c = Catalog::new(StripedLayout::new(4));
        c.create("zeta", Schema::paper_rel());
        c.create("alpha", Schema::paper_rel());
        let names: Vec<&str> = c.relations().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(c.len(), 2);
    }
}

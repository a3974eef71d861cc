//! Heap files: a relation's pages, striped round-robin over the disk array.

use xprs_disk::{RelId, StripedLayout};

use crate::page::Page;
use crate::schema::Schema;
use crate::tuple::{Tuple, TupleId};

/// A relation's heap: pages in global block order. Block `b` lives on disk
/// `b mod D` — the striping is carried by the [`StripedLayout`] so the
/// executor and simulator route I/O identically.
#[derive(Debug, Clone)]
pub struct HeapFile {
    rel: RelId,
    schema: Schema,
    layout: StripedLayout,
    pages: Vec<Page>,
    n_tuples: u64,
}

impl HeapFile {
    /// An empty heap for relation `rel` with `schema`, striped per `layout`.
    pub fn new(rel: RelId, schema: Schema, layout: StripedLayout) -> Self {
        HeapFile { rel, schema, layout, pages: Vec::new(), n_tuples: 0 }
    }

    /// Relation id.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Schema of the stored tuples.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Striping layout.
    pub fn layout(&self) -> StripedLayout {
        self.layout
    }

    /// Number of pages (global blocks).
    pub fn n_blocks(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Number of stored tuples.
    pub fn n_tuples(&self) -> u64 {
        self.n_tuples
    }

    /// Append a tuple (validated against the schema where it is, since
    /// tuples can also arrive via `from_values`), extending the heap by a
    /// page, its slot array sized from this tuple, when the last page cannot
    /// hold it. The tuple is sized once and moved into its page once;
    /// nothing is copied. Returns the tuple's address.
    pub fn insert(&mut self, t: Tuple) -> TupleId {
        t.validate(&self.schema);
        let size = t.stored_size();
        if self.pages.last().is_none_or(|p| size > p.free_space()) {
            self.pages.push(Page::for_rows_of(size));
        }
        let block = self.pages.len() - 1;
        let slot = self.pages[block].insert_sized(t, size).expect("tuple must fit in an empty page");
        self.n_tuples += 1;
        TupleId { block: block as u64, slot }
    }

    /// The page at global block `b`.
    pub fn page(&self, b: u64) -> &Page {
        &self.pages[b as usize]
    }

    /// Fetch a tuple by address.
    pub fn fetch(&self, tid: TupleId) -> Option<&Tuple> {
        self.pages.get(tid.block as usize).and_then(|p| p.get(tid.slot))
    }

    /// Iterate every `(TupleId, &Tuple)` in block order — the logical
    /// content a (possibly parallel) sequential scan must produce.
    pub fn scan(&self) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.pages.iter().enumerate().flat_map(|(b, p)| {
            p.iter().map(move |(slot, t)| (TupleId { block: b as u64, slot }, t))
        })
    }

    /// Average tuples per page (what turns tuple size into I/O rate).
    pub fn tuples_per_page(&self) -> f64 {
        if self.pages.is_empty() {
            0.0
        } else {
            self.n_tuples as f64 / self.pages.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::page::{PAGE_HEADER, PAGE_SIZE};
    use proptest::prelude::*;

    fn heap() -> HeapFile {
        HeapFile::new(RelId(1), Schema::paper_rel(), StripedLayout::new(4))
    }

    fn row(a: i32, blen: usize) -> Tuple {
        Tuple::paper(a, blen)
    }

    #[test]
    fn inserts_fill_pages_in_order() {
        let mut h = heap();
        // 800-byte tuples: 10 per page.
        let mut tids = Vec::new();
        for i in 0..25 {
            tids.push(h.insert(row(i, 800 - 14)));
        }
        assert_eq!(h.n_blocks(), 3);
        assert_eq!(h.n_tuples(), 25);
        assert_eq!(tids[0], TupleId { block: 0, slot: 0 });
        assert_eq!(tids[10], TupleId { block: 1, slot: 0 });
        assert_eq!(tids[24], TupleId { block: 2, slot: 4 });
    }

    #[test]
    fn fetch_round_trips() {
        let mut h = heap();
        let tid = h.insert(row(42, 10));
        assert_eq!(h.fetch(tid).unwrap().get(0), &Datum::Int(42));
        assert!(h.fetch(TupleId { block: 9, slot: 0 }).is_none());
    }

    #[test]
    fn scan_yields_all_tuples_in_insertion_order() {
        let mut h = heap();
        for i in 0..100 {
            h.insert(row(i, 500));
        }
        let seen: Vec<i32> = h.scan().map(|(_, t)| t.get(0).as_int().unwrap()).collect();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn giant_tuples_take_one_page_each() {
        let mut h = heap();
        for i in 0..5 {
            h.insert(row(i, 8192 - 24 - 14));
        }
        assert_eq!(h.n_blocks(), 5);
        assert!((h.tuples_per_page() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn schema_violations_are_caught_on_insert() {
        heap().insert(Tuple::from_values(vec![Datum::Text("no".into()), Datum::Null]));
    }

    /// The largest tuple a page holds, and the smallest `r(a, b)` row.
    const WHOLE_PAGE: usize = PAGE_SIZE - PAGE_HEADER;
    const MIN_ROW: usize = 14;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The packing contract: every tuple lands where a naive "last page
        /// if it fits, else a new page" loader puts it, no page holds more
        /// than `PAGE_SIZE`, and a scan returns the inputs in order. A size
        /// of 0 asks for a tuple that exactly fills the last page's
        /// remaining space (or a whole page when none is left to fill).
        #[test]
        fn packing_matches_the_naive_reference(sizes in proptest::collection::vec(
            prop_oneof![
                MIN_ROW..200,
                200usize..3000,
                3000usize..=WHOLE_PAGE,
                Just(WHOLE_PAGE),
                Just(0usize),
            ],
            1..300,
        )) {
            let mut h = heap();
            let mut reference: Vec<(usize, u16)> = Vec::new(); // (free bytes, tuples) per page
            let mut inputs = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                let size = match (s, reference.last()) {
                    (0, Some(&(free, _))) if free >= MIN_ROW => free,
                    (0, _) => WHOLE_PAGE,
                    (s, _) => s,
                };
                let last = reference.len() as u64;
                let want = match reference.last_mut() {
                    Some((free, n)) if *free >= size => {
                        *free -= size;
                        *n += 1;
                        TupleId { block: last - 1, slot: *n - 1 }
                    }
                    _ => {
                        reference.push((WHOLE_PAGE - size, 1));
                        TupleId { block: last, slot: 0 }
                    }
                };
                let t = row(i as i32, size - MIN_ROW);
                prop_assert_eq!(t.stored_size(), size);
                inputs.push(t.clone());
                prop_assert_eq!(h.insert(t), want, "tuple {} of {} bytes", i, size);
            }
            prop_assert_eq!(h.n_blocks(), reference.len() as u64);
            for b in 0..h.n_blocks() {
                let page = h.page(b);
                let used: usize = page.iter().map(|(_, t)| t.stored_size()).sum();
                prop_assert!(PAGE_HEADER + used <= PAGE_SIZE, "block {} holds {} bytes", b, used);
                prop_assert_eq!(page.free_space(), reference[b as usize].0);
            }
            let scanned: Vec<&Tuple> = h.scan().map(|(_, t)| t).collect();
            prop_assert_eq!(scanned, inputs.iter().collect::<Vec<_>>());
        }
    }
}

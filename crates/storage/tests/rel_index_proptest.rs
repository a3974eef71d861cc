//! Reference test for the index on `r.a`: over random relations (duplicate
//! keys, negative keys, the empty relation) every `lookup(k)` equals a
//! `BTreeMap` model built from the heap scan — each key's postings in TID
//! order — a load into an indexed relation leaves the index a fresh build
//! would, and the clustered flag is carried through both.

use std::collections::BTreeMap;

use proptest::prelude::*;
use xprs_disk::StripedLayout;
use xprs_storage::{Catalog, Datum, Schema, Tuple, TupleId};

/// A row of key `a` whose `b` is `blen` bytes, so rows spread over pages.
fn row((a, blen): (i32, usize)) -> Tuple {
    Tuple::from_values(vec![Datum::Int(a), Datum::Text("b".repeat(blen))])
}

/// Relation `r` holding `rows`: the first `cut` loaded, then indexed, then
/// the rest loaded into the indexed relation.
fn catalog(rows: &[(i32, usize)], cut: usize, clustered: bool) -> Catalog {
    let mut c = Catalog::new(StripedLayout::new(4));
    c.create("r", Schema::paper_rel());
    c.load("r", rows[..cut].iter().copied().map(row));
    c.build_index("r", clustered);
    c.load("r", rows[cut..].iter().copied().map(row));
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lookups_equal_the_scan_model_and_a_load_equals_a_fresh_build(
        rows in prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec((-40i32..40, 0usize..3000), 1..300),
        ],
        cut_share in 0.0f64..1.0,
        clustered in proptest::bool::ANY,
    ) {
        let fresh = catalog(&rows, rows.len(), clustered);
        let rel = fresh.get("r").unwrap();
        let idx = rel.index_on_a.as_ref().unwrap();
        prop_assert_eq!(idx.is_clustered(), clustered);

        let mut model: BTreeMap<i32, Vec<TupleId>> = BTreeMap::new();
        for (tid, t) in rel.heap.scan() {
            model.entry(t.get(0).as_int().unwrap()).or_default().push(tid);
        }
        for k in (-45..45).chain([i32::MIN, i32::MAX]) {
            let want = model.get(&k).map(Vec::as_slice).unwrap_or(&[]);
            prop_assert_eq!(idx.lookup(k), want, "lookup({}) diverged", k);
            prop_assert!(want.windows(2).all(|w| w[0] < w[1]), "scan out of TID order");
        }

        let cut = (rows.len() as f64 * cut_share) as usize;
        let loaded = catalog(&rows, cut, clustered);
        prop_assert_eq!(&loaded.get("r").unwrap().index_on_a, &rel.index_on_a, "cut at {}", cut);
    }
}

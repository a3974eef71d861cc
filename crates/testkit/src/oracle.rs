//! Test-only answer oracle: a single-threaded naive evaluator for every
//! [`Plan`] variant.
//!
//! It shares nothing with the executor beyond the catalog and the plan
//! vocabulary — no fragments, partitions, buffer pool, worker pool, merge,
//! index or threads. Scans iterate the heap and apply the binding's range;
//! every join is a nested loop over its two evaluated inputs. The result
//! is key-sorted and put in a canonical order within each key, so it can
//! be compared against any executor path with [`check`].
//!
//! A second, even simpler reference lives here too: [`ref_join`] computes
//! only the per-key *cardinalities* of a natural join as a product of
//! per-relation selection counts. The oracle's self-check holds the two
//! against each other so neither can drift unnoticed.

use std::cmp::Ordering;
use std::collections::HashMap;

use xprs_executor::RelBinding;
use xprs_optimizer::Plan;
use xprs_storage::{Catalog, Datum, Tuple};

/// One output row: the join key and the (possibly joined) tuple.
pub type Row = (i32, Tuple);

/// Evaluate `plan` over `cat` under `bindings` (index-aligned with the
/// plan's relation numbers); rows come back in [`canonical`] order.
pub fn eval(cat: &Catalog, plan: &Plan, bindings: &[RelBinding]) -> Vec<Row> {
    canonical(eval_plan(cat, plan, bindings))
}

fn eval_plan(cat: &Catalog, plan: &Plan, bindings: &[RelBinding]) -> Vec<Row> {
    match plan {
        // An index scan returns exactly the tuples a filtered heap scan
        // does; how they are found is the executor's business.
        Plan::SeqScan { rel } | Plan::IndexScan { rel } => {
            let b = &bindings[*rel];
            let relation = cat.get(&b.name).expect("oracle: unknown relation");
            relation
                .heap
                .scan()
                .filter_map(|(_, t)| {
                    let key = t.get(0).as_int()?;
                    (key >= b.pred.0 && key <= b.pred.1).then(|| (key, t.clone()))
                })
                .collect()
        }
        // Joined tuples concatenate the *streaming* side first, then the
        // materialized side — the column order the executor's pipelines
        // produce.
        Plan::HashJoin { build, probe } => {
            nested_loop(&eval_plan(cat, probe, bindings), &eval_plan(cat, build, bindings))
        }
        Plan::NestLoop { outer, inner } => {
            nested_loop(&eval_plan(cat, outer, bindings), &eval_plan(cat, inner, bindings))
        }
        Plan::MergeJoin { left, right } => {
            let (l, r) = (eval_plan(cat, left, bindings), eval_plan(cat, right, bindings));
            // A bare index scan on the right of a non-index left side is
            // the one case where the right side streams.
            let right_streams = !matches!(**left, Plan::IndexScan { .. })
                && matches!(**right, Plan::IndexScan { .. });
            if right_streams {
                nested_loop(&r, &l)
            } else {
                nested_loop(&l, &r)
            }
        }
    }
}

fn nested_loop(streaming: &[Row], materialized: &[Row]) -> Vec<Row> {
    let mut out = Vec::new();
    for (k, s) in streaming {
        for (k2, m) in materialized {
            if k == k2 {
                out.push((*k, s.join(m)));
            }
        }
    }
    out
}

/// The canonical total order on rows: by key, then field by field (`Null`
/// < `Int` < `Text`). Rows bearing one key may leave the executor in any
/// worker order; this is the order both sides of a comparison are put in.
fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    fn rank(d: &Datum) -> (u8, i32, &str) {
        match d {
            Datum::Null => (0, 0, ""),
            Datum::Int(v) => (1, *v, ""),
            Datum::Text(s) => (2, 0, s),
        }
    }
    a.0.cmp(&b.0).then_with(|| a.1.values().iter().map(rank).cmp(b.1.values().iter().map(rank)))
}

/// `rows` in canonical order (by key, then field by field: `cmp_rows`).
pub fn canonical(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(cmp_rows);
    rows
}

/// Compare an executor result against the oracle's.
///
/// # Errors
/// Describes the first discrepancy: `got` not key-sorted (the executor's
/// materialization contract), a row-count difference, or the first row
/// that differs once `got` is canonicalised within each key.
pub fn check(got: &[Row], want: &[Row]) -> Result<(), String> {
    if let Some(i) = got.windows(2).position(|w| w[0].0 > w[1].0) {
        return Err(format!("output not key-sorted at row {i}: {} > {}", got[i].0, got[i + 1].0));
    }
    if got.len() != want.len() {
        return Err(format!("{} rows, oracle has {}", got.len(), want.len()));
    }
    if got == want {
        return Ok(()); // already in canonical order: the common case
    }
    let mut got: Vec<&Row> = got.iter().collect();
    got.sort_by(|a, b| cmp_rows(a, b));
    match got.iter().zip(want).position(|(g, w)| *g != w) {
        Some(i) => Err(format!("row {i}: got {:?}, oracle has {:?}", got[i], want[i])),
        None => Ok(()),
    }
}

/// [`check`], panicking with `label` on a discrepancy.
pub fn assert_matches(label: &str, got: &[Row], want: &[Row]) {
    if let Err(e) = check(got, want) {
        panic!("{label}: executor disagrees with the oracle: {e}");
    }
}

/// Rows per key.
pub fn key_counts(rows: &[Row]) -> HashMap<i32, usize> {
    let mut out = HashMap::new();
    for (k, _) in rows {
        *out.entry(*k).or_insert(0) += 1;
    }
    out
}

/// Cardinality reference: a selection's result as rows per key.
pub fn ref_selection(cat: &Catalog, name: &str, pred: (i32, i32)) -> HashMap<i32, usize> {
    let mut out = HashMap::new();
    for (_, t) in cat.get(name).unwrap().heap.scan() {
        let a = t.get(0).as_int().unwrap();
        if a >= pred.0 && a <= pred.1 {
            *out.entry(a).or_insert(0) += 1;
        }
    }
    out
}

/// Cardinality reference: natural-join-on-`a` rows per key across
/// relations, as the product of the per-relation selection counts.
pub fn ref_join(cat: &Catalog, specs: &[(&str, (i32, i32))]) -> HashMap<i32, usize> {
    let mut acc: Option<HashMap<i32, usize>> = None;
    for (name, pred) in specs {
        let h = ref_selection(cat, name, *pred);
        acc = Some(match acc {
            None => h,
            Some(prev) => {
                let mut next = HashMap::new();
                for (k, c) in prev {
                    if let Some(c2) = h.get(&k) {
                        next.insert(k, c * c2);
                    }
                }
                next
            }
        });
    }
    acc.unwrap()
}

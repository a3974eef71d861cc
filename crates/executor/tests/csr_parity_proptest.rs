//! Property-based parity between the `Materialized` builder and a
//! test-local reference: for any input multiset — duplicate keys, negative
//! keys, empty input — the hash reference (`common/hash_reference.rs`:
//! stable full sort + `HashMap<i32, Vec<usize>>` index) and the
//! sorted-runs/CSR build (`Materialized::from_runs`: stably sorted chunks →
//! stable k-way merge → counting-pass CSR) must agree on the row vector
//! itself, the key extrema, and the `matches()` multiset for every probe
//! key.
//!
//! Row-for-row equality (not just multiset equality) is the strong form of
//! the contract: the k-way merge breaks ties by run index then position, so
//! merging stably-sorted *consecutive* chunks reproduces the stable sort
//! exactly, payloads included.

use proptest::prelude::*;
use xprs_executor::Materialized;
use xprs_storage::{Datum, Tuple};

#[path = "common/hash_reference.rs"]
mod hash_reference;
use hash_reference::HashReference;

/// Rows whose payload records the original input position, so two rows with
/// equal keys are still distinguishable and stability violations surface.
fn rows_from(spec: &[(i32, u8)]) -> Vec<(i32, Tuple)> {
    spec.iter()
        .enumerate()
        .map(|(pos, (k, tag))| {
            (*k, Tuple::from_values(vec![Datum::Int(*k), Datum::Text(format!("{pos}:{tag}"))]))
        })
        .collect()
}

/// Split `rows` into consecutive worker-style runs (each stably sorted by
/// key), the shape `OutputSink::harvest_runs` hands the master.
fn into_runs(rows: Vec<(i32, Tuple)>, chunk: usize) -> Vec<Vec<(i32, Tuple)>> {
    let mut runs: Vec<Vec<(i32, Tuple)>> = Vec::new();
    let mut it = rows.into_iter().peekable();
    while it.peek().is_some() {
        let mut run: Vec<(i32, Tuple)> = it.by_ref().take(chunk.max(1)).collect();
        run.sort_by_key(|(k, _)| *k);
        runs.push(run);
    }
    runs
}

fn probe_multiset<'a>(hits: impl Iterator<Item = &'a Tuple>) -> Vec<Tuple> {
    let mut hits: Vec<Tuple> = hits.cloned().collect();
    hits.sort_by_key(|t| format!("{t:?}"));
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash reference and sorted-runs/CSR build agree on rows, extrema,
    /// and every probe's match multiset, for arbitrary keyed inputs.
    #[test]
    fn hash_and_csr_builds_agree(
        spec in proptest::collection::vec((-40i32..40, 0u8..4), 0..300),
        chunk in 1usize..48,
    ) {
        let rows = rows_from(&spec);
        let reference = HashReference::build(rows.clone());
        let csr = Materialized::from_runs(into_runs(rows, chunk));

        prop_assert_eq!(&reference.rows, &csr.rows, "row vectors must match exactly");
        prop_assert_eq!(reference.min_key(), csr.min_key());
        prop_assert_eq!(reference.max_key(), csr.max_key());

        // Probe every key in the input domain plus strict misses outside it.
        for key in -42i32..42 {
            prop_assert_eq!(
                probe_multiset(reference.matches(key)),
                probe_multiset(csr.matches(key)),
                "matches({}) multisets differ", key
            );
        }
    }

    /// The cursor probe (`matches_from`) agrees with the plain probe on a
    /// monotone key sweep — the access pattern `MergeWith` produces.
    #[test]
    fn cursor_probe_agrees_on_monotone_sweeps(
        spec in proptest::collection::vec((-30i32..30, 0u8..4), 0..200),
    ) {
        let csr = Materialized::from_runs(into_runs(rows_from(&spec), 16));
        let mut cursor = 0usize;
        for key in -32i32..32 {
            let seek: Vec<Tuple> = csr.matches_from(key, &mut cursor).cloned().collect();
            let plain: Vec<Tuple> = csr.matches(key).cloned().collect();
            prop_assert_eq!(seek, plain, "seek({}) diverged from lookup", key);
        }
    }
}

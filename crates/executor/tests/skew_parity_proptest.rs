//! Skew parity: the heavy-hitter machinery must never change results.
//!
//! Two layers of evidence. The property layer drives seeded Zipfian inputs
//! (the `xprs_workload::zipf_keys` stream the skew performance gate draws
//! from) through a test-local reference (stable full sort +
//! `HashMap<i32, Vec<usize>>` position index) and the two `Materialized`
//! construction paths —
//! sorted-runs CSR build, and the hot-key-splitting `split_runs_stats` →
//! per-group merge → concatenation path — and demands identical row
//! vectors, key extrema, digests, and probe multisets. The e2e layer runs
//! a genuinely skewed merge join through the executor on every merge path
//! (serial merge on a one-processor machine, the paper machine's
//! pool-farmed merge with hot-key fan-out, work-stealing with a worker
//! death mid-run) and demands the naive
//! oracle's rows (`common/oracle.rs`), with the observability counters
//! proving the heavy-hitter fan-out actually engaged rather than
//! vacuously passing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, Materialized, QueryRun, RelBinding};
use xprs_optimizer::{OptimizedQuery, Plan};
use xprs_scheduler::intra::IntraOnly;
use xprs_storage::{merge_runs, split_runs_stats, Catalog, Datum, Schema, Tuple};
use xprs_workload::zipf_keys;

#[path = "common/hash_reference.rs"]
mod hash_reference;
#[path = "common/oracle.rs"]
mod oracle;
#[path = "common/pinned.rs"]
mod pinned;
use hash_reference::HashReference;

/// Order-sensitive digest over the whole row vector, payloads included.
fn digest(rows: &[(i32, Tuple)]) -> u64 {
    let mut h = DefaultHasher::new();
    for (k, t) in rows {
        k.hash(&mut h);
        format!("{t:?}").hash(&mut h);
    }
    h.finish()
}

/// Position-tagged rows: two rows with equal keys stay distinguishable, so
/// any stability violation in a merge or split surfaces as a digest diff.
fn rows_from_keys(keys: &[i32]) -> Vec<(i32, Tuple)> {
    keys.iter()
        .enumerate()
        .map(|(pos, &k)| {
            (k, Tuple::from_values(vec![Datum::Int(k), Datum::Text(format!("{pos}"))]))
        })
        .collect()
}

/// Split `rows` into consecutive worker-style runs, each stably key-sorted
/// — the shape `OutputSink::harvest_runs` hands the master.
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

fn probe_multiset<'a>(hits: impl Iterator<Item = &'a Tuple>) -> Vec<String> {
    let mut hits: Vec<String> = hits.map(|t| format!("{t:?}")).collect();
    hits.sort();
    hits
}

const THETAS: [f64; 4] = [0.0, 0.5, 1.0, 1.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hash reference, the CSR build, and the hot-key-splitting merge
    /// agree on rows, extrema, digests, and every probe multiset for
    /// seeded Zipfian key streams across the θ band the skew gate compares.
    #[test]
    fn zipf_inputs_agree_across_all_three_builds(
        seed in 0u64..1u64 << 48,
        theta_idx in 0usize..THETAS.len(),
        key_domain in 1u64..60,
        n in 0u64..400,
        chunk in 1usize..48,
        ways in 2usize..9,
    ) {
        let keys = zipf_keys(seed, THETAS[theta_idx], key_domain, n);
        let rows = rows_from_keys(&keys);

        let reference = HashReference::build(rows.clone());
        let csr = Materialized::from_runs(into_runs(rows.clone(), chunk));
        // The path the pool-farmed merge takes: split (with heavy-hitter
        // carving) into disjoint groups, merge each, concatenate.
        let (groups, stats) = split_runs_stats(into_runs(rows, chunk), ways);
        let mut split_rows = Vec::new();
        let mut group_rows_seen = Vec::new();
        for group in groups {
            let merged = merge_runs(group);
            group_rows_seen.push(merged.len());
            split_rows.extend(merged);
        }
        prop_assert_eq!(&group_rows_seen, &stats.group_rows,
            "SplitStats row accounting must match the groups");
        let split = Materialized::from_sorted_rows(split_rows);

        prop_assert_eq!(&reference.rows, &csr.rows, "CSR build diverged");
        prop_assert_eq!(&reference.rows, &split.rows, "hot-key split diverged");
        prop_assert_eq!(digest(&reference.rows), digest(&split.rows));
        prop_assert_eq!(reference.min_key(), split.min_key());
        prop_assert_eq!(reference.max_key(), split.max_key());
        for key in -1i64..=key_domain as i64 {
            let key = key as i32;
            prop_assert_eq!(
                probe_multiset(reference.matches(key)),
                probe_multiset(split.matches(key)),
                "matches({}) multisets differ", key
            );
        }
        // Every detected heavy hitter must genuinely exceed an even share.
        let total: usize = stats.group_rows.iter().sum();
        for &hk in &stats.hot_keys {
            let count = reference.matches(hk).count();
            prop_assert!(count * ways > total / 2,
                "reported hot key {} holds only {}/{} rows", hk, count, total);
        }
    }
}

// ---------------------------------------------------------------------------
// E2e: a skewed merge join through the executor, all merge paths.
// ---------------------------------------------------------------------------

/// Two relations drawing keys from Zipf(θ) over a 50-key domain: at θ = 1
/// the rank-0 key holds ~22% of each side, so its join output (~5% of
/// pairs² mass) towers over every other key. Payloads are a pure function
/// of `(relation, key)` so key-sorted outputs compare row-for-row against
/// the oracle however the workers ordered equal-keyed rows.
fn skewed_catalog(theta: f64) -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    for (name, seed, n) in [("zb", 0xB01D_u64, 400u64), ("zp", 0x50B3, 2000)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = zipf_keys(seed, theta, 50, n)
            .into_iter()
            .map(|a| Tuple::from_values(vec![Datum::Int(a), Datum::Text(format!("{name}:{a}"))]))
            .collect();
        cat.load(name, rows);
    }
    Arc::new(cat)
}

fn optimized_merge_join(cat: &Catalog, names: &[&str]) -> OptimizedQuery {
    let plan = Plan::MergeJoin {
        left: Box::new(Plan::SeqScan { rel: 0 }),
        right: Box::new(Plan::SeqScan { rel: 1 }),
    };
    pinned::pinned_plan(cat, plan, names)
}

struct SkewRun {
    rows: Vec<(i32, Tuple)>,
    hot_keys_total: u64,
    root_hot_keys: u64,
    root_way_rows_max: u64,
    root_way_rows_mean: u64,
    granted_pages: u64,
    released_pages: u64,
    pinned_at_exit: u64,
}

const NAMES: [&str; 2] = ["zb", "zp"];

fn skew_bindings() -> Vec<RelBinding> {
    NAMES
        .iter()
        .map(|n| RelBinding { name: (*n).to_string(), pred: (i32::MIN, i32::MAX) })
        .collect()
}

/// The naive oracle's answer to the skewed join.
fn oracle_rows(cat: &Catalog) -> Vec<(i32, Tuple)> {
    oracle::eval(cat, &optimized_merge_join(cat, &NAMES).plan, &skew_bindings())
}

fn run_skewed(cat: &Arc<Catalog>, cfg: ExecConfig) -> Result<SkewRun, ExecError> {
    let optimized = optimized_merge_join(cat, &NAMES);
    let bindings = skew_bindings();
    let mut policy = IntraOnly::new(cfg.machine.clone(), true);
    let exec = Executor::new(cfg, cat.clone());
    let report = exec.run(&[QueryRun { optimized, bindings }], &mut policy)?;
    let root = report.profiles[0]
        .fragments
        .iter()
        .find(|f| f.is_root)
        .expect("root fragment profiled");
    Ok(SkewRun {
        rows: report.results[0].rows.rows.clone(),
        hot_keys_total: report.fragments().map(|f| f.merge.hot_keys).sum(),
        root_hot_keys: root.merge.hot_keys,
        root_way_rows_max: root.merge.way_rows_max,
        root_way_rows_mean: root.merge.way_rows_mean,
        granted_pages: report.mem_granted_pages,
        released_pages: report.mem_released_pages,
        pinned_at_exit: report.pool_pinned_at_exit,
    })
}

/// The paper machine: the skewed join's output is far past the
/// parallel-merge threshold, so it merges (and detects hot keys) 8 ways.
fn pooled_cfg() -> ExecConfig {
    ExecConfig::unthrottled()
}

/// A one-processor machine: every merge is serial.
fn serial_cfg() -> ExecConfig {
    let mut cfg = pooled_cfg();
    cfg.machine.n_procs = 1;
    cfg
}

#[test]
fn skewed_merge_join_matches_the_oracle_and_the_hot_path_engages() {
    let cat = skewed_catalog(1.0);
    let want = oracle_rows(&cat);
    let serial = run_skewed(&cat, serial_cfg()).expect("serial");
    let pooled = run_skewed(&cat, pooled_cfg()).expect("pooled");

    assert!(!want.is_empty(), "vacuous comparison");
    oracle::assert_matches("serial merge path", &serial.rows, &want);
    oracle::assert_matches("pooled hot-key path", &pooled.rows, &want);

    // No vacuous pass: Zipf(1) over 50 keys concentrates the join output
    // hard enough that the 8-way paper machine must detect heavy hitters
    // and fan them out — both the registry counter and the root
    // fragment's merge profile must say so.
    assert!(
        pooled.hot_keys_total > 0,
        "hot-key counter stayed zero on a Zipf(1) join"
    );
    assert!(pooled.root_hot_keys > 0, "root merge profile saw no hot keys");
    assert!(
        pooled.root_way_rows_max > 0 && pooled.root_way_rows_mean > 0,
        "parallel merge recorded no way sizes"
    );
    // The hottest way must hold less than the whole output: the hot key
    // was actually split, not parked on one way.
    assert!(
        (pooled.root_way_rows_max as usize) < want.len(),
        "one merge way swallowed the entire output"
    );
}

/// Uniform, moderate and heavy skew alike: the pool-farmed merge join
/// returns the oracle's rows and closes both ledgers — every granted page
/// released, none pinned at exit.
#[test]
fn skewed_merge_join_closes_its_ledgers_at_every_theta() {
    for theta in [0.0, 0.5, 1.0] {
        let cat = skewed_catalog(theta);
        let want = oracle_rows(&cat);
        assert!(!want.is_empty(), "theta {theta}: vacuous comparison");
        let got = run_skewed(&cat, pooled_cfg()).expect("pooled");
        oracle::assert_matches(&format!("theta {theta}"), &got.rows, &want);
        assert_eq!(got.granted_pages, got.released_pages, "theta {theta}: grant ledger");
        assert!(got.granted_pages > 0, "theta {theta}: grants never engaged");
        assert_eq!(got.pinned_at_exit, 0, "theta {theta}: pages pinned at exit");
    }
}

#[test]
fn worker_death_mid_run_preserves_skewed_results() {
    let cat = skewed_catalog(1.0);
    let want = oracle_rows(&cat);
    let optimized = optimized_merge_join(&cat, &NAMES);
    let root_task = optimized.fragments.fragments.len() - 1;
    // Kill a scan worker (fragment 0) and, separately, a worker of the
    // root key-domain fragment — its replacement must keep skipping the
    // withheld hot keys or they would be double-emitted.
    for frag in [0, root_task] {
        let faults = Arc::new(FaultPlan::new().with_worker_death(frag, 0, 1));
        let got = run_skewed(&cat, pooled_cfg().with_faults(faults.clone()))
            .unwrap_or_else(|e| panic!("death in fragment {frag}: {e}"));
        assert_eq!(faults.stats().deaths_fired(), 1, "fragment {frag}: death must fire");
        oracle::assert_matches(
            &format!("fragment {frag}: skewed join after a worker death"),
            &got.rows,
            &want,
        );
        assert!(got.hot_keys_total > 0, "fragment {frag}: hot path disengaged");
    }
}

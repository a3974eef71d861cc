//! E2e regression for join materialization: every plan shape the compiler
//! knows (hash join, deep probe chain, nestloop, key-domain merge, bushy)
//! must return exactly the rows the naive single-threaded oracle computes
//! (`xprs_testkit::oracle`) — with the serial k-way merge a one-processor
//! machine takes, with the pool-farmed merge the paper machine takes, and
//! under a fault plan that kills a worker mid-build.
//!
//! Payloads are a pure function of `(relation, key)`, so rows bearing one
//! key are indistinguishable: the oracle's within-key canonical order is a
//! no-op here, and matching it means the key-sorted outputs are
//! byte-identical.

use std::sync::Arc;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, MergeProfile, QueryRun, RelBinding};
use xprs_optimizer::cost::{CostModel, RelInfo};
use xprs_optimizer::{decompose, OptimizedQuery, Plan};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Four indexed relations; payload `b` depends only on `(relation, a)`.
/// Sized so every shape's output (about 6 000 rows for `r0 ⋈ r1`) is past
/// the parallel-merge threshold of 4 096 rows.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x1013_u64;
    for (name, n, key_mod) in
        [("r0", 600u64, 40u64), ("r1", 500, 50), ("r2", 400, 45), ("r3", 175, 35)]
    {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let a = (lcg(&mut seed) % key_mod) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text(format!("{name}:{a}"))])
            })
            .collect();
        cat.load(name, rows);
        cat.build_index(name, false);
    }
    Arc::new(cat)
}

fn scan(rel: usize) -> Box<Plan> {
    Box::new(Plan::SeqScan { rel })
}

fn iscan(rel: usize) -> Box<Plan> {
    Box::new(Plan::IndexScan { rel })
}

/// Build an [`OptimizedQuery`] around a hand-written plan shape, deriving
/// cost estimates and the fragment decomposition the same way the
/// optimizer's phase two does.
fn optimized_from_plan(cat: &Catalog, names: &[&str], plan: Plan) -> OptimizedQuery {
    let rels: Vec<RelInfo> = names
        .iter()
        .map(|n| {
            let rel = cat.get(n).expect("test relation");
            let s = rel.stats();
            RelInfo {
                n_tuples: s.n_tuples as f64,
                n_blocks: s.n_blocks as f64,
                n_distinct: s.n_distinct_a as f64,
                selectivity: 1.0,
                has_index: rel.index_on_a.is_some(),
                clustered: rel.index_on_a.as_ref().is_some_and(|i| i.is_clustered()),
            }
        })
        .collect();
    let costed = CostModel::paper_default().cost_plan(&plan, &rels);
    let fragments = decompose(&plan, &costed, 0);
    OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments }
}

/// Every key of every relation.
const ALL: (i32, i32) = (i32::MIN, i32::MAX);

fn bindings(names: &[&str], pred: (i32, i32)) -> Vec<RelBinding> {
    names.iter().map(|n| RelBinding { name: (*n).to_string(), pred }).collect()
}

/// Run `plan` over the keys in `pred` on `cfg`'s machine: the rows, and how
/// the root fragment merged them.
fn run_shape(
    cat: &Arc<Catalog>,
    names: &[&str],
    plan: &Plan,
    cfg: ExecConfig,
    pred: (i32, i32),
) -> Result<(Vec<(i32, Tuple)>, MergeProfile), ExecError> {
    let optimized = optimized_from_plan(cat, names, plan.clone());
    let mut policy = IntraOnly::new(cfg.machine.clone(), true);
    let exec = Executor::new(cfg, cat.clone());
    let report =
        exec.run(&[QueryRun { optimized, bindings: bindings(names, pred) }], &mut policy)?;
    let root = report.fragments().find(|f| f.is_root).expect("root fragment profiled");
    Ok((report.results[0].rows.rows.clone(), root.merge))
}

fn one_processor() -> ExecConfig {
    let mut cfg = ExecConfig::unthrottled();
    cfg.machine.n_procs = 1;
    cfg
}

/// Both merge paths, each where the engine itself takes it: serial on a
/// one-processor machine, pooled on the paper machine (every shape's output
/// on [`catalog`] is past the threshold). The flag is the root's
/// `merge.parallel` the path must show.
fn merge_paths() -> [(&'static str, ExecConfig, bool); 2] {
    [("serial", one_processor(), false), ("pooled", ExecConfig::unthrottled(), true)]
}

/// Every compiler plan shape, with the relations it touches.
fn shapes() -> Vec<(&'static str, Vec<&'static str>, Plan)> {
    vec![
        (
            "hash_join",
            vec!["r0", "r1"],
            Plan::HashJoin { build: scan(0), probe: scan(1) },
        ),
        (
            "deep_probe_chain",
            vec!["r0", "r1", "r2"],
            Plan::HashJoin {
                build: scan(0),
                probe: Box::new(Plan::HashJoin { build: scan(1), probe: scan(2) }),
            },
        ),
        (
            "nestloop",
            vec!["r0", "r1"],
            Plan::NestLoop { outer: scan(0), inner: iscan(1) },
        ),
        (
            "key_domain_merge",
            vec!["r0", "r1"],
            Plan::MergeJoin { left: scan(0), right: scan(1) },
        ),
        (
            "bushy",
            vec!["r0", "r1", "r2", "r3"],
            Plan::HashJoin {
                build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
                probe: Box::new(Plan::MergeJoin { left: iscan(2), right: iscan(3) }),
            },
        ),
    ]
}

#[test]
fn all_plan_shapes_match_the_oracle_on_every_merge_path() {
    let cat = catalog();
    for (label, names, plan) in shapes() {
        let want = oracle::eval(&cat, &plan, &bindings(&names, ALL));
        assert!(!want.is_empty(), "{label}: vacuous comparison");
        for (path, cfg, pooled) in merge_paths() {
            let (got, merge) = run_shape(&cat, &names, &plan, cfg, ALL).expect(label);
            assert_eq!(merge.parallel, pooled, "{label}: the {path} merge was not taken");
            oracle::assert_matches(&format!("{label}: {path} merge"), &got, &want);
        }
    }
}

/// A worker death mid-build (during the build-side fragment) must not
/// change the result on either merge path: the master reclaims the dead
/// slot's share, a replacement finishes it, and the materialized output
/// still equals the oracle's.
#[test]
fn worker_death_mid_build_preserves_results_on_both_merge_paths() {
    let cat = catalog();
    let (label, names, plan) = &shapes()[1]; // deep probe chain: two build fragments
    let want = oracle::eval(&cat, plan, &bindings(names, ALL));
    for (path, cfg, pooled) in merge_paths() {
        // Fragment 0 is a build side; kill its slot 0 after one unit.
        let faults = Arc::new(FaultPlan::new().with_worker_death(0, 0, 1));
        let (got, merge) = run_shape(&cat, names, plan, cfg.with_faults(faults.clone()), ALL)
            .unwrap_or_else(|e| panic!("{label} under {path}: {e}"));
        assert_eq!(faults.stats().deaths_fired(), 1, "{path}: death must fire");
        assert_eq!(merge.parallel, pooled, "{label}: the {path} merge was not taken");
        oracle::assert_matches(&format!("{label} under {path} after a death"), &got, &want);
    }
}

/// A run's merge shape is the modelled machine's, whatever host runs it:
/// an output past the threshold merges one way per processor — 8 on the
/// paper machine, serially on a one-processor machine — and one below the
/// threshold merges serially even on the paper machine.
#[test]
fn a_runs_merge_shape_does_not_depend_on_the_host() {
    let cat = catalog();
    let (_, names, plan) = &shapes()[0]; // r0 ⋈ r1
    let shape = |cfg, pred| {
        let (rows, merge) = run_shape(&cat, names, plan, cfg, pred).expect("hash join");
        (rows.len(), merge.ways, merge.parallel)
    };
    let (rows, ways, parallel) = shape(ExecConfig::unthrottled(), ALL);
    assert!(rows >= 4096, "{rows} rows do not reach the parallel-merge threshold");
    assert_eq!((ways, parallel), (8, true), "the paper machine merges 8 ways");
    let (_, ways, parallel) = shape(one_processor(), ALL);
    assert_eq!((ways, parallel), (1, false), "one processor merges serially");
    let (rows, ways, parallel) = shape(ExecConfig::unthrottled(), (0, 9));
    assert!(rows < 4096, "{rows} rows are not below the threshold");
    assert_eq!((ways, parallel), (1, false), "a small output merges serially");
}

/// The oracle checks itself: the comparison must reject a single flipped
/// row (and accept a within-key permutation), and on every plan shape its
/// per-key cardinalities must equal the independent `ref_join` product —
/// two references that share no code cannot drift apart unnoticed.
#[test]
fn oracle_self_check() {
    let cat = catalog();
    for (label, names, plan) in shapes() {
        let want = oracle::eval(&cat, &plan, &bindings(&names, ALL));
        let specs: Vec<(&str, (i32, i32))> =
            names.iter().map(|n| (*n, (i32::MIN, i32::MAX))).collect();
        assert_eq!(
            oracle::key_counts(&want),
            oracle::ref_join(&cat, &specs),
            "{label}: oracle and ref_join disagree on per-key cardinalities"
        );

        assert_eq!(oracle::check(&want, &want), Ok(()), "{label}: oracle rejects itself");
        // Flip one row's payload: same keys, same counts, one wrong byte.
        let mut flipped = want.clone();
        let mid = flipped.len() / 2;
        let mut values = flipped[mid].1.values().to_vec();
        *values.last_mut().expect("joined rows have columns") = Datum::Text("flipped".into());
        flipped[mid].1 = Tuple::from_values(values);
        assert!(oracle::check(&flipped, &want).is_err(), "{label}: flipped payload accepted");
        // Flip one row's key (keeping the vector key-sorted).
        let mut rekeyed = want.clone();
        let last = rekeyed.len() - 1;
        rekeyed[last].0 += 1;
        assert!(oracle::check(&rekeyed, &want).is_err(), "{label}: flipped key accepted");
        // Drop a row.
        assert!(oracle::check(&want[1..], &want).is_err(), "{label}: missing row accepted");
    }
    // Order within a key is not part of the contract; order across keys is.
    let row = |k: i32, tag: &str| (k, Tuple::from_values(vec![Datum::Text(tag.into())]));
    let want = oracle::canonical(vec![row(1, "b"), row(1, "a"), row(2, "c")]);
    assert_eq!(oracle::check(&[row(1, "b"), row(1, "a"), row(2, "c")], &want), Ok(()));
    assert!(oracle::check(&[row(2, "c"), row(1, "a"), row(1, "b")], &want).is_err());
}

/// A merge join of index scans over `left` (driving the key scan) and
/// `right` (probed merge-indexed), planned as if both were indexed;
/// `indexed` says which really are — the runtime catalog disagrees.
fn merge_of_index_scans(indexed: [bool; 2]) -> (Arc<Catalog>, QueryRun) {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x5EED_u64;
    for (name, indexed) in [("left", indexed[0]), ("right", indexed[1])] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..200)
            .map(|_| {
                let a = (lcg(&mut seed) % 30) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text(String::new())])
            })
            .collect();
        cat.load(name, rows);
        if indexed {
            cat.build_index(name, false);
        }
    }
    let cat = Arc::new(cat);
    let plan = Plan::MergeJoin { left: iscan(0), right: iscan(1) };
    // The planner must *believe* both sides are indexed (or it would refuse
    // the shape at cost time); the runtime catalog is what disagrees.
    let rels: Vec<RelInfo> = ["left", "right"]
        .iter()
        .map(|n| {
            let rel = cat.get(n).expect("test relation");
            let s = rel.stats();
            RelInfo {
                n_tuples: s.n_tuples as f64,
                n_blocks: s.n_blocks as f64,
                n_distinct: s.n_distinct_a as f64,
                selectivity: 1.0,
                has_index: true,
                clustered: false,
            }
        })
        .collect();
    let costed = CostModel::paper_default().cost_plan(&plan, &rels);
    let fragments = decompose(&plan, &costed, 0);
    let optimized =
        OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments };
    (cat, QueryRun { optimized, bindings: bindings(&["left", "right"], ALL) })
}

/// Run `run` to its error; no page may stay pinned behind it.
fn run_to_error(cat: Arc<Catalog>, run: QueryRun) -> ExecError {
    let exec = Executor::new(ExecConfig::unthrottled(), cat);
    let session = exec.session();
    let mut policy = IntraOnly::new(MachineConfig::paper_default(), true);
    let err = exec
        .run_shared(&session, &[run], &mut policy, &[])
        .expect_err("a scan over an unindexed relation must fail");
    assert_eq!(session.pinned_pages(), 0, "the failed run left a page pinned");
    session.shutdown();
    err
}

/// The merge-indexed probe over an unindexed relation is a
/// typed [`ExecError::IndexMissing`], not a worker panic.
#[test]
fn merge_indexed_over_unindexed_is_a_typed_error() {
    let (cat, run) = merge_of_index_scans([true, false]);
    match run_to_error(cat, run) {
        ExecError::IndexMissing { name, .. } => assert_eq!(name, "right"),
        other => panic!("expected IndexMissing, got {other:?}"),
    }
}

/// The key scan that drives the merge finds no index on `left`: the same
/// typed error, not a worker panic surfacing as `WorkerPanicked`.
#[test]
fn index_scan_over_unindexed_is_a_typed_error() {
    let (cat, run) = merge_of_index_scans([false, true]);
    match run_to_error(cat, run) {
        ExecError::IndexMissing { name, .. } => assert_eq!(name, "left"),
        other => panic!("expected IndexMissing, got {other:?}"),
    }
}

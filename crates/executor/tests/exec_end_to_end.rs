//! End-to-end executor tests: real threads, real data, results checked
//! against the naive single-threaded oracle (every row) and the per-key
//! cardinality reference (`oracle::ref_join`).

use std::collections::HashMap;
use std::sync::Arc;

use xprs_disk::StripedLayout;
use xprs_executor::{CancelToken, ExecConfig, ExecError, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Plan, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::{MachineConfig, SchedulePolicy};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "common/oracle.rs"]
mod oracle;
use oracle::{ref_join, ref_selection};

/// Deterministic pseudo-random stream.
fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Catalog with three relations of different shapes, indexed on `a`.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xD1CE_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 400u64, 100u64, 800usize),  // few tuples per page → IO-heavy scan
        ("thin", 3000, 150, 16),            // many tuples per page → CPU-heavy scan
        ("mid", 1200, 120, 120),
    ] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let a = (lcg(&mut seed) % key_mod) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
            .collect();
        cat.load(name, rows);
        cat.build_index(name, false);
    }
    Arc::new(cat)
}

fn result_multiset(rows: &xprs_executor::Materialized) -> HashMap<i32, usize> {
    oracle::key_counts(&rows.rows)
}

fn optimizer() -> TwoPhaseOptimizer {
    TwoPhaseOptimizer::paper_default()
}

fn run_one(
    cat: &Arc<Catalog>,
    q: &Query,
    bindings: Vec<RelBinding>,
    costing: Costing,
    policy: &mut dyn SchedulePolicy,
) -> xprs_executor::ExecReport {
    let optimized = optimizer().optimize_catalog(cat, q, costing).expect("plan");
    let want = oracle::eval(cat, &optimized.plan, &bindings);
    run_planned(cat, QueryRun { optimized, bindings }, policy, &want)
}

/// Run one planned query and hold its rows against the oracle's `want`.
fn run_planned(
    cat: &Arc<Catalog>,
    run: QueryRun,
    policy: &mut dyn SchedulePolicy,
    want: &[oracle::Row],
) -> xprs_executor::ExecReport {
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let report = exec.run(&[run], policy).expect("run failed");
    oracle::assert_matches(policy.name(), &report.results[0].rows.rows, want);
    report
}

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

#[test]
fn parallel_selection_matches_reference() {
    let cat = catalog();
    let q = Query::selection("thin", 0.4);
    let bindings = vec![RelBinding { name: "thin".into(), pred: (0, 59) }];
    let mut policy = IntraOnly::new(m(), true);
    let report = run_one(&cat, &q, bindings, Costing::SeqCost, &mut policy);
    let got = result_multiset(&report.results[0].rows);
    let want = ref_selection(&cat, "thin", (0, 59));
    assert_eq!(got, want);
    assert!(report.stats.reads > 0);
}

#[test]
fn two_way_join_matches_reference() {
    let cat = catalog();
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    let bindings = vec![
        RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
        RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
    ];
    let mut policy = IntraOnly::new(m(), true);
    let report = run_one(&cat, &q, bindings, Costing::SeqCost, &mut policy);
    let got = result_multiset(&report.results[0].rows);
    let want = ref_join(&cat, &[("fat", (i32::MIN, i32::MAX)), ("thin", (i32::MIN, i32::MAX))]);
    assert_eq!(got, want);
}

#[test]
fn three_way_join_under_every_policy_agrees() {
    let cat = catalog();
    let q = Query::join()
        .rel("fat", 1.0)
        .rel("thin", 1.0)
        .rel("mid", 1.0)
        .on(0, 1)
        .on(1, 2)
        .build();
    let bindings = vec![
        RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
        RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
        RelBinding { name: "mid".into(), pred: (i32::MIN, i32::MAX) },
    ];
    let want = ref_join(
        &cat,
        &[
            ("fat", (i32::MIN, i32::MAX)),
            ("thin", (i32::MIN, i32::MAX)),
            ("mid", (i32::MIN, i32::MAX)),
        ],
    );
    for costing in [Costing::SeqCost, Costing::ParCost] {
        let optimized = optimizer().optimize_catalog(&cat, &q, costing).expect("plan");
        let oracle_rows = oracle::eval(&cat, &optimized.plan, &bindings);
        let mut intra = IntraOnly::new(m(), true);
        let mut with_adj = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        let mut no_adj = AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m()));
        let policies: Vec<&mut dyn SchedulePolicy> = vec![&mut intra, &mut with_adj, &mut no_adj];
        for policy in policies {
            let run = QueryRun { optimized: optimized.clone(), bindings: bindings.clone() };
            let report = run_planned(&cat, run, policy, &oracle_rows);
            let got = result_multiset(&report.results[0].rows);
            assert_eq!(got, want, "policy result mismatch under {costing:?}");
        }
    }
}

#[test]
fn selective_join_with_predicates() {
    let cat = catalog();
    let q = Query::join().rel("mid", 0.5).rel("thin", 0.3).on(0, 1).build();
    let bindings = vec![
        RelBinding { name: "mid".into(), pred: (0, 59) },
        RelBinding { name: "thin".into(), pred: (20, 80) },
    ];
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let report = run_one(&cat, &q, bindings, Costing::ParCost, &mut policy);
    let got = result_multiset(&report.results[0].rows);
    let want = ref_join(&cat, &[("mid", (0, 59)), ("thin", (20, 80))]);
    assert_eq!(got, want);
    // Keys outside the intersection of predicates cannot appear.
    assert!(got.keys().all(|k| (20..=59).contains(k)));
}

#[test]
fn multi_query_run_returns_each_querys_rows() {
    let cat = catalog();
    let mk = |name: &str, pred: (i32, i32)| {
        let q = Query::selection(name, 1.0);
        let optimized = optimizer().optimize_catalog(&cat, &q, Costing::SeqCost).expect("plan");
        QueryRun { optimized, bindings: vec![RelBinding { name: name.into(), pred }] }
    };
    let runs = vec![mk("fat", (0, 49)), mk("thin", (0, 9)), mk("mid", (100, 119))];
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let report = exec.run(&runs, &mut policy).expect("run failed");
    assert_eq!(report.results.len(), 3);
    assert_eq!(result_multiset(&report.results[0].rows), ref_selection(&cat, "fat", (0, 49)));
    assert_eq!(result_multiset(&report.results[1].rows), ref_selection(&cat, "thin", (0, 9)));
    assert_eq!(result_multiset(&report.results[2].rows), ref_selection(&cat, "mid", (100, 119)));
}

/// A worker panic must come back as [`ExecError::WorkerPanicked`] with the
/// remaining workers drained — not take the process down or hang the
/// master. Forced by optimizing an index-scan plan against an indexed
/// catalog, then executing it on a catalog whose relation has no index.
#[test]
fn worker_panic_surfaces_as_exec_error() {
    let indexed = catalog();
    let q = Query::selection("thin", 0.05);
    let bindings = vec![RelBinding { name: "thin".into(), pred: (0, 7) }];
    let mut optimized = optimizer().optimize_catalog(&indexed, &q, Costing::SeqCost).expect("plan");
    // Force the index-access path; a selection decomposes into one fragment
    // either way, so only the worker's driver changes.
    optimized.plan = Plan::IndexScan { rel: 0 };

    // Same relation, same rows, no index.
    let mut bare = Catalog::new(xprs_disk::StripedLayout::new(4));
    bare.create("thin", Schema::paper_rel());
    let rows: Vec<Tuple> =
        indexed.get("thin").unwrap().heap.scan().map(|(_, t)| t.clone()).collect();
    bare.load("thin", rows);

    let exec = Executor::new(ExecConfig::unthrottled(), Arc::new(bare));
    let mut policy = IntraOnly::new(m(), true);
    let err = exec
        .run(&[QueryRun { optimized, bindings }], &mut policy)
        .expect_err("run over a missing index must fail");
    match err {
        ExecError::WorkerPanicked { message, .. } => {
            assert!(message.contains("index"), "unexpected panic payload: {message}");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn empty_selection_completes() {
    let cat = catalog();
    let q = Query::selection("thin", 0.01);
    // Predicate range matching nothing.
    let bindings = vec![RelBinding { name: "thin".into(), pred: (100_000, 100_001) }];
    let mut policy = IntraOnly::new(m(), true);
    let report = run_one(&cat, &q, bindings, Costing::SeqCost, &mut policy);
    assert!(report.results[0].rows.rows.is_empty());
}

/// The merged output must equal the oracle's row for row — payloads
/// included, not just the per-key cardinalities the tests above count.
#[test]
fn join_output_equals_the_oracle_row_for_row() {
    let cat = catalog();
    let q = Query::join().rel("mid", 0.5).rel("thin", 0.5).on(0, 1).build();
    let bindings = vec![
        RelBinding { name: "mid".into(), pred: (0, 79) },
        RelBinding { name: "thin".into(), pred: (10, 99) },
    ];
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    // `run_one` holds the result against the oracle.
    let report = run_one(&cat, &q, bindings, Costing::ParCost, &mut policy);
    assert!(!report.results[0].rows.rows.is_empty(), "vacuous comparison");
}

/// A token slice that is neither empty nor one-per-query is a typed
/// refusal from every cancellable entry point — formerly an `assert!` in
/// the master, reachable from the public API.
#[test]
fn token_count_mismatch_is_a_typed_error_not_a_panic() {
    let cat = catalog();
    let mk = |name: &str| {
        let q = Query::selection(name, 1.0);
        let optimized = optimizer().optimize_catalog(&cat, &q, Costing::SeqCost).expect("plan");
        let pred = (i32::MIN, i32::MAX);
        QueryRun { optimized, bindings: vec![RelBinding { name: name.into(), pred }] }
    };
    let runs = vec![mk("fat"), mk("mid")];
    let tokens = vec![CancelToken::new()];
    let want = ExecError::TokenCountMismatch { tokens: 1, queries: 2 };
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    assert_eq!(exec.run_with_cancel(&runs, &mut policy, &tokens).unwrap_err(), want);
    let session = exec.session();
    assert_eq!(exec.run_shared(&session, &runs, &mut policy, &tokens).unwrap_err(), want);
    assert!(want.to_string().contains("1 tokens for 2 queries"));
    // The accepted shapes still run: no tokens, or one per query.
    exec.run_with_cancel(&runs, &mut policy, &[]).expect("empty token slice is accepted");
    let tokens = vec![CancelToken::new(), CancelToken::new()];
    let mut policy = IntraOnly::new(m(), true);
    exec.run_with_cancel(&runs, &mut policy, &tokens).expect("one token per query is accepted");
}

#[test]
fn throttled_run_still_produces_correct_results() {
    // A fast throttle (2000× real time) exercises the sleep paths without
    // slowing the suite; correctness must be unaffected.
    let cat = catalog();
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    let bindings = vec![
        RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
        RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
    ];
    let optimized = optimizer().optimize_catalog(&cat, &q, Costing::ParCost).expect("plan");
    let exec = Executor::new(ExecConfig::scaled(2000.0), cat.clone());
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let report = exec.run(&[QueryRun { optimized, bindings }], &mut policy).expect("run failed");
    let got = result_multiset(&report.results[0].rows);
    let want = ref_join(&cat, &[("fat", (i32::MIN, i32::MAX)), ("thin", (i32::MIN, i32::MAX))]);
    assert_eq!(got, want);
    assert!(report.wall > 0.0);
    assert!(report.stats.disk.total() > 0);
}

/// Every `ExecConfig` field is `pub`, so no builder can vouch for a value:
/// a configuration that describes no machine is refused with a typed error
/// by every entry point that consumes it — `run`, and `run_shared` on a
/// session built from it (`session()` itself cannot fail, and must not
/// panic).
#[test]
fn a_nonsense_config_is_a_typed_refusal_from_every_entry_point() {
    let cat = catalog();
    let q = Query::selection("thin", 1.0);
    let optimized = optimizer().optimize_catalog(&cat, &q, Costing::SeqCost).expect("plan");
    let pred = (i32::MIN, i32::MAX);
    let runs = [QueryRun { optimized, bindings: vec![RelBinding { name: "thin".into(), pred }] }];
    type Break = fn(&mut ExecConfig);
    let broken: [(&str, Break); 5] = [
        ("scale", |c| c.scale = -1.0),
        ("scale", |c| c.scale = f64::NAN),
        ("recal_band", |c| c.recal_band = f64::NEG_INFINITY),
        ("machine.n_procs", |c| c.machine.n_procs = 0),
        ("machine.n_disks", |c| c.machine.n_disks = 0),
    ];
    for (field, break_it) in broken {
        let mut cfg = ExecConfig::unthrottled();
        break_it(&mut cfg);
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = IntraOnly::new(m(), true);
        let refused = |e: ExecError| match e {
            ExecError::InvalidConfig { field, .. } => field,
            other => panic!("expected InvalidConfig, got {other}"),
        };
        assert_eq!(refused(exec.run(&runs, &mut policy).unwrap_err()), field);
        // A sound executor on the refused config's session is refused too:
        // the session has no machine that config described.
        let session = exec.session();
        let sound = Executor::new(ExecConfig::unthrottled(), cat.clone());
        assert_eq!(refused(sound.run_shared(&session, &runs, &mut policy, &[]).unwrap_err()), field);
    }
    assert!(ExecConfig::scaled(0.0).scale.is_infinite(), "the builder no longer panics");
}

//! Output parity across morsel modes: the same query must return
//! **byte-identical** rows under §2.4 static partition shares
//! ([`MorselMode::StaticShares`]) and morsel-driven work stealing
//! ([`MorselMode::Stealing`]) — at every worker count, at a morsel grain
//! small enough to force heavy stealing, and with a worker killed
//! mid-scan so the heartbeat patrol's reclamation path is on the
//! byte-identity critical path too. Both modes are additionally held
//! against the naive oracle (`common/oracle.rs`), so a bug the two modes
//! share cannot hide behind their agreement.
//!
//! Payloads are a pure function of `(relation, key)` (the
//! `join_datapath` convention), so the key-sorted outputs admit
//! row-for-row comparison regardless of which slot produced which row.

use std::sync::Arc;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, Executor, MorselMode, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "common/oracle.rs"]
mod oracle;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Two indexed relations; payload `b` depends only on `(relation, a)`.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x9A21_u64;
    for (name, n, key_mod) in [("big", 2_000u64, 120u64), ("small", 600, 90)] {
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

/// A scan query and a two-fragment join query — the shapes whose unit
/// spaces (pages and keys) the morsel layer partitions.
fn runs(cat: &Arc<Catalog>) -> Vec<QueryRun> {
    let optimizer = TwoPhaseOptimizer::paper_default();
    let scan = Query::selection("big", 1.0);
    let join = Query::join().rel("big", 1.0).rel("small", 1.0).on(0, 1).build();
    vec![
        QueryRun {
            optimized: optimizer.optimize_catalog(cat, &scan, Costing::SeqCost).expect("plan"),
            bindings: vec![RelBinding { name: "big".into(), pred: (i32::MIN, i32::MAX) }],
        },
        QueryRun {
            optimized: optimizer.optimize_catalog(cat, &join, Costing::SeqCost).expect("plan"),
            bindings: vec![
                RelBinding { name: "big".into(), pred: (i32::MIN, i32::MAX) },
                RelBinding { name: "small".into(), pred: (i32::MIN, i32::MAX) },
            ],
        },
    ]
}

fn run_mode(
    cat: &Arc<Catalog>,
    mode: MorselMode,
    faults: Option<Arc<FaultPlan>>,
) -> Vec<Vec<(i32, Tuple)>> {
    let mut cfg = ExecConfig::unthrottled().with_morsel_mode(mode);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = IntraOnly::new(MachineConfig::paper_default(), true);
    let report = exec.run(&runs(cat), &mut policy).expect("parity run failed");
    report.results.iter().map(|r| r.rows.rows.clone()).collect()
}

/// The oracle's rows for each query of [`runs`].
fn oracle_rows(cat: &Arc<Catalog>) -> Vec<Vec<(i32, Tuple)>> {
    runs(cat).iter().map(|r| oracle::eval(cat, &r.optimized.plan, &r.bindings)).collect()
}

fn assert_matches_oracle(label: &str, got: &[Vec<(i32, Tuple)>], want: &[Vec<(i32, Tuple)>]) {
    assert_eq!(got.len(), want.len(), "{label}: query count");
    for (qi, (g, w)) in got.iter().zip(want).enumerate() {
        oracle::assert_matches(&format!("{label}, query {qi}"), g, w);
    }
}

/// Fault-free parity: static shares and stealing — at the default grain
/// and at a grain of one unit per morsel (maximum steal traffic) — all
/// return byte-identical rows.
#[test]
fn stealing_and_static_shares_return_byte_identical_rows() {
    let cat = catalog();
    let want = oracle_rows(&cat);
    let reference = run_mode(&cat, MorselMode::StaticShares, None);
    assert!(reference.iter().all(|r| !r.is_empty()), "vacuous parity reference");
    assert_matches_oracle("StaticShares", &reference, &want);
    for mode in [MorselMode::stealing(), MorselMode::Stealing { morsel_units: 1 }] {
        let got = run_mode(&cat, mode, None);
        assert_eq!(got, reference, "{mode:?} diverged from StaticShares");
        assert_matches_oracle(&format!("{mode:?}"), &got, &want);
    }
}

/// A worker killed mid-scan (fragment 0, slot 0, after one unit) must not
/// change a single byte of either mode's output: the heartbeat patrol
/// reclaims exactly the units the dead slot never claimed, and a
/// replacement finishes them.
#[test]
fn worker_death_mid_scan_preserves_byte_identity_in_both_modes() {
    let cat = catalog();
    let want = oracle_rows(&cat);
    let reference = run_mode(&cat, MorselMode::StaticShares, None);
    for mode in [
        MorselMode::StaticShares,
        MorselMode::stealing(),
        MorselMode::Stealing { morsel_units: 1 },
    ] {
        let faults = Arc::new(FaultPlan::new().with_worker_death(0, 0, 1));
        let got = run_mode(&cat, mode, Some(faults.clone()));
        assert_eq!(faults.stats().deaths_fired(), 1, "{mode:?}: death must fire");
        assert_eq!(got, reference, "{mode:?}: death changed the output");
        assert_matches_oracle(&format!("{mode:?} after a death"), &got, &want);
    }
}

//! Output parity across morsel grains: the same query must return
//! **byte-identical** rows at the default grain and at a grain of one unit
//! per morsel (maximum steal traffic) — fault-free, and with a worker
//! killed mid-scan so the heartbeat patrol's reclamation path is on the
//! byte-identity critical path too. Every run is additionally held against
//! the naive oracle (`common/oracle.rs`), so a bug the grains share cannot
//! hide behind their agreement. (The §2.4 static shares these tests once
//! compared against are retired; see `docs/results/scaling.md`.)
//!
//! Payloads are a pure function of `(relation, key)` (the
//! `join_datapath` convention), so the key-sorted outputs admit
//! row-for-row comparison regardless of which slot produced which row.

use std::sync::Arc;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding, DEFAULT_MORSEL_UNITS};
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

/// Morsel grains under test: the production default, and one unit per
/// morsel.
const GRAINS: [u64; 2] = [DEFAULT_MORSEL_UNITS, 1];

fn run_grain(
    cat: &Arc<Catalog>,
    morsel_units: u64,
    faults: Option<Arc<FaultPlan>>,
) -> Vec<Vec<(i32, Tuple)>> {
    let mut cfg = ExecConfig { morsel_units, ..ExecConfig::unthrottled() };
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

/// Fault-free parity: both grains return the oracle's rows, and each
/// other's, byte for byte.
#[test]
fn stealing_and_static_shares_return_byte_identical_rows() {
    let cat = catalog();
    let want = oracle_rows(&cat);
    let got = GRAINS.map(|grain| run_grain(&cat, grain, None));
    assert!(got[0].iter().all(|r| !r.is_empty()), "vacuous parity run");
    assert_eq!(got[1], got[0], "grain {} diverged from grain {}", GRAINS[1], GRAINS[0]);
    for (grain, rows) in GRAINS.iter().zip(&got) {
        assert_matches_oracle(&format!("grain {grain}"), rows, &want);
    }
}

/// A worker killed mid-scan (fragment 0, slot 0, after one unit) must not
/// change a single byte of the output at either grain: the heartbeat patrol
/// reclaims exactly the units the dead slot never claimed, and a
/// replacement finishes them.
#[test]
fn worker_death_mid_scan_preserves_byte_identity_in_both_modes() {
    let cat = catalog();
    let want = oracle_rows(&cat);
    let reference = run_grain(&cat, GRAINS[0], None);
    for grain in GRAINS {
        let faults = Arc::new(FaultPlan::new().with_worker_death(0, 0, 1));
        let got = run_grain(&cat, grain, Some(faults.clone()));
        assert_eq!(faults.stats().deaths_fired(), 1, "grain {grain}: death must fire");
        assert_eq!(got, reference, "grain {grain}: death changed the output");
        assert_matches_oracle(&format!("grain {grain} after a death"), &got, &want);
    }
}

//! Cross-crate integration: optimizer choices are consistent, fragment
//! decomposition matches the executor's compilation, and every chosen plan
//! computes the same answer on the threaded engine.

use xprs::optimizer::PlanShape;
use xprs::storage::{Datum, Schema, Tuple};
use xprs::{Costing, PolicyKind, Query, XprsSystem};
use xprs_workload::Calibration;

fn build_system() -> XprsSystem {
    let mut sys = XprsSystem::paper_default();
    let cal = Calibration::paper_default();
    for (name, rate, n) in [
        ("io_a", 60.0, 600u64),
        ("cpu_b", 8.0, 9_000),
        ("io_c", 55.0, 500),
        ("cpu_d", 12.0, 7_000),
    ] {
        let blen = cal.blen_for_rate(rate);
        let cat = sys.catalog_mut();
        cat.create(name, Schema::paper_rel());
        cat.load(
            name,
            (0..n).map(|i| {
                Tuple::from_values(vec![Datum::Int(i as i32), Datum::Text("x".repeat(blen))])
            }),
        );
        cat.build_index(name, false);
    }
    sys
}

fn chain_query() -> Query {
    Query::join()
        .rel("io_a", 1.0)
        .rel("cpu_b", 1.0)
        .rel("io_c", 1.0)
        .rel("cpu_d", 1.0)
        .on(0, 1)
        .on(1, 2)
        .on(2, 3)
        .build()
}

#[test]
fn parcost_ranking_never_regresses_the_estimate() {
    let sys = build_system();
    let q = chain_query();
    let by_seq = sys.optimize(&q, Costing::SeqCost).expect("plan");
    let by_par = sys.optimize(&q, Costing::ParCost).expect("plan");
    assert!(
        by_par.parcost <= by_seq.parcost + 1e-9,
        "parcost ranking produced a slower plan: {} vs {}",
        by_par.parcost,
        by_seq.parcost
    );
    // And parallel execution of a plan never loses to its sequential cost.
    assert!(by_par.parcost <= by_par.seqcost * 1.001);
}

#[test]
fn every_strategy_computes_the_same_answer() {
    let mut sys = build_system();
    let q = chain_query();
    let bindings = sys.bindings(&q).expect("bindings");
    let mut reference: Option<Vec<i32>> = None;
    for (shape, costing) in [
        (PlanShape::LeftDeep, Costing::SeqCost),
        (PlanShape::Bushy, Costing::SeqCost),
        (PlanShape::Bushy, Costing::ParCost),
    ] {
        sys.optimizer_mut().shape = shape;
        let o = sys.optimize(&q, costing).expect("plan");
        let report = sys.execute(&[(o, bindings.clone())], PolicyKind::InterWithAdj, None).expect("exec");
        let keys: Vec<i32> = report.results[0].rows.rows.iter().map(|(k, _)| *k).collect();
        match &reference {
            None => reference = Some(keys),
            Some(want) => assert_eq!(&keys, want, "{shape:?}/{costing:?} diverged"),
        }
    }
    // The chain join over distinct keys 0..n keeps exactly min(n_i) rows.
    assert_eq!(reference.unwrap().len(), 500);
}

#[test]
fn fragment_estimates_classify_like_their_relations() {
    let sys = build_system();
    // A single hash join: the build side scans the IO-heavy relation, the
    // probe side the CPU-heavy one; the decomposition should expose one
    // IO-bound and one CPU-bound fragment — the pairing opportunity.
    let q = Query::join().rel("io_a", 1.0).rel("cpu_b", 1.0).on(0, 1).build();
    let o = sys.optimize(&q, Costing::ParCost).expect("plan");
    let thr = sys.machine().io_threshold();
    let classes: Vec<bool> = o
        .fragments
        .fragments
        .iter()
        .map(|f| f.profile.io_rate > thr)
        .collect();
    assert!(
        classes.iter().any(|&io| io) && classes.iter().any(|&io| !io),
        "expected one IO-bound and one CPU-bound fragment, rates: {:?}",
        o.fragments
            .fragments
            .iter()
            .map(|f| f.profile.io_rate)
            .collect::<Vec<_>>()
    );
}

#[test]
fn multi_query_mixed_workload_executes_under_all_policies() {
    let mut sys = build_system();
    sys.optimizer_mut().shape = PlanShape::Bushy;
    let q1 = Query::selection("io_a", 1.0);
    let q2 = Query::selection("cpu_b", 0.6);
    let q3 = Query::join().rel("io_c", 1.0).rel("cpu_d", 1.0).on(0, 1).build();
    let runs: Vec<_> = [&q1, &q2, &q3]
        .iter()
        .map(|q| {
            (sys.optimize(q, Costing::SeqCost).expect("plan"), sys.bindings(q).expect("bindings"))
        })
        .collect();
    let mut counts: Option<Vec<usize>> = None;
    for policy in PolicyKind::all() {
        let report = sys.execute(&runs, policy, None).expect("exec");
        let got: Vec<usize> = report.results.iter().map(|r| r.rows.rows.len()).collect();
        match &counts {
            None => counts = Some(got),
            Some(want) => assert_eq!(&got, want, "{} changed the answers", policy.label()),
        }
    }
}

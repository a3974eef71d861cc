//! Chaos tests: the executor's self-healing data path under injected
//! faults. A multi-fragment query survives transient read errors (absorbed
//! by bounded retries), a sustained disk slowdown (detected by the
//! degradation patrol, which recalibrates the policy), and a worker death
//! (reported by the dead worker's pool job; the master reclaims the dead
//! slot's partition share and staffs a replacement) — and still returns
//! results identical to a fault-free run, also when the dead worker was
//! mid-way through the tuple slices of a page scan too small to give every
//! backend a page. A stalled worker is never replaced, and a dying worker
//! whose last page cannot be read fails the run.

use std::sync::Arc;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{
    ExecConfig, ExecError, ExecReport, Executor, QueryRun, RelBinding, READ_ATTEMPTS,
};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::trace::{action_stream, replay_through_fluid, SharedSink, TraceRecord};
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xC4A0_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 1000u64, 100u64, 800usize), // IO-heavy: ~10 tuples per page
        ("thin", 3000, 150, 16),            // CPU-heavy: many tuples per page
        ("tiny", 1600, 60, 16),             // CPU-heavy, six pages: sliced at x = 8
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

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

/// The multi-fragment workload: a two-way join (build fragment + probe
/// fragment, dependency-ordered).
fn join_run(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    QueryRun {
        optimized,
        bindings: vec![
            RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
        ],
    }
}

/// A selection over all of `name`.
fn scan_run(cat: &Arc<Catalog>, name: &str) -> QueryRun {
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &Query::selection(name, 1.0), Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) }],
    }
}

/// Hold query 0 of `report` to the single-threaded oracle's answer to `run`.
fn assert_oracle(label: &str, cat: &Catalog, run: &QueryRun, report: &ExecReport) {
    let want = oracle::eval(cat, &run.optimized.plan, &run.bindings);
    assert!(!want.is_empty(), "{label}: vacuous query");
    oracle::assert_matches(label, &report.results[0].rows.rows, &want);
}

fn run_with(cat: &Arc<Catalog>, cfg: ExecConfig, sink: Option<SharedSink>) -> ExecReport {
    run_query(cat, join_run(cat), cfg, sink)
}

fn run_query(
    cat: &Arc<Catalog>,
    run: QueryRun,
    cfg: ExecConfig,
    sink: Option<SharedSink>,
) -> ExecReport {
    let mut exec = Executor::new(cfg, cat.clone());
    if let Some(sink) = sink {
        exec = exec.with_trace(sink);
    }
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    exec.run(&[run], &mut policy).expect("run failed")
}

/// The issue's acceptance scenario: two transient read errors + one
/// sustained disk slowdown + one worker death, on a multi-fragment query.
/// The run completes with results identical to the fault-free run, the
/// master replaces the dead worker, the captured trace records at least one
/// recalibration, and the trace replays through the fluid model.
#[test]
fn chaos_run_matches_fault_free_run_and_records_recalibration() {
    let cat = catalog();
    let fat = cat.get("fat").unwrap().heap.rel();

    let baseline = run_with(&cat, ExecConfig::unthrottled(), None);

    let plan = Arc::new(
        FaultPlan::new()
            // Two transient read errors, each absorbed by one retry.
            .with_read_error(fat, 3, 1)
            .with_read_error(fat, 17, 1)
            // Disk 0 degrades to one-eighth speed early in the run.
            .with_slowdown(0, 4, 8.0)
            // Slot 0 of the build fragment dies after two pages.
            .with_worker_death(0, 0, 2),
    );
    let trace = SharedSink::default();
    let cfg = ExecConfig::unthrottled().with_faults(plan.clone());
    let report = run_with(&cat, cfg, Some(trace.clone()));

    // Every scheduled fault actually fired.
    assert_eq!(plan.stats().read_errors_fired(), 2, "both transient errors must fire");
    assert_eq!(plan.stats().deaths_fired(), 1, "the worker death must fire");
    assert!(plan.stats().slow_requests() > 0, "the slowdown must degrade requests");

    // Self-healing: the dead slot was reclaimed and the drift recalibrated.
    assert_eq!(report.worker_recoveries, plan.stats().deaths_fired(), "one replacement per death");
    assert!(report.recalibrations >= 1, "observed-rate drift must trigger recalibration");
    eprintln!(
        "chaos e2e: recoveries={} recalibrations={} slow_requests={} reads={} rows={}",
        report.worker_recoveries,
        report.recalibrations,
        plan.stats().slow_requests(),
        report.stats.reads,
        report.results[0].rows.rows.len(),
    );

    // Result equivalence: the materialized output is key-sorted and every
    // equal-key row is identical, so row-for-row equality is exact.
    assert_eq!(
        baseline.results[0].rows.rows, report.results[0].rows.rows,
        "chaos run must return the fault-free result"
    );
    assert!(!report.results[0].rows.rows.is_empty(), "vacuous comparison");
    assert_oracle("chaos run", &cat, &join_run(&cat), &report);

    // The captured trace carries the recalibration and replays.
    let records = trace.lock().unwrap().clone();
    let recals = records
        .iter()
        .filter(|r| matches!(r, TraceRecord::Recalibrate { .. }))
        .count();
    assert!(recals >= 1, "trace must record the recalibration");
    let replayed = replay_through_fluid(&records).expect("chaos trace must replay");
    assert!(!replayed.is_empty(), "replay must re-derive a schedule");
    assert!(!action_stream(&records).is_empty(), "trace must carry scheduler actions");
}

/// A read error outlasting every retry escalates to the typed
/// [`ExecError::IoFault`] with the run drained, not a panic or a hang.
#[test]
fn unrecoverable_read_error_surfaces_as_typed_fault() {
    let cat = catalog();
    let fat = cat.get("fat").unwrap().heap.rel();
    let plan = Arc::new(FaultPlan::new().with_read_error(fat, 5, READ_ATTEMPTS));
    let exec = Executor::new(ExecConfig::unthrottled().with_faults(plan), cat.clone());
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let err = exec.run(&[join_run(&cat)], &mut policy).expect_err("fault must surface");
    match err {
        ExecError::IoFault { fault, .. } => {
            assert_eq!(fault.block, 5);
            assert_eq!(fault.attempts, READ_ATTEMPTS);
        }
        other => panic!("expected IoFault, got {other}"),
    }
}

/// A stalled worker is live: it stays silent for 60 ms — thirty patrol
/// ticks — and nothing reports it dead, so it is never replaced. It wakes,
/// finishes its share, and the result is the fault-free run's.
#[test]
fn a_stalled_worker_is_never_replaced() {
    let cat = catalog();
    let baseline = run_with(&cat, ExecConfig::unthrottled(), None);

    let plan = Arc::new(FaultPlan::new().with_worker_stall(0, 0, 1, 60));
    let report = run_with(&cat, ExecConfig::unthrottled().with_faults(plan.clone()), None);

    assert_eq!(plan.stats().stalls_fired(), 1, "the stall must fire");
    assert_eq!(report.worker_recoveries, 0, "a live worker was replaced");
    assert_eq!(
        baseline.results[0].rows.rows, report.results[0].rows.rows,
        "a stalled worker must not change the result"
    );
}

/// A dying worker still finishes the page it claimed, and that read can
/// fail: slot 0 claims block 0 of a 200-page scan, dies at its next claim,
/// and block 0's read fails on every attempt. The failure wins over the
/// death: the run fails with the fault rather than return the rows read so
/// far as the answer, and it leaves no pin or grant behind.
#[test]
fn a_dying_workers_unreadable_page_fails_the_run() {
    let mut cat = Catalog::new(StripedLayout::new(4));
    cat.create("wide", Schema::paper_rel());
    let rows: Vec<Tuple> = (0..2_000)
        .map(|i| Tuple::from_values(vec![Datum::Int(i % 100), Datum::Text("x".repeat(800))]))
        .collect();
    cat.load("wide", rows);
    let cat = Arc::new(cat);
    let wide = cat.get("wide").unwrap().heap.rel();
    assert_eq!(cat.get("wide").unwrap().heap.n_blocks(), 200);

    let plan = Arc::new(
        FaultPlan::new()
            .with_worker_death(0, 0, 1)
            .with_read_error(wide, 0, READ_ATTEMPTS),
    );
    let exec = Executor::new(ExecConfig::unthrottled().with_faults(plan.clone()), cat.clone());
    let session = exec.session();
    let mut policy = IntraOnly::new(m(), true);
    let err = exec
        .run_shared(&session, &[scan_run(&cat, "wide")], &mut policy, &[])
        .expect_err("a lost page must fail the run");
    assert_eq!(plan.stats().deaths_fired(), 1, "the death must fire");
    match err {
        ExecError::IoFault { fault, .. } => assert_eq!(fault.block, 0),
        other => panic!("expected IoFault, got {other}"),
    }
    assert_eq!((session.pinned_pages(), session.reserved_pages()), (0, 0));
    session.shutdown();
}

/// Satellite audit: a retry storm against a pool too small for the scan's
/// pin pressure must degrade gracefully (bypass or miss), never livelock or
/// leak pins — the run completes and the result is unchanged.
#[test]
fn retry_storm_under_tiny_pool_completes_without_pin_leaks() {
    let cat = catalog();
    let baseline = run_with(&cat, ExecConfig::unthrottled(), None);

    let fat = &cat.get("fat").unwrap().heap;
    let thin = &cat.get("thin").unwrap().heap;
    let mut plan = FaultPlan::new();
    let mut scheduled = 0u64;
    for (rel, blocks) in [(fat.rel(), fat.n_blocks()), (thin.rel(), thin.n_blocks())] {
        for b in 0..blocks.min(24) {
            // Recovered on the final attempt: maximum retry pressure per block.
            plan = plan.with_read_error(rel, b, READ_ATTEMPTS - 1);
            scheduled += 1;
        }
    }
    let plan = Arc::new(plan);
    let mut cfg = ExecConfig::unthrottled().with_faults(plan.clone());
    cfg.bufpool_pages = 8; // far below the scan's concurrent pin demand
    cfg.bufpool_shards = 8;
    let report = run_with(&cat, cfg, None);

    assert_eq!(
        plan.stats().read_errors_fired(),
        scheduled * u64::from(READ_ATTEMPTS - 1),
        "every scheduled transient error must fire"
    );
    assert_eq!(
        baseline.results[0].rows.rows, report.results[0].rows.rows,
        "retry storm must not change the result"
    );
}

/// A worker death mid-slice: `tiny`'s six pages at all eight processors are
/// dealt as 48 tuple slices, six per backend, and slot 3 dies after claiming
/// two of them. The master hands the four it never claimed to a replacement;
/// every slice is finished exactly once and the rows are the fault-free
/// run's.
#[test]
fn worker_death_mid_slice_matches_fault_free_run() {
    let cat = catalog();
    let baseline = run_query(&cat, scan_run(&cat, "tiny"), ExecConfig::unthrottled(), None);
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 3, 2));
    let cfg = ExecConfig::unthrottled().with_faults(plan.clone());
    let report = run_query(&cat, scan_run(&cat, "tiny"), cfg, None);

    assert_eq!(plan.stats().deaths_fired(), 1, "the death must fire");
    assert_eq!(report.worker_recoveries, plan.stats().deaths_fired(), "one replacement per death");
    let scan = &report.profiles[0].fragments[0];
    assert_eq!(scan.units, 6 * 8, "every slice of the six pages finished exactly once");
    assert_eq!(report.pool_pinned_at_exit, 0);
    assert_eq!(baseline.results[0].rows.rows, report.results[0].rows.rows);
    assert!(!report.results[0].rows.rows.is_empty(), "vacuous comparison");
    assert_oracle("death mid-slice", &cat, &scan_run(&cat, "tiny"), &report);
}

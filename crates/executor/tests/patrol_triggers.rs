//! The master ticks exactly when a run can change without any message
//! reaching it, and these are the three ways that happens. A fault plan may
//! slow the disks, however the plan was set (a worker it kills is reported,
//! and replaced). Another run on a shared session frees the pool a parked
//! fragment waits for. A client fires a cancel token while the only fragment
//! is still scanning. None of these runs opts into a patrol, yet each must
//! tick, finish, or cancel without a message from its own workers to wake
//! the master. The runs that would hang run behind a watchdog.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{CancelToken, ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;

/// Tuples of `big`, ten to a page: an 800-page IO-bound scan.
const BIG_TUPLES: u64 = 8_000;

/// `big`: a scan long enough that a dead slot strands most of a morsel, and
/// that a cancel must cut short. `fat`: ~10 tuples a page over 30 pages, the
/// build side of a join whose probe scans `thin`.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x71C4_u64;
    for (name, n, blen) in [("big", BIG_TUPLES, 800usize), ("fat", 300, 800), ("thin", 2_000, 16)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((seed >> 33) % 100) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
            .collect();
        cat.load(name, rows);
    }
    Arc::new(cat)
}

fn plan(cat: &Catalog, q: &Query, names: &[&str]) -> QueryRun {
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, q, Costing::SeqCost)
            .expect("plan"),
        bindings: names
            .iter()
            .map(|n| RelBinding { name: (*n).into(), pred: (i32::MIN, i32::MAX) })
            .collect(),
    }
}

fn scan(cat: &Catalog, name: &str) -> QueryRun {
    plan(cat, &Query::selection(name, 1.0), &[name])
}

fn join(cat: &Catalog) -> QueryRun {
    plan(cat, &Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build(), &["fat", "thin"])
}

fn policy() -> AdaptiveScheduler {
    AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()))
}

/// Run `f` on its own thread; fail instead of hanging the suite if it has
/// not returned within 30 s (a hung run's thread is left behind).
fn within_30s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(out) => {
            runner.join().expect("the run's thread sent its result");
            out
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: the master was still waiting after 30 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the run panicked"),
    }
}

/// A fault plan written straight into the field, with no builder call, still
/// makes the master tick, and a worker it kills is replaced: the dead slot's
/// unclaimed work is reclaimed and the scan returns the fault-free rows. At
/// 20× the 800-page scan outlasts a 2 ms tick many times over; unthrottled
/// it can finish before the first.
#[test]
fn a_fault_plan_set_through_the_field_still_replaces_a_dead_worker() {
    let cat = catalog();
    let baseline = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&[scan(&cat, "big")], &mut policy())
        .expect("fault-free run");
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 0, 2));
    let mut cfg = ExecConfig::scaled(20.0);
    cfg.faults = Some(plan.clone());
    let run_cat = cat.clone();
    let report = within_30s("a run whose worker died", move || {
        Executor::new(cfg, run_cat.clone()).run(&[scan(&run_cat, "big")], &mut policy())
    })
    .expect("the run must complete");

    assert_eq!(plan.stats().deaths_fired(), 1, "the worker death must fire");
    assert!(report.patrol_ticks > 0, "a run with a fault plan must tick");
    assert_eq!(report.worker_recoveries, plan.stats().deaths_fired(), "one replacement per death");
    assert_eq!(report.results[0].rows.rows, baseline.results[0].rows.rows);
    assert!(!report.results[0].rows.rows.is_empty(), "vacuous comparison");
    let run = scan(&cat, "big");
    let want = oracle::eval(&cat, &run.optimized.plan, &run.bindings);
    oracle::assert_matches("recovered scan", &report.results[0].rows.rows, &want);
}

/// Two joins share a session whose pool holds one build but not two. The
/// second build parks, and only the first run's completions free the pool:
/// its own master hears nothing, so it must retry admission on its tick.
#[test]
fn a_build_parked_behind_another_run_is_staffed_when_that_run_frees_the_pool() {
    let cat = catalog();
    let solo = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&[join(&cat)], &mut policy())
        .expect("solo join");
    let held = solo.profiles[0].fragments.iter().map(|f| f.declared_pages).max().unwrap_or(0);
    assert!(held > 0, "the premise: the join holds its build table");
    // Paced, so the first build is still running when the second arrives.
    let cfg = ExecConfig { bufpool_pages: (held + held / 2) as usize, ..ExecConfig::scaled(50.0) };

    let (reports, reserved, pinned) = within_30s("two joins on one pool", move || {
        let exec = Executor::new(cfg, cat.clone());
        let session = exec.session();
        let start = Barrier::new(2);
        let reports: Vec<ExecReport> = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        exec.run_shared(&session, &[join(&cat)], &mut policy(), &[])
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().expect("run thread").expect("run")).collect()
        });
        (reports, session.reserved_pages(), session.pinned_pages())
    });

    assert!(
        reports.iter().map(|r| r.mem_grant_waits).sum::<u64>() >= 1,
        "the premise: one build waited for the other run's grant"
    );
    for r in &reports {
        assert_eq!(r.results[0].rows.rows, solo.results[0].rows.rows);
        assert_eq!(r.mem_granted_pages, r.mem_released_pages, "grant ledger out of balance");
    }
    // A run's own exit count includes the other run's reads in flight; the
    // session's, taken once both are done, is the ledger.
    assert_eq!((reserved, pinned), (0, 0), "the session leaked a grant or a pin");
}

/// A token fired by hand while a private run's one fragment scans is seen
/// on the master's tick, not only when that fragment reports: the query is
/// cancelled with no rows, long before the scan could have finished.
#[test]
fn a_manual_cancel_stops_a_single_fragment_run_mid_scan() {
    let cat = catalog();
    let speedup = 20.0;
    let exec = Executor::new(ExecConfig::scaled(speedup), cat.clone());
    let token = CancelToken::new();
    let firer = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        })
    };
    let report = exec
        .run_with_cancel(&[scan(&cat, "big")], &mut policy(), &[token])
        .expect("a cancelled run still reports");
    firer.join().expect("firer");

    let pages = cat.get("big").expect("loaded").heap.n_blocks();
    let m = MachineConfig::paper_default();
    // Even at every disk's sequential rate the whole scan takes this long.
    let fastest_scan = pages as f64 / (f64::from(m.n_disks) * m.seq_bw) / speedup;
    let fragment = &report.profiles[0].fragments[0];
    assert!(report.profiles[0].cancelled, "the fired token was never seen");
    assert!(report.results[0].rows.rows.is_empty(), "a cancelled query keeps no rows");
    assert_eq!(report.pool_pinned_at_exit, 0);
    assert!(fragment.units < pages, "the scan ran to the end: {} units", fragment.units);
    assert!(
        report.wall < fastest_scan / 2.0,
        "cancelled after {:.3} s of a scan that takes at least {fastest_scan:.3} s",
        report.wall
    );
}

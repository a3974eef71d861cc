//! Backends are not processors: a fragment the policy gives `x = N`
//! processors is staffed with more than `N` backends (Little's law over the
//! parallel-read service time), and everything the executor promises must
//! hold there too — answers identical to the single-threaded oracle, at
//! most `N` backends computing at once, a balanced grant ledger and zero
//! pinned pages — fault-free, with a backend beyond slot `N` dying
//! mid-fragment, and with a query cancelled mid-fragment. Every scanning
//! backend keeps one page of read-ahead, so a death or a cancel always lands
//! on backends with a claimed page's read in flight: that page is collected,
//! its pin returned and its unit reported before the backend leaves.

use std::sync::Arc;
use std::time::Duration;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{
    CancelToken, ExecConfig, ExecReport, Executor, QueryRun, RelBinding,
};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "common/oracle.rs"]
mod oracle;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

/// `fat`: ~10 tuples a page over ~210 pages, so its scan is IO-bound
/// (C ≈ 80) and large enough to give thirteen backends a morsel each.
/// `thin` and `busy`: many tuples a page — CPU-heavy scans whose backends
/// contend for the processor gate (`busy` alone is ~6 simulated CPU-seconds).
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x57AF_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 2_100u64, 300u64, 800usize),
        ("thin", 6_000, 300, 16),
        ("busy", 24_000, 300, 16),
    ] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let a = (lcg(&mut seed) % key_mod) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
            .collect();
        cat.load(name, rows);
    }
    Arc::new(cat)
}

const ALL: (i32, i32) = (i32::MIN, i32::MAX);

fn scan_run(cat: &Arc<Catalog>, name: &str) -> QueryRun {
    let q = Query::selection(name, 1.0);
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: name.into(), pred: ALL }],
    }
}

fn join_run(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan"),
        bindings: vec![
            RelBinding { name: "fat".into(), pred: ALL },
            RelBinding { name: "thin".into(), pred: ALL },
        ],
    }
}

/// Starts every fragment the moment it arrives with all `N` processors and
/// never adjusts: the policy that makes backends exceed `N`.
struct AllProcessors {
    machine: MachineConfig,
    pending: Vec<TaskId>,
}

impl AllProcessors {
    fn new() -> Self {
        AllProcessors { machine: m(), pending: Vec::new() }
    }
}

impl SchedulePolicy for AllProcessors {
    fn name(&self) -> &'static str {
        "ALL-PROCESSORS"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.pending.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
        let x = f64::from(self.machine.n_procs);
        self.pending.drain(..).map(|id| Action::Start { id, parallelism: x }).collect()
    }
}

/// Scaled time, so compute bursts really hold their permit and the gate is
/// contended. A selection holds nothing in shared memory, so every run
/// below carries a join too: its build and probe give the grant ledger
/// something to balance.
fn cfg() -> ExecConfig {
    ExecConfig::scaled(20.0)
}

fn assert_clean(report: &ExecReport) {
    assert_eq!(
        report.mem_granted_pages, report.mem_released_pages,
        "grant ledger out of balance"
    );
    assert!(report.mem_granted_pages > 0, "grants never engaged");
    assert_eq!(report.pool_pinned_at_exit, 0, "pages still pinned at exit");
}

fn assert_matches_oracle(label: &str, cat: &Catalog, run: &QueryRun, report: &ExecReport, qi: usize) {
    let want = oracle::eval(cat, &run.optimized.plan, &run.bindings);
    assert!(!want.is_empty(), "{label}: vacuous query");
    oracle::assert_matches(label, &report.results[qi].rows.rows, &want);
}

#[test]
fn more_backends_than_processors_keep_answers_gate_and_ledgers() {
    let cat = catalog();
    let runs = vec![join_run(&cat), scan_run(&cat, "fat"), scan_run(&cat, "busy")];
    let exec = Executor::new(cfg(), cat.clone());
    let session = exec.session();
    let report = exec
        .run_shared(&session, &runs, &mut AllProcessors::new(), &[])
        .expect("run failed");

    // The premise: the policy spoke processors (8), the executor staffed
    // more backends than the machine has processors.
    let n = m().n_procs;
    let frags: Vec<_> = report.profiles.iter().flat_map(|q| &q.fragments).collect();
    assert!(frags.iter().all(|f| f.parallelism == n), "policy x must be reported as decided");
    assert!(frags.iter().all(|f| f.backends >= f.parallelism));
    assert!(
        frags.iter().any(|f| f.backends > n && f.staffed > u64::from(n)),
        "no fragment was staffed past N: {:?}",
        frags.iter().map(|f| (f.parallelism, f.backends)).collect::<Vec<_>>()
    );

    // The gate still admits at most N computing backends at any instant —
    // and was actually saturated, so the bound was exercised.
    let gate = session.machine().cpu();
    assert_eq!(gate.peak_holders(), n, "gate must saturate at, and never exceed, N");

    for (qi, run) in runs.iter().enumerate() {
        assert_matches_oracle(&format!("query {qi}"), &cat, run, &report, qi);
    }
    assert_clean(&report);
    assert_eq!(session.reserved_pages(), 0);
    assert_eq!(session.pinned_pages(), 0);
    session.shutdown();
}

#[test]
fn a_backend_beyond_slot_n_dies_and_the_answer_stands() {
    let cat = catalog();
    let runs = vec![scan_run(&cat, "fat"), join_run(&cat)];
    // Slot 10 exists only because backends exceed the 8 processors.
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 10, 3));
    let report = Executor::new(cfg().with_faults(plan.clone()), cat.clone())
        .run(&runs, &mut AllProcessors::new())
        .expect("run failed");
    assert_eq!(plan.stats().deaths_fired(), 1, "the death must fire on a surplus backend");
    assert!(report.worker_recoveries >= 1, "patrol must replace the dead backend");
    assert_matches_oracle("after death", &cat, &runs[0], &report, 0);
    assert_clean(&report);
}

#[test]
fn a_backend_dying_with_a_read_in_flight_finishes_that_page_and_returns_its_pin() {
    // The death is keyed to units *claimed*: slot 0 has claimed two pages
    // and evaluated one when it fires, so the second page's read — issued at
    // 20×, ≈ 0.8 ms of disk — is still in flight. Dropping that page would
    // lose its rows (and leak its pin); re-running it would duplicate them.
    let cat = catalog();
    let runs = vec![scan_run(&cat, "fat"), join_run(&cat)];
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 0, 2));
    let exec = Executor::new(cfg().with_faults(plan.clone()), cat.clone());
    let session = exec.session();
    let report = exec
        .run_shared(&session, &runs, &mut AllProcessors::new(), &[])
        .expect("run failed");
    assert_eq!(plan.stats().deaths_fired(), 1, "the death must fire");
    assert!(report.worker_recoveries >= 1, "patrol must replace the dead backend");
    assert_matches_oracle("after death", &cat, &runs[0], &report, 0);
    assert_clean(&report);
    assert_eq!(session.machine().pool_pinned(), 0, "a pin outlived its read");
    assert_eq!(session.reserved_pages(), 0);
    session.shutdown();
}

#[test]
fn a_query_cancelled_mid_fragment_releases_everything() {
    let cat = catalog();
    let runs = vec![scan_run(&cat, "fat"), scan_run(&cat, "thin"), join_run(&cat)];
    // Slow enough (~0.9 simulated s of disk at 20× ≈ 45 ms) that the
    // cancel lands while thirteen backends are mid-morsel, each with a
    // claimed page's read in flight — collected, unpinned and reported on
    // the way out (`assert_clean`: no pin, balanced ledger).
    let tokens = vec![CancelToken::new(), CancelToken::new(), CancelToken::new()];
    let firer = {
        let tok = tokens[0].clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tok.cancel();
        })
    };
    let report = Executor::new(cfg(), cat.clone())
        .run_with_cancel(&runs, &mut AllProcessors::new(), &tokens)
        .expect("a cancelled run still reports");
    firer.join().expect("cancel firer panicked");
    assert!(report.cancelled[0], "the cancel landed after the scan finished");
    assert!(report.results[0].rows.rows.is_empty(), "a cancelled query returns no rows");
    assert!(!report.cancelled[1]);
    assert_matches_oracle("survivor", &cat, &runs[1], &report, 1);
    assert_clean(&report);
}

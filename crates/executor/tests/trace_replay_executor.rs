//! Capture a structured decision trace from the *threaded* executor and
//! re-execute it against the analytic fluid model: the replay must derive
//! the identical whole-worker action sequence. Also exercises the typed
//! error path for misbehaving policies (the kit's scripted `Flipper` and
//! `Rogue`) — the run returns `ExecError::Sched` with every worker drained
//! instead of panicking or hanging. The root `tests/fixpoint_drivers.rs`
//! holds the same misdeeds to one answer on all three drivers.

use std::sync::Arc;

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecError, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::policy::FIXPOINT_ROUNDS;
use xprs_scheduler::trace::{
    action_signature, action_stream, replay_through_fluid, SharedSink, TraceRecord,
};
use xprs_scheduler::{MachineConfig, SchedError, TaskId};
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::policies::{Flipper, Misdeed, Rogue};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Two relations with strongly skewed scan costs, so the two fragments'
/// finish order is unambiguous for both the real machine and the model.
fn catalog() -> Arc<Catalog> {
    catalog_of(&[
        ("wide", 600, 100, 800), // IO-heavy: few tuples per page
        ("slim", 6000, 150, 16), // CPU-heavy: many tuples per page
    ])
}

fn catalog_of(rels: &[(&str, u64, u64, usize)]) -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xFEED_u64;
    for &(name, n, key_mod, blen) in rels {
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

fn full_scan_run(cat: &Arc<Catalog>, name: &str) -> QueryRun {
    let q = Query::selection(name, 1.0);
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    QueryRun {
        optimized,
        bindings: vec![RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) }],
    }
}

/// Full scans of `wide` and `slim` under INTER-WITH-ADJ with `cfg`,
/// traced: the report and the captured decision trace.
fn traced_run(cat: &Arc<Catalog>, cfg: ExecConfig) -> (ExecReport, Vec<TraceRecord>) {
    let runs = vec![full_scan_run(cat, "wide"), full_scan_run(cat, "slim")];
    let trace = SharedSink::default();
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let report = Executor::new(cfg, cat.clone())
        .with_trace(trace.clone())
        .run(&runs, &mut policy)
        .expect("traced run");
    let records = trace.lock().unwrap().clone();
    (report, records)
}

#[test]
fn executor_trace_replays_through_the_fluid_model() {
    let (_, records) = traced_run(&catalog(), ExecConfig::unthrottled());

    let recorded = action_stream(&records);
    assert!(!recorded.is_empty(), "executor trace must record decisions");

    // Re-execute the recorded event stream on the fluid model: the analytic
    // replay must re-derive the same schedule, whole worker for whole
    // worker, despite the capture running on a wall clock.
    let replayed = replay_through_fluid(&records).expect("fluid replay");
    assert_eq!(
        action_signature(&recorded, m().n_procs),
        action_signature(&replayed, m().n_procs),
        "threaded capture and fluid replay disagree"
    );
}

/// The policy records into the executor's sink: pairing the IO-bound
/// `wide` scan with the CPU-bound `slim` one evaluates a candidate.
#[test]
fn an_executor_trace_holds_the_policys_candidates() {
    let cat = catalog_of(&[("wide", 2_000, 100, 800), ("slim", 20_000, 150, 0)]);
    let (_, records) = traced_run(&cat, ExecConfig::unthrottled());
    assert!(records.iter().any(|r| matches!(r, TraceRecord::Candidate { .. })));
}

/// The executor staffs more backends than the policy assigns processors,
/// but everything the policy and the trace see stays in processors: the
/// recorded action signature of this pinned workload is the parent
/// commit's (PR 12, before Little's-law staffing), and every `Decide`
/// snapshot reports a running task at the parallelism the policy last gave
/// it — not at its backend count.
#[test]
fn trace_speaks_policy_parallelism_not_backends() {
    // Far enough apart in C_i that INTER-WITH-ADJ pairs the two scans at
    // their balance point, and so lopsided (1.5 against 50 simulated
    // seconds, a hundred times the tuples in real work) that `wide` always
    // finishes first and `slim` is adjusted while running. Throttled —
    // barely — because an unthrottled run has no disk wait to staff for.
    let cat = catalog_of(&[("wide", 2_000, 100, 800), ("slim", 200_000, 150, 0)]);
    let (report, records) = traced_run(&cat, ExecConfig::scaled(2_000.0));

    let (wide, slim) = (TaskId(0), TaskId(1 << 32));
    assert_eq!(
        action_signature(&action_stream(&records), m().n_procs),
        PARENT_SIGNATURE.map(|(q, start, x)| (if q == 0 { wide } else { slim }, start, x)),
        "staffing must not move a single policy decision"
    );

    // Replay the applied actions: each snapshot must echo the last one.
    let mut applied: std::collections::HashMap<TaskId, f64> = std::collections::HashMap::new();
    let mut snapshots = 0;
    for rec in &records {
        match rec {
            TraceRecord::Decide { running, .. } => {
                for r in running {
                    snapshots += 1;
                    let x = applied[&r.task].round().clamp(1.0, f64::from(m().n_procs));
                    assert_eq!(r.parallelism, x, "snapshot of {} is not the policy's x", r.task);
                }
            }
            TraceRecord::Applied { action, .. } => {
                applied.insert(action.task(), action.parallelism());
            }
            _ => {}
        }
    }
    assert!(snapshots > 0, "no decide record carried a running task");
    // Not vacuous: some fragment did run on more backends than processors.
    let frags: Vec<_> = report.profiles.iter().flat_map(|q| &q.fragments).collect();
    assert!(
        frags.iter().any(|f| f.backends > f.parallelism),
        "{:?}",
        frags.iter().map(|f| (f.parallelism, f.backends)).collect::<Vec<_>>()
    );
}

/// `(query, is_start, whole processors)` of every action the parent commit
/// recorded for `wide` + `slim` under INTER-WITH-ADJ.
const PARENT_SIGNATURE: [(u64, bool, u32); 3] = [(0, true, 2), (1, true, 6), (1, false, 8)];

#[test]
fn diverging_policy_surfaces_as_sched_error_with_drained_backends() {
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "slim")];
    let mut policy = Flipper::new(FIXPOINT_ROUNDS + 1);
    // Returning at all proves the drain: a leaked worker set would leave the
    // run blocked on the completion channel.
    let err = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut policy)
        .expect_err("divergence must surface");
    match err {
        ExecError::Sched { source, completed, total } => {
            assert_eq!(
                source,
                SchedError::FixpointDiverged { policy: "FLIPPER", rounds: FIXPOINT_ROUNDS }
            );
            assert_eq!((completed, total), (0, 1));
        }
        other => panic!("expected Sched error, got {other}"),
    }
}

#[test]
fn unknown_task_reference_surfaces_as_sched_error() {
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "slim")];
    let mut policy = Rogue::new(Misdeed::StartUnannounced(TaskId(0xDEAD)));
    let err = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut policy)
        .expect_err("unknown task must surface");
    assert!(
        matches!(
            err,
            ExecError::Sched { source: SchedError::UnknownTask { task: TaskId(0xDEAD) }, .. }
        ),
        "got {err}"
    );
}

#[test]
fn wedged_policy_surfaces_instead_of_hanging() {
    // A policy that never starts anything: the executor must detect the
    // wedge instead of blocking on the completion channel forever.
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "wide")];
    let mut policy = Rogue::new(Misdeed::Idle);
    let err = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut policy)
        .expect_err("wedge must surface");
    assert!(
        matches!(
            err,
            ExecError::Sched { source: SchedError::Wedged { policy: "ROGUE", unfinished: 1 }, .. }
        ),
        "got {err}"
    );
}

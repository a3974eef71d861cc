//! Capture a structured decision trace from the *threaded* executor and
//! re-execute it against the analytic fluid model: the replay must derive
//! the identical whole-worker action sequence. Also exercises the typed
//! error path for misbehaving policies — the run returns `ExecError::Sched`
//! with every worker drained instead of panicking or hanging.

use std::sync::{Arc, Mutex};

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecError, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy, FIXPOINT_ROUNDS};
use xprs_scheduler::trace::{
    action_signature, action_stream, parse_jsonl, replay_through_fluid, JsonlSink, SharedSink,
    TraceRecord,
};
use xprs_scheduler::{MachineConfig, SchedError, TaskId, TaskProfile};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

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
/// traced: the report and the parsed decision trace.
fn traced_run(cat: &Arc<Catalog>, cfg: ExecConfig) -> (ExecReport, Vec<TraceRecord>) {
    let runs = vec![full_scan_run(cat, "wide"), full_scan_run(cat, "slim")];
    let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())));
    let shared: SharedSink = sink.clone();
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let report = Executor::new(cfg, cat.clone())
        .with_trace(shared)
        .run(&runs, &mut policy)
        .expect("traced run");
    let Ok(cell) = Arc::try_unwrap(sink) else { unreachable!("sink still shared") };
    let owned = cell.into_inner().unwrap();
    assert!(owned.io_error().is_none());
    let text = String::from_utf8(owned.into_inner()).unwrap();
    (report, parse_jsonl(&text).expect("well-formed executor trace"))
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

/// A policy that flip-flops an Adjust forever: the executor must detect the
/// divergence, drain its workers, and return a typed error.
struct NeverSettles {
    machine: MachineConfig,
    started: Vec<TaskId>,
    flip: bool,
}

impl SchedulePolicy for NeverSettles {
    fn name(&self) -> &'static str {
        "NEVER-SETTLES"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.started.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        if let Some(id) = self.started.pop() {
            return vec![Action::Start { id, parallelism: 1.0 }];
        }
        let Some(r) = running.first() else { return vec![] };
        self.flip = !self.flip;
        let x = if self.flip { 2.0 } else { 3.0 };
        vec![Action::Adjust { id: r.profile.id, parallelism: x }]
    }
}

#[test]
fn diverging_policy_surfaces_as_sched_error_with_drained_backends() {
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "slim")];
    let mut policy = NeverSettles { machine: m(), started: Vec::new(), flip: false };
    // Returning at all proves the drain: a leaked worker set would leave the
    // run blocked on the completion channel.
    let err = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut policy)
        .expect_err("divergence must surface");
    match err {
        ExecError::Sched { source, completed, total } => {
            assert_eq!(
                source,
                SchedError::FixpointDiverged { policy: "NEVER-SETTLES", rounds: FIXPOINT_ROUNDS }
            );
            assert_eq!((completed, total), (0, 1));
        }
        other => panic!("expected Sched error, got {other}"),
    }
}

/// A policy that starts a task the executor never announced.
struct RogueStart {
    machine: MachineConfig,
    fired: bool,
}

impl SchedulePolicy for RogueStart {
    fn name(&self) -> &'static str {
        "ROGUE-START"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
        if self.fired {
            return vec![];
        }
        self.fired = true;
        vec![Action::Start { id: TaskId(0xDEAD), parallelism: 1.0 }]
    }
}

#[test]
fn unknown_task_reference_surfaces_as_sched_error() {
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "slim")];
    let mut policy = RogueStart { machine: m(), fired: false };
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

/// A policy that never starts anything: the executor must detect the wedge
/// instead of blocking on the completion channel forever.
struct DoNothing(MachineConfig);

impl SchedulePolicy for DoNothing {
    fn name(&self) -> &'static str {
        "DO-NOTHING"
    }
    fn machine(&self) -> &MachineConfig {
        &self.0
    }
    fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
        vec![]
    }
}

#[test]
fn wedged_policy_surfaces_instead_of_hanging() {
    let cat = catalog();
    let runs = vec![full_scan_run(&cat, "wide")];
    let mut policy = DoNothing(m());
    let err = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut policy)
        .expect_err("wedge must surface");
    assert!(
        matches!(
            err,
            ExecError::Sched {
                source: SchedError::Wedged { policy: "DO-NOTHING", unfinished: 1 },
                ..
            }
        ),
        "got {err}"
    );
}

//! Same core, three shells. The fluid driver, the DES and the threaded
//! executor run one decide loop (`policy::decide_fixpoint`) over one
//! fragment lifecycle (`FragTable`), so they cannot disagree at the edges:
//!
//! * a policy that acts for exactly `FIXPOINT_ROUNDS` rounds at one instant
//!   settles in all three, and one round more is `FixpointDiverged` in all
//!   three;
//! * a policy that breaks the lifecycle — starts a fragment nobody announced
//!   to it, starts one twice, adjusts one it never started, never starts
//!   anything — gets the same typed `SchedError` whichever driver it broke
//!   it in;
//! * every driver ends a failed run's trace with the `Error` record of the
//!   failure, and keeps its own extras: the DES a partial report, the
//!   executor its completion progress and a drained return.
//!
//! Each case runs a fresh policy through every driver that can express its
//! input ([`assert_everywhere`]) and compares the answers in one table.

use std::sync::Arc;

use xprs_disk::{DiskParams, RelId, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::policy::{SchedulePolicy, FIXPOINT_ROUNDS};
use xprs_scheduler::trace::{SharedSink, TraceRecord};
use xprs_scheduler::{IoKind, MachineConfig, SchedError, TaskId, TaskProfile};
use xprs_sim::{SimConfig, SimTask, Simulator};
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;
use xprs_testkit::policies::{Flipper, Misdeed, Rogue};

/// What a driver is given to run.
#[derive(Clone, Copy)]
enum Shape {
    /// One task, runnable at time zero.
    One,
    /// The executor's join: a consumer fragment blocked on its producers.
    /// The fluid driver runs the same fragment DAG. Not expressible in the
    /// DES, whose input has no dependencies.
    Chain,
    /// Two tasks, the second arriving five seconds in. Not expressible in
    /// the executor, whose fragments are all submitted at time zero.
    Late,
}

fn task(id: u64) -> TaskProfile {
    TaskProfile::new(TaskId(id), 2.0, 10.0, IoKind::Sequential)
}

/// The records `sink` holds.
fn records(sink: &SharedSink) -> Vec<TraceRecord> {
    sink.lock().expect("trace sink").clone()
}

/// A failed run's trace ends with the `Error` record of `message`.
fn assert_trailing_error(driver: &str, trace: &[TraceRecord], message: &str) {
    match trace.last() {
        Some(TraceRecord::Error { message: m, .. }) => assert_eq!(m, message, "{driver}"),
        other => panic!("{driver}: expected a trailing Error record, got {other:?}"),
    }
}

fn fluid(policy: &mut dyn SchedulePolicy, shape: Shape) -> Result<(), SchedError> {
    let sink = SharedSink::default();
    let sim = FluidSim::new(MachineConfig::paper_default()).with_sink(sink.clone());
    let outcome = match shape {
        Shape::One => sim.run(policy, &[task(0)]),
        Shape::Chain => sim.run_dag(policy, &query(&catalog(), shape).optimized.fragments.dag()),
        Shape::Late => sim.run_with_arrivals(policy, &[(task(0), 0.0), (task(1), 5.0)]),
    };
    if let Err(err) = &outcome {
        assert_trailing_error("fluid", &records(&sink), &err.to_string());
    }
    outcome.map(drop)
}

fn des(policy: &mut dyn SchedulePolicy, shape: Shape) -> Result<(), SchedError> {
    let m = MachineConfig::paper_default();
    let params = DiskParams::from_rates(m.seq_bw, m.almost_seq_bw, m.random_bw);
    let sim_task = |id: u64| {
        SimTask::from_profile(task(id), RelId(id + 1), &params).expect("realizable rate")
    };
    let arrivals = match shape {
        Shape::One => vec![(sim_task(0), 0.0)],
        Shape::Late => vec![(sim_task(0), 0.0), (sim_task(1), 5.0)],
        Shape::Chain => unreachable!("the DES takes no dependencies"),
    };
    let sink = SharedSink::default();
    let err = match Simulator::new(SimConfig::paper_default())
        .with_trace(sink.clone())
        .run(policy, &arrivals)
    {
        Ok(_) => return Ok(()),
        Err(err) => err,
    };
    assert_trailing_error("DES", &records(&sink), &err.source.to_string());
    // The partial report still holds every task, and the error names its
    // cause.
    assert_eq!(err.partial.task_times.len(), arrivals.len(), "DES partial report");
    assert!(err.to_string().contains(&err.source.to_string()), "DES error text: {err}");
    Err(err.source)
}

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    for name in ["r", "s"] {
        cat.create(name, Schema::paper_rel());
        cat.load(
            name,
            (0..400).map(|i| Tuple::from_values(vec![Datum::Int(i), Datum::Text("x".repeat(64))])),
        );
    }
    Arc::new(cat)
}

/// The executor's query for `shape`.
fn query(cat: &Catalog, shape: Shape) -> QueryRun {
    let everything = |name: &str| RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) };
    let (q, bindings) = match shape {
        Shape::One => (Query::selection("r", 1.0), vec![everything("r")]),
        Shape::Chain => (
            Query::join().rel("r", 1.0).rel("s", 1.0).on(0, 1).build(),
            vec![everything("r"), everything("s")],
        ),
        Shape::Late => unreachable!("the executor takes no arrival times"),
    };
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    QueryRun { optimized, bindings }
}

/// The id of the join's first fragment that waits on a producer.
fn blocked_consumer() -> TaskId {
    let dag = query(&catalog(), Shape::Chain).optimized.fragments.dag();
    let blocked = (0..dag.len()).find(|&i| !dag.deps_of(i).is_empty());
    TaskId(blocked.expect("a join plan has a fragment that waits on a producer") as u64)
}

fn executor(policy: &mut dyn SchedulePolicy, shape: Shape) -> Result<(), SchedError> {
    let cat = catalog();
    let run = query(&cat, shape);
    let sink = SharedSink::default();
    // Returning at all proves the drain: a leaked worker set would leave the
    // run blocked on its completion channel.
    let err = match Executor::new(ExecConfig::unthrottled(), cat.clone())
        .with_trace(sink.clone())
        .run(std::slice::from_ref(&run), policy)
    {
        Ok(report) => {
            let want = oracle::eval(&cat, &run.optimized.plan, &run.bindings);
            assert!(!want.is_empty(), "vacuous query");
            oracle::assert_matches("executor", &report.results[0].rows.rows, &want);
            return Ok(());
        }
        Err(err) => err,
    };
    assert_trailing_error("executor", &records(&sink), &err.to_string());
    match err {
        ExecError::Sched { source, completed, total } => {
            let fragments = run.optimized.fragments.fragments.len();
            assert_eq!((completed, total), (0, fragments), "executor progress");
            Err(source)
        }
        other => panic!("executor: unexpected failure: {other}"),
    }
}

/// A fresh policy from `make` gets `want` from every driver that can
/// express `shape`.
fn assert_everywhere<P: SchedulePolicy>(
    shape: Shape,
    make: impl Fn() -> P,
    want: Result<(), SchedError>,
) {
    let mut answers = vec![("fluid", fluid(&mut make(), shape))];
    if !matches!(shape, Shape::Chain) {
        answers.push(("DES", des(&mut make(), shape)));
    }
    if !matches!(shape, Shape::Late) {
        answers.push(("executor", executor(&mut make(), shape)));
    }
    for (driver, got) in answers {
        assert_eq!(got, want, "{driver}");
    }
}

#[test]
fn all_three_drivers_settle_on_the_last_round_and_diverge_on_the_next() {
    let diverged = SchedError::FixpointDiverged { policy: "FLIPPER", rounds: FIXPOINT_ROUNDS };
    assert_everywhere(Shape::One, || Flipper::new(FIXPOINT_ROUNDS), Ok(()));
    assert_everywhere(Shape::One, || Flipper::new(FIXPOINT_ROUNDS + 1), Err(diverged));
}

#[test]
fn starting_a_task_the_run_does_not_hold_is_an_unknown_task_everywhere() {
    let rogue = || Rogue::new(Misdeed::StartUnannounced(TaskId(999)));
    assert_everywhere(Shape::One, rogue, Err(SchedError::UnknownTask { task: TaskId(999) }));
}

#[test]
fn starting_a_consumer_before_its_producer_finished_is_an_unknown_task_everywhere() {
    // The policy was never told about the consumer, so it names a task
    // outside its universe. (Before the shared table the fluid driver let
    // the start through and reported a wedge much later.)
    let consumer = blocked_consumer();
    let rogue = || Rogue::new(Misdeed::StartUnannounced(consumer));
    assert_everywhere(Shape::Chain, rogue, Err(SchedError::UnknownTask { task: consumer }));
}

#[test]
fn starting_a_task_before_it_arrives_is_an_unknown_task_everywhere() {
    // (Before the shared table both drivers started it ahead of its time.)
    let early = || Rogue::new(Misdeed::StartUnannounced(TaskId(1)));
    assert_everywhere(Shape::Late, early, Err(SchedError::UnknownTask { task: TaskId(1) }));
}

#[test]
fn starting_a_task_twice_is_already_running_everywhere() {
    let twice = || Rogue::new(Misdeed::StartTwice);
    assert_everywhere(Shape::One, twice, Err(SchedError::AlreadyRunning { task: TaskId(0) }));
}

#[test]
fn adjusting_a_task_that_never_ran_is_not_running_everywhere() {
    // (Before the shared table the DES and the executor dropped the action
    // silently and the run ended as a wedge.)
    let adjust = || Rogue::new(Misdeed::AdjustUnstarted);
    assert_everywhere(Shape::One, adjust, Err(SchedError::NotRunning { task: TaskId(0) }));
}

#[test]
fn a_policy_that_starts_nothing_is_wedged_everywhere() {
    // No driver blocks forever on a run that cannot progress.
    let idle = || Rogue::new(Misdeed::Idle);
    assert_everywhere(Shape::One, idle, Err(SchedError::Wedged { policy: "ROGUE", unfinished: 1 }));
}

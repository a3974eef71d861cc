//! Same core, three shells. The fluid driver, the DES and the threaded
//! executor run one decide loop (`policy::decide_fixpoint`) over one
//! fragment lifecycle (`FragTable`), so they cannot disagree at the edges:
//!
//! * a policy that acts for exactly `FIXPOINT_ROUNDS` rounds at one instant
//!   settles in all three, and one round more is `FixpointDiverged` in all
//!   three — a captured executor trace and its fluid replay agree;
//! * a policy that breaks the lifecycle — starts a fragment nobody announced
//!   to it, starts one twice, adjusts one it never started — gets the same
//!   typed `SchedError` whichever driver it broke it in.

use std::sync::Arc;

use xprs_disk::{DiskParams, RelId, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::policy::{SchedulePolicy, FIXPOINT_ROUNDS};
use xprs_scheduler::{FragmentDag, IoKind, MachineConfig, SchedError, TaskId, TaskProfile};
use xprs_sim::{SimConfig, SimTask, Simulator};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "../crates/scheduler/tests/common/flipper.rs"]
mod flipper;
use flipper::Flipper;
#[path = "../crates/scheduler/tests/common/rogue.rs"]
mod rogue;
use rogue::{Misdeed, Rogue};

/// What a driver is given to run.
#[derive(Clone, Copy)]
enum Shape {
    /// One task, runnable at time zero.
    One,
    /// A producer and the consumer it blocks. Not expressible in the DES,
    /// whose input has no dependencies.
    Chain,
    /// Two tasks, the second arriving five seconds in. Not expressible in
    /// the executor, whose fragments are all submitted at time zero.
    Late,
}

fn task(id: u64) -> TaskProfile {
    TaskProfile::new(TaskId(id), 2.0, 10.0, IoKind::Sequential)
}

fn fluid(policy: &mut dyn SchedulePolicy, shape: Shape) -> Result<(), SchedError> {
    let sim = FluidSim::new(MachineConfig::paper_default());
    match shape {
        Shape::One => sim.run(policy, &[task(0)]),
        Shape::Chain => {
            let mut dag = FragmentDag::new();
            let producer = dag.add(task(0), &[]);
            dag.add(task(1), &[producer]);
            sim.run_dag(policy, &dag)
        }
        Shape::Late => sim.run_with_arrivals(policy, &[(task(0), 0.0), (task(1), 5.0)]),
    }
    .map(drop)
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
    Simulator::new(SimConfig::paper_default())
        .run(policy, &arrivals)
        .map(drop)
        .map_err(|e| e.source)
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

/// The executor's query for `shape`, and the id of its first fragment that
/// waits on a producer (if it has one).
fn query(cat: &Catalog, shape: Shape) -> (QueryRun, Option<TaskId>) {
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
    let dag = optimized.fragments.dag();
    let blocked = (0..dag.len()).find(|&i| !dag.deps_of(i).is_empty()).map(|i| TaskId(i as u64));
    (QueryRun { optimized, bindings }, blocked)
}

/// `Ok(rows)` of a finished run, or the policy's typed failure.
fn executor(policy: &mut dyn SchedulePolicy, shape: Shape) -> Result<usize, SchedError> {
    let cat = catalog();
    let (run, _) = query(&cat, shape);
    match Executor::new(ExecConfig::unthrottled(), cat).run(&[run], policy) {
        Ok(report) => Ok(report.results[0].rows.rows.len()),
        Err(ExecError::Sched { source, .. }) => Err(source),
        Err(other) => panic!("unexpected failure: {other}"),
    }
}

#[test]
fn all_three_drivers_settle_on_the_last_round_and_diverge_on_the_next() {
    let diverged = SchedError::FixpointDiverged { policy: "FLIPPER", rounds: FIXPOINT_ROUNDS };
    let settled = |rounds| Flipper::new(rounds);
    assert_eq!(fluid(&mut settled(FIXPOINT_ROUNDS), Shape::One), Ok(()));
    assert_eq!(des(&mut settled(FIXPOINT_ROUNDS), Shape::One), Ok(()));
    assert_eq!(executor(&mut settled(FIXPOINT_ROUNDS), Shape::One), Ok(400), "must finish");
    assert_eq!(fluid(&mut settled(FIXPOINT_ROUNDS + 1), Shape::One), Err(diverged.clone()));
    assert_eq!(des(&mut settled(FIXPOINT_ROUNDS + 1), Shape::One), Err(diverged.clone()));
    assert_eq!(executor(&mut settled(FIXPOINT_ROUNDS + 1), Shape::One).err(), Some(diverged));
}

#[test]
fn starting_a_consumer_before_its_producer_finished_is_an_unknown_task_everywhere() {
    // The policy was never told about the consumer, so it names a task
    // outside its universe. (Before the shared table the fluid driver let
    // the start through and reported a wedge much later.)
    let (_, blocked) = query(&catalog(), Shape::Chain);
    let consumer = blocked.expect("a join plan has a fragment that waits on a producer");
    let unknown = |task| Err(SchedError::UnknownTask { task });
    let rogue = |id| Rogue::new(Misdeed::StartUnannounced(id));
    assert_eq!(fluid(&mut rogue(TaskId(1)), Shape::Chain), unknown(TaskId(1)));
    assert_eq!(executor(&mut rogue(consumer), Shape::Chain).map(drop), unknown(consumer));
}

#[test]
fn starting_a_task_before_it_arrives_is_an_unknown_task_everywhere() {
    // (Before the shared table both drivers started it ahead of its time.)
    let early = || Rogue::new(Misdeed::StartUnannounced(TaskId(1)));
    let unknown = Err(SchedError::UnknownTask { task: TaskId(1) });
    assert_eq!(fluid(&mut early(), Shape::Late), unknown);
    assert_eq!(des(&mut early(), Shape::Late), unknown);
}

#[test]
fn starting_a_task_twice_is_already_running_everywhere() {
    let twice = || Rogue::new(Misdeed::StartTwice);
    let already = SchedError::AlreadyRunning { task: TaskId(0) };
    assert_eq!(fluid(&mut twice(), Shape::One), Err(already.clone()));
    assert_eq!(des(&mut twice(), Shape::One), Err(already.clone()));
    assert_eq!(executor(&mut twice(), Shape::One), Err(already));
}

#[test]
fn adjusting_a_task_that_never_ran_is_not_running_everywhere() {
    // (Before the shared table the DES and the executor dropped the action
    // silently and the run ended as a wedge.)
    let adjust = || Rogue::new(Misdeed::AdjustUnstarted);
    let not_running = SchedError::NotRunning { task: TaskId(0) };
    assert_eq!(fluid(&mut adjust(), Shape::One), Err(not_running.clone()));
    assert_eq!(des(&mut adjust(), Shape::One), Err(not_running.clone()));
    assert_eq!(executor(&mut adjust(), Shape::One), Err(not_running));
}

//! The edge of the shared decide loop: a policy that emits actions for
//! exactly `FIXPOINT_ROUNDS` rounds at one instant settles (the driver
//! probes once more and finds it quiet), one more round diverges. Held here
//! on `decide_fixpoint` directly and through the fluid driver; the root
//! `tests/fixpoint_drivers.rs` holds the DES and the executor to the same
//! two outcomes.

use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::policy::{decide_fixpoint, Action, RunningTask, SchedulePolicy, FIXPOINT_ROUNDS};
use xprs_scheduler::trace::{SharedSink, TraceRecord};
use xprs_scheduler::{IoKind, MachineConfig, SchedError, TaskId, TaskProfile};
use xprs_testkit::policies::Flipper;

fn task() -> TaskProfile {
    TaskProfile::new(TaskId(0), 10.0, 10.0, IoKind::Sequential)
}

fn diverged() -> SchedError {
    SchedError::FixpointDiverged { policy: "FLIPPER", rounds: FIXPOINT_ROUNDS }
}

/// Drive `decide_fixpoint` over a one-task driver state; returns the
/// outcome and the `(Decide, Applied)` record counts.
fn drive(rounds: u32) -> (Result<(), SchedError>, usize, usize) {
    let mut policy = Flipper::new(rounds);
    policy.on_arrival(0.0, task());
    let trace = SharedSink::default();
    let sink: Option<SharedSink> = Some(trace.clone());
    let mut running: Vec<RunningTask> = Vec::new();
    let outcome = decide_fixpoint(
        &mut policy,
        &sink,
        0.0,
        &mut running,
        |running| running.clone(),
        |running, a| {
            match a {
                Action::Start { parallelism, .. } => running.push(RunningTask {
                    profile: task(),
                    parallelism: *parallelism,
                    remaining_seq_time: 10.0,
                }),
                Action::Adjust { parallelism, .. } => running[0].parallelism = *parallelism,
            }
            Ok::<bool, SchedError>(true)
        },
    );
    let records = trace.lock().unwrap().clone();
    let count = |f: fn(&TraceRecord) -> bool| records.iter().filter(|r| f(r)).count();
    (
        outcome,
        count(|r| matches!(r, TraceRecord::Decide { .. })),
        count(|r| matches!(r, TraceRecord::Applied { .. })),
    )
}

#[test]
fn the_last_allowed_round_settles_and_one_more_diverges() {
    let n = FIXPOINT_ROUNDS as usize;
    assert_eq!(drive(FIXPOINT_ROUNDS), (Ok(()), n, n));
    // The probe's batch is never recorded or applied.
    assert_eq!(drive(FIXPOINT_ROUNDS + 1), (Err(diverged()), n, n));
    assert_eq!(drive(3), (Ok(()), 3, 3));
}

#[test]
fn an_action_the_driver_drops_is_decided_but_not_recorded_as_applied() {
    let mut policy = Flipper::new(2);
    policy.on_arrival(0.0, task());
    let trace = SharedSink::default();
    let sink: Option<SharedSink> = Some(trace.clone());
    decide_fixpoint(&mut policy, &sink, 0.0, &mut (), |_| Vec::new(), |_, _| {
        Ok::<bool, SchedError>(false)
    })
    .expect("settles");
    let records = trace.lock().unwrap().clone();
    assert_eq!(records.len(), 2, "two Decide records, no Applied: {records:?}");
    assert!(records.iter().all(|r| matches!(r, TraceRecord::Decide { .. })));
}

#[test]
fn the_fluid_driver_agrees_at_the_edge() {
    let fluid = FluidSim::new(MachineConfig::paper_default());
    let settled = fluid.run(&mut Flipper::new(FIXPOINT_ROUNDS), &[task()]).expect("settles");
    assert_eq!(settled.task_times.len(), 1);
    let err = fluid.run(&mut Flipper::new(FIXPOINT_ROUNDS + 1), &[task()]).unwrap_err();
    assert_eq!(err, diverged());
}

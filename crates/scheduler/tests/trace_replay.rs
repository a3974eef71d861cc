//! The trace-replay checker: the decision trace captured from a live run
//! must re-execute against the fluid model to the identical action
//! sequence, and a tampered trace must be rejected with a typed error.

use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::trace::{
    action_signature, action_stream, replay_decisions, replay_through_fluid, to_jsonl,
    SharedSink, TraceRecord,
};
use xprs_scheduler::{IoKind, MachineConfig, SchedError, TaskId, TaskProfile};

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

fn seq(id: u64, seq_time: f64, rate: f64) -> TaskProfile {
    TaskProfile::new(TaskId(id), seq_time, rate, IoKind::Sequential)
}

/// Capture the records of a fluid run of `tasks` under INTER-WITH-ADJ.
fn capture(tasks: &[TaskProfile]) -> Vec<TraceRecord> {
    let sink = SharedSink::default();
    let mut p = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    FluidSim::new(m()).with_sink(sink.clone()).run(&mut p, tasks).expect("capture run");
    let records = sink.lock().unwrap().clone();
    records
}

#[test]
fn recorded_trace_replays_to_the_identical_action_sequence() {
    let tasks = vec![seq(0, 30.0, 65.0), seq(1, 30.0, 8.0), seq(2, 12.0, 40.0)];
    let records = capture(&tasks);

    let recorded = action_stream(&records);
    assert!(!recorded.is_empty(), "capture must contain decisions");

    let replayed = replay_through_fluid(&records).expect("replay");
    let n = m().n_procs;
    assert_eq!(
        action_signature(&recorded, n),
        action_signature(&replayed, n),
        "fluid replay must re-derive the recorded schedule"
    );
}

#[test]
fn replay_is_deterministic_across_repeated_captures() {
    let tasks = vec![seq(0, 20.0, 60.0), seq(1, 20.0, 10.0)];
    let a = to_jsonl(&capture(&tasks));
    let b = to_jsonl(&capture(&tasks));
    assert_eq!(a, b, "same inputs must serialize to byte-identical traces");
}

#[test]
fn tampered_decision_is_rejected_with_replay_mismatch() {
    let tasks = vec![seq(0, 30.0, 65.0), seq(1, 30.0, 8.0)];
    let mut records = capture(&tasks);

    // Corrupt the first recorded decision's parallelism.
    let decide = records
        .iter_mut()
        .find_map(|r| match r {
            TraceRecord::Decide { actions, .. } if !actions.is_empty() => Some(actions),
            _ => None,
        })
        .expect("trace has a decision");
    match &mut decide[0] {
        xprs_scheduler::policy::Action::Start { parallelism, .. }
        | xprs_scheduler::policy::Action::Adjust { parallelism, .. } => {
            *parallelism += 1.0;
        }
    }

    let mut fresh = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
    let err = replay_decisions(&records, &mut fresh).expect_err("tampering must be caught");
    assert!(
        matches!(err, SchedError::ReplayMismatch { .. }),
        "expected ReplayMismatch, got {err}"
    );
}

#[test]
fn trace_without_run_start_cannot_replay() {
    let tasks = vec![seq(0, 10.0, 50.0), seq(1, 10.0, 12.0)];
    let records: Vec<TraceRecord> = capture(&tasks)
        .into_iter()
        .filter(|r| !matches!(r, TraceRecord::RunStart { .. }))
        .collect();
    let err = replay_through_fluid(&records).expect_err("headerless trace must be rejected");
    assert!(matches!(err, SchedError::MalformedTrace { .. }));
}

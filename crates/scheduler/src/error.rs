//! Typed errors for the scheduling/execution control path.
//!
//! The paper's whole contribution is the adaptive master loop — classify,
//! pair, balance, adjust — so a control-path anomaly (a policy that never
//! reaches a fixpoint, a completion for a task that is not running, an
//! action naming an unknown task) is a *scheduler bug report*, not a reason
//! to abort the process. Every driver — the fluid estimator
//! ([`crate::fluid`]), the discrete-event simulator (`xprs-sim`) and the
//! threaded executor (`xprs-executor`) — surfaces these conditions as
//! [`SchedError`] values: backends are drained, partial statistics are
//! returned, and the decision trace captured by [`crate::trace`] turns the
//! failure into a replayable artifact.

use crate::task::TaskId;

/// A control-path failure in a scheduling policy or its driver.
///
/// These are *protocol* violations between a [`crate::policy::SchedulePolicy`]
/// and the driver executing its actions. Data-structure invariants (a page
/// partition handing out a block twice, a disk completing an I/O it never
/// started) remain `debug_assert`s: they indicate memory-safety-adjacent
/// corruption, not a bad scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// `decide()` kept returning actions for `rounds` consecutive rounds at
    /// one instant; the policy's start/adjust stream never reached a
    /// fixpoint, so the driver refused to spin forever.
    FixpointDiverged {
        /// Name of the diverging policy.
        policy: &'static str,
        /// Rounds the driver allowed before giving up.
        rounds: u32,
    },
    /// An action referenced a task the driver has never been told about.
    UnknownTask {
        /// The unknown task id.
        task: TaskId,
    },
    /// A `Start` named a task that is already running (or otherwise not in
    /// a startable state).
    AlreadyRunning {
        /// The doubly-started task.
        task: TaskId,
    },
    /// An `Adjust` named a task that is not currently running.
    NotRunning {
        /// The adjusted-but-idle task.
        task: TaskId,
    },
    /// A completion was delivered for a task/fragment that is not running —
    /// a duplicate `FragmentDone`, or a completion raced past a retirement.
    DuplicateCompletion {
        /// The already-finished task.
        task: TaskId,
    },
    /// An action carried a non-positive or non-finite degree of parallelism.
    InvalidParallelism {
        /// The task the action named.
        task: TaskId,
        /// The offending parallelism.
        parallelism: f64,
    },
    /// A task profile failed validation at the policy boundary (zero or
    /// non-finite `seq_time`/`io_rate`, negative memory), or asks the DES for
    /// an `io_rate` no disk stream can deliver. Profiles built by
    /// [`crate::task::TaskProfile::new`] cannot trip the first; struct-literal
    /// snapshots (as [`crate::policy::RunningTask`] allows) can.
    InvalidProfile {
        /// The invalid task.
        task: TaskId,
        /// Which field failed validation.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The policy wedged: tasks remain but nothing is running and no future
    /// event can unblock it.
    Wedged {
        /// Name of the wedged policy.
        policy: &'static str,
        /// Tasks that will never run.
        unfinished: usize,
    },
    /// A replay/simulation ended with tasks incomplete (step budget
    /// exhausted or the driver stopped early).
    Incomplete {
        /// Name of the policy being driven.
        policy: &'static str,
        /// Tasks completed before the driver stopped.
        completed: usize,
        /// Tasks the run was supposed to complete.
        total: usize,
    },
    /// A recorded decision stream did not reproduce under replay.
    ReplayMismatch {
        /// Index of the first diverging decision record.
        index: usize,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// A trace named a policy the replayer cannot reconstruct.
    UnknownPolicy {
        /// The unrecognised policy name.
        name: String,
    },
    /// A trace cannot be replayed: it has no `run_start` header or no
    /// arrival.
    MalformedTrace {
        /// What was missing.
        detail: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::FixpointDiverged { policy, rounds } => {
                write!(f, "policy {policy} did not reach a fixpoint in {rounds} rounds")
            }
            SchedError::UnknownTask { task } => {
                write!(f, "policy referenced unknown task {task}")
            }
            SchedError::AlreadyRunning { task } => {
                write!(f, "policy started task {task} which is already running")
            }
            SchedError::NotRunning { task } => {
                write!(f, "policy adjusted task {task} which is not running")
            }
            SchedError::DuplicateCompletion { task } => {
                write!(f, "completion delivered for non-running task {task}")
            }
            SchedError::InvalidParallelism { task, parallelism } => {
                write!(f, "action on task {task} carries invalid parallelism {parallelism}")
            }
            SchedError::InvalidProfile { task, field, value } => {
                write!(f, "task {task} has invalid profile: {field} = {value}")
            }
            SchedError::Wedged { policy, unfinished } => {
                write!(f, "policy {policy} wedged with {unfinished} task(s) unfinished")
            }
            SchedError::Incomplete { policy, completed, total } => {
                write!(f, "replay of {policy} stopped after completing {completed}/{total} tasks")
            }
            SchedError::ReplayMismatch { index, detail } => {
                write!(f, "trace replay diverged at record {index}: {detail}")
            }
            SchedError::UnknownPolicy { name } => {
                write!(f, "trace names unknown policy {name:?}")
            }
            SchedError::MalformedTrace { detail } => write!(f, "malformed trace: {detail}"),
        }
    }
}

impl std::error::Error for SchedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SchedError::FixpointDiverged { policy: "INTER-WITH-ADJ", rounds: 32 };
        let s = e.to_string();
        assert!(s.contains("INTER-WITH-ADJ") && s.contains("32"), "{s}");
        let e = SchedError::DuplicateCompletion { task: TaskId(7) };
        assert!(e.to_string().contains("f7"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SchedError::UnknownTask { task: TaskId(1) });
    }
}

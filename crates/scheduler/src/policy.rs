//! The driver-facing scheduling policy abstraction.
//!
//! A *driver* — the fluid estimator ([`crate::fluid`]), the discrete-event
//! simulator (`xprs-sim`) or the threaded executor (`xprs-executor`) — owns
//! the clock and the running tasks. It forwards arrivals and completions to
//! the policy and, after each batch of simultaneous events, asks the policy
//! to [`decide`](SchedulePolicy::decide) what to start or adjust.
//!
//! The contract:
//!
//! * the driver never starts or resizes a task on its own;
//! * `decide` may be called at any time and must be idempotent — returning
//!   no actions when nothing should change;
//! * `remaining_seq_time` in [`RunningTask`] is the driver's best estimate
//!   of the sequential-time-equivalent work the task still has to do, which
//!   is what the policy feeds back into the balance equations when it
//!   re-pairs a running task.

use crate::error::SchedError;
use crate::machine::MachineConfig;
use crate::task::{TaskId, TaskProfile};
use crate::trace::{emit, RunningSnap, SharedSink, TraceRecord};

/// Snapshot of one currently-running task, supplied by the driver.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningTask {
    /// The task's original profile.
    pub profile: TaskProfile,
    /// Degree of parallelism it currently runs with.
    pub parallelism: f64,
    /// Sequential-time-equivalent work left (`T_i` minus progress).
    pub remaining_seq_time: f64,
}

impl RunningTask {
    /// The profile re-expressed with the remaining work as its length, which
    /// is what balance/estimate computations over a running task need.
    pub fn remaining_profile(&self) -> TaskProfile {
        TaskProfile {
            seq_time: self.remaining_seq_time.max(f64::MIN_POSITIVE),
            ..self.profile.clone()
        }
    }
}

/// An instruction from the policy to the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Begin executing a not-yet-started task with the given parallelism.
    Start {
        /// Task to start.
        id: TaskId,
        /// Degree of intra-operation parallelism to start with.
        parallelism: f64,
    },
    /// Change the parallelism of a running task (the Section 2.4 protocols).
    Adjust {
        /// Running task to resize.
        id: TaskId,
        /// New degree of parallelism.
        parallelism: f64,
    },
}

impl Action {
    /// The task this action applies to.
    pub fn task(&self) -> TaskId {
        match *self {
            Action::Start { id, .. } | Action::Adjust { id, .. } => id,
        }
    }

    /// The parallelism this action requests.
    pub fn parallelism(&self) -> f64 {
        match *self {
            Action::Start { parallelism, .. } | Action::Adjust { parallelism, .. } => parallelism,
        }
    }
}

/// A processor-scheduling policy: decides which runnable plan fragments to
/// execute, with what degree of parallelism, and when to adjust them.
pub trait SchedulePolicy {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The machine this policy plans for.
    fn machine(&self) -> &MachineConfig;

    /// A new runnable task entered the system at time `now`.
    fn on_arrival(&mut self, now: f64, task: TaskProfile);

    /// Task `id` finished at time `now`.
    fn on_finish(&mut self, now: f64, id: TaskId);

    /// After all events at `now` are delivered, return the starts/adjusts to
    /// apply. `running` describes every task currently executing (with the
    /// parallelism the driver last applied, and remaining work).
    fn decide(&mut self, now: f64, running: &[RunningTask]) -> Vec<Action>;

    /// The driver measured the machine and found it differs from the model:
    /// adopt `machine` as the planning basis from `now` on. Drivers call
    /// this when observed bandwidth drifts outside the recalibration band
    /// (e.g. a degraded disk); the default ignores it, so policies that
    /// plan against nominal rates only are unaffected.
    fn recalibrate(&mut self, now: f64, machine: MachineConfig) {
        let _ = (now, machine);
    }

    /// Record the policy's own reasoning (queues, candidates, rejections)
    /// into `sink`. Every driver calls this at run start with its own sink,
    /// so the two interleave in event order; the default records nothing.
    fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        let _ = sink;
    }
}

/// Rounds of `decide()` a driver allows at one instant before declaring
/// [`SchedError::FixpointDiverged`].
pub const FIXPOINT_ROUNDS: u32 = 32;

/// Let `policy` reach a fixpoint of starts/adjusts at instant `now` — the
/// one decide loop all three drivers run.
///
/// Each round snapshots the driver's running tasks, asks the policy to
/// decide, records the batch as [`TraceRecord::Decide`], then validates and
/// applies each action in order, recording [`TraceRecord::Applied`] for
/// those `apply` reports applied (`Ok(false)` drops an action silently —
/// the executor's stale action aimed at a cancelled query). The loop
/// settles on the first empty batch. After [`FIXPOINT_ROUNDS`] non-empty
/// rounds the policy is probed once more: an empty answer still settles,
/// anything else is [`SchedError::FixpointDiverged`].
///
/// # Errors
/// [`SchedError::InvalidParallelism`] for a non-positive or non-finite
/// action, `FixpointDiverged` as above, and whatever `apply` returns.
pub fn decide_fixpoint<P, S, E>(
    policy: &mut P,
    sink: &Option<SharedSink>,
    now: f64,
    state: &mut S,
    snapshot: impl Fn(&S) -> Vec<RunningTask>,
    mut apply: impl FnMut(&mut S, &Action) -> Result<bool, E>,
) -> Result<(), E>
where
    P: SchedulePolicy + ?Sized,
    S: ?Sized,
    E: From<SchedError>,
{
    for round in 0..=FIXPOINT_ROUNDS {
        let running = snapshot(state);
        let actions = policy.decide(now, &running);
        if actions.is_empty() {
            return Ok(());
        }
        if round == FIXPOINT_ROUNDS {
            break;
        }
        emit(sink, || TraceRecord::Decide {
            now,
            running: running.iter().map(RunningSnap::of).collect(),
            actions: actions.clone(),
        });
        for a in actions {
            let (task, parallelism) = (a.task(), a.parallelism());
            if !(parallelism > 0.0 && parallelism.is_finite()) {
                return Err(SchedError::InvalidParallelism { task, parallelism }.into());
            }
            if apply(state, &a)? {
                emit(sink, || TraceRecord::Applied { now, action: a });
            }
        }
    }
    Err(SchedError::FixpointDiverged { policy: policy.name(), rounds: FIXPOINT_ROUNDS }.into())
}

/// Clamp a fractional allocation to whole workers in `1..=limit` — the one
/// rounding rule of the policies and of both drivers that run whole
/// backends.
///
/// Policies that feed real execution engines (the DES and the threaded
/// executor) must hand out whole backends; the analytic fluid estimator
/// keeps the fractional optimum. A `limit` of zero is treated as one — a
/// task that runs at all runs on at least one worker (`clamp(1.0, 0.0)`
/// would panic).
pub fn round_parallelism(x: f64, limit: u32) -> f64 {
    x.round().clamp(1.0, limit.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::IoKind;

    #[test]
    fn remaining_profile_substitutes_remaining_work() {
        let rt = RunningTask {
            profile: TaskProfile::new(TaskId(7), 20.0, 50.0, IoKind::Sequential),
            parallelism: 3.0,
            remaining_seq_time: 12.5,
        };
        let p = rt.remaining_profile();
        assert_eq!(p.seq_time, 12.5);
        assert_eq!(p.io_rate, 50.0);
        assert_eq!(p.id, TaskId(7));
    }

    #[test]
    fn remaining_profile_never_panics_on_exhausted_tasks() {
        let rt = RunningTask {
            profile: TaskProfile::new(TaskId(7), 20.0, 50.0, IoKind::Sequential),
            parallelism: 3.0,
            remaining_seq_time: 0.0,
        };
        assert!(rt.remaining_profile().seq_time > 0.0);
    }

    #[test]
    fn rounding_respects_bounds() {
        assert_eq!(round_parallelism(3.4, 8), 3.0);
        assert_eq!(round_parallelism(3.6, 8), 4.0);
        assert_eq!(round_parallelism(0.2, 8), 1.0);
        assert_eq!(round_parallelism(11.0, 8), 8.0);
    }

    #[test]
    fn rounding_with_zero_limit_does_not_panic() {
        // A degenerate limit (uniprocessor minus the reserved worker) must
        // yield one worker, not an inverted-clamp panic.
        assert_eq!(round_parallelism(3.4, 0), 1.0);
        assert_eq!(round_parallelism(0.0, 1), 1.0);
    }

    #[test]
    fn action_accessors() {
        let a = Action::Start { id: TaskId(1), parallelism: 2.0 };
        assert_eq!(a.task(), TaskId(1));
        assert_eq!(a.parallelism(), 2.0);
        let b = Action::Adjust { id: TaskId(2), parallelism: 5.0 };
        assert_eq!(b.task(), TaskId(2));
        assert_eq!(b.parallelism(), 5.0);
    }
}

//! A test policy that breaks the fragment lifecycle once, on purpose. Used
//! by the root `tests/fixpoint_drivers.rs` (included by `#[path]`) to hold
//! the fluid driver, the DES and the executor to one answer per misdeed.

use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};

/// The one illegal thing a [`Rogue`] does.
#[derive(Debug, Clone, Copy)]
pub enum Misdeed {
    /// Start a task the driver holds but has not announced yet: a consumer
    /// whose producer is unfinished, or an arrival whose time has not come.
    StartUnannounced(TaskId),
    /// Start the first announced task twice in one batch.
    StartTwice,
    /// Adjust the first announced task without ever starting it.
    AdjustUnstarted,
}

/// Waits for its first arrival, commits its misdeed in the next decide, and
/// is quiet ever after.
pub struct Rogue {
    machine: MachineConfig,
    misdeed: Misdeed,
    first: Option<TaskId>,
    acted: bool,
}

impl Rogue {
    pub fn new(misdeed: Misdeed) -> Self {
        Rogue { machine: MachineConfig::paper_default(), misdeed, first: None, acted: false }
    }
}

impl SchedulePolicy for Rogue {
    fn name(&self) -> &'static str {
        "ROGUE"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.first.get_or_insert(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
        let Some(id) = self.first.filter(|_| !self.acted) else { return vec![] };
        self.acted = true;
        match self.misdeed {
            Misdeed::StartUnannounced(id) => vec![Action::Start { id, parallelism: 1.0 }],
            Misdeed::StartTwice => vec![
                Action::Start { id, parallelism: 1.0 },
                Action::Start { id, parallelism: 2.0 },
            ],
            Misdeed::AdjustUnstarted => vec![Action::Adjust { id, parallelism: 2.0 }],
        }
    }
}

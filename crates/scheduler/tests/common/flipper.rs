//! A test policy shared by `fixpoint.rs` here and the root
//! `tests/fixpoint_drivers.rs` (included by `#[path]`).

use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};

/// Starts its one task, then flips the task's parallelism between 1 and 2
/// until it has answered `rounds` decides with an action; quiet afterwards.
pub struct Flipper {
    machine: MachineConfig,
    task: Option<TaskId>,
    rounds: u32,
}

impl Flipper {
    pub fn new(rounds: u32) -> Self {
        Flipper { machine: MachineConfig::paper_default(), task: None, rounds }
    }
}

impl SchedulePolicy for Flipper {
    fn name(&self) -> &'static str {
        "FLIPPER"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.task = Some(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        let Some(id) = self.task else { return vec![] };
        if self.rounds == 0 {
            return vec![];
        }
        self.rounds -= 1;
        match running.first() {
            None => vec![Action::Start { id, parallelism: 1.0 }],
            Some(r) => vec![Action::Adjust { id, parallelism: 3.0 - r.parallelism }],
        }
    }
}

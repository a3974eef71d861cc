//! Test-only scheduling policies that hold parallelism fixed, so a test
//! chooses `x` instead of a paper policy computing it: [`StartAll`] starts
//! every arrival at once, [`FixedParallelism`] one fragment at a time.
//! Neither ever adjusts.
//!
//! Included per test binary via `#[path = "common/policies.rs"] mod policies;`
//! — each binary uses a different subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};

/// Starts every arrived task the moment it arrives with `x` processors:
/// two single-fragment queries share one long §2.2 pairing window, and many
/// race for admission.
pub struct StartAll {
    machine: MachineConfig,
    x: u32,
    pending: Vec<TaskId>,
}

impl StartAll {
    /// A policy for `machine` starting every fragment with `x` processors.
    pub fn new(machine: MachineConfig, x: u32) -> Self {
        assert!(x >= 1);
        StartAll { machine, x, pending: Vec::new() }
    }
}

impl SchedulePolicy for StartAll {
    fn name(&self) -> &'static str {
        "start-all"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.pending.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
        let x = f64::from(self.x);
        self.pending.drain(..).map(|id| Action::Start { id, parallelism: x }).collect()
    }
}

/// Runs fragments one at a time, in arrival order, each with `x`
/// processors: a worker count held as the independent variable of a
/// scaling curve.
pub struct FixedParallelism {
    machine: MachineConfig,
    x: u32,
    pending: Vec<TaskId>,
}

impl FixedParallelism {
    /// A policy for `machine` running each fragment alone with `x`
    /// processors.
    pub fn new(machine: MachineConfig, x: u32) -> Self {
        assert!(x >= 1);
        FixedParallelism { machine, x, pending: Vec::new() }
    }
}

impl SchedulePolicy for FixedParallelism {
    fn name(&self) -> &'static str {
        "fixed-parallelism"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.pending.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        if !running.is_empty() || self.pending.is_empty() {
            return Vec::new();
        }
        let id = self.pending.remove(0);
        vec![Action::Start { id, parallelism: f64::from(self.x) }]
    }
}

//! Scripted scheduling policies: a test chooses what the policy does
//! instead of a paper policy computing it.
//!
//! * [`StartAll`], [`FixedParallelism`] and [`GrowOnce`] hold parallelism
//!   fixed, so `x` is a test's independent variable;
//! * [`Flipper`] and [`Rogue`] misbehave on purpose, so every driver can be
//!   held to one typed answer per misdeed.

use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};

/// Starts every arrived task the moment it arrives with `x` processors:
/// two single-fragment queries share one long §2.2 pairing window, and many
/// race for admission. Never adjusts.
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
/// scaling curve. Never adjusts.
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

/// Starts its first arrival at `x` and every later one at 1, each as it
/// arrives. With [`GrowOnce::growing_to`], it adjusts the first task once,
/// to `to`, in the first decide that sees it running after `after` other
/// tasks have finished — the one adjustment of the run.
pub struct GrowOnce {
    machine: MachineConfig,
    x: f64,
    grow: Option<(f64, usize)>,
    first: Option<TaskId>,
    pending: Vec<TaskId>,
    others_finished: usize,
}

impl GrowOnce {
    /// A policy for `machine` that starts the first arrival at `x` and
    /// never adjusts it.
    pub fn new(machine: MachineConfig, x: f64) -> Self {
        GrowOnce { machine, x, grow: None, first: None, pending: Vec::new(), others_finished: 0 }
    }

    /// Grow the first task to `to` once `after` other tasks have finished
    /// (`0`: as soon as it runs).
    pub fn growing_to(mut self, to: f64, after: usize) -> Self {
        self.grow = Some((to, after));
        self
    }
}

impl SchedulePolicy for GrowOnce {
    fn name(&self) -> &'static str {
        "GROW-ONCE"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.first.get_or_insert(task.id);
        self.pending.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, id: TaskId) {
        if Some(id) != self.first {
            self.others_finished += 1;
        }
    }
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        let mut actions: Vec<Action> = self
            .pending
            .drain(..)
            .map(|id| {
                let x = if Some(id) == self.first { self.x } else { 1.0 };
                Action::Start { id, parallelism: x }
            })
            .collect();
        if let Some((to, after)) = self.grow {
            let first = running.iter().find(|r| Some(r.profile.id) == self.first);
            if let (true, Some(r)) = (self.others_finished >= after, first) {
                actions.push(Action::Adjust { id: r.profile.id, parallelism: to });
                self.grow = None;
            }
        }
        actions
    }
}

/// Starts its one task, then flips the task's parallelism between 1 and 2
/// until it has answered `rounds` decides with an action; quiet afterwards.
/// At one instant that is `rounds` rounds of the shared decide fixpoint.
pub struct Flipper {
    machine: MachineConfig,
    task: Option<TaskId>,
    rounds: u32,
}

impl Flipper {
    /// A flipper that acts in `rounds` decides.
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

/// The one illegal thing a [`Rogue`] does.
#[derive(Debug, Clone, Copy)]
pub enum Misdeed {
    /// Start a task the driver has not announced: a consumer whose producer
    /// is unfinished, an arrival whose time has not come, or a task the run
    /// does not hold at all.
    StartUnannounced(TaskId),
    /// Start the first announced task twice in one batch.
    StartTwice,
    /// Adjust the first announced task without ever starting it.
    AdjustUnstarted,
    /// Never start anything, so the run can make no progress.
    Idle,
}

/// Breaks the fragment lifecycle once, on purpose: waits for its first
/// arrival, commits its misdeed in the next decide, and is quiet ever after.
pub struct Rogue {
    machine: MachineConfig,
    misdeed: Misdeed,
    first: Option<TaskId>,
    acted: bool,
}

impl Rogue {
    /// A rogue that commits `misdeed`.
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
            Misdeed::Idle => vec![],
        }
    }
}

//! `INTRA-ONLY`: the baseline scheduler with no inter-operation parallelism.
//!
//! Tasks execute strictly one at a time, each with the maximum useful degree
//! of intra-operation parallelism `maxp(f_i)` — every processor for a
//! CPU-bound task, `B / C_i` processors for an IO-bound one. This is the
//! strategy of the earlier XPRS work (\[HONG91\]) and the baseline the paper's
//! Figure 7 compares against.

use std::collections::VecDeque;

use crate::machine::MachineConfig;
use crate::policy::{Action, RunningTask, SchedulePolicy};
use crate::task::{TaskId, TaskProfile};

/// One-task-at-a-time scheduler using intra-operation parallelism only.
#[derive(Debug, Clone)]
pub struct IntraOnly {
    machine: MachineConfig,
    /// Hand out whole workers (execution engines) vs. fractional (analysis).
    integral: bool,
    queue: VecDeque<TaskProfile>,
}

impl IntraOnly {
    /// New INTRA-ONLY policy for machine `m`. `integral` controls whether
    /// parallelism degrees are floored to whole workers.
    pub fn new(m: MachineConfig, integral: bool) -> Self {
        IntraOnly { machine: m, integral, queue: VecDeque::new() }
    }

    fn effective_maxp(&self, t: &TaskProfile) -> f64 {
        let maxp = t.maxp(&self.machine);
        if self.integral {
            // Floor: the paper reports severe penalties for *excessive*
            // parallelism, so never round a bandwidth cap upward.
            maxp.floor().max(1.0)
        } else {
            maxp
        }
    }
}

impl SchedulePolicy for IntraOnly {
    fn name(&self) -> &'static str {
        "INTRA-ONLY"
    }

    fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.queue.push_back(task);
    }

    fn on_finish(&mut self, _now: f64, _id: TaskId) {}

    fn recalibrate(&mut self, _now: f64, machine: MachineConfig) {
        // Future effective_maxp computations divide by the measured
        // bandwidth: a degraded array caps IO-bound tasks lower.
        self.machine = machine;
    }

    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        if !running.is_empty() {
            return Vec::new();
        }
        match self.queue.pop_front() {
            Some(task) => {
                let parallelism = self.effective_maxp(&task);
                vec![Action::Start { id: task.id, parallelism }]
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::IoKind;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn t(id: u64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), 10.0, rate, IoKind::Sequential)
    }

    fn running(t: &TaskProfile, x: f64) -> RunningTask {
        RunningTask { profile: t.clone(), parallelism: x, remaining_seq_time: t.seq_time }
    }

    #[test]
    fn runs_one_task_at_a_time() {
        let mut p = IntraOnly::new(m(), true);
        p.on_arrival(0.0, t(0, 10.0));
        p.on_arrival(0.0, t(1, 50.0));
        let acts = p.decide(0.0, &[]);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0], Action::Start { id: TaskId(0), parallelism: 8.0 });
        // While task 0 runs, nothing new starts.
        assert!(p.decide(1.0, &[running(&t(0, 10.0), 8.0)]).is_empty());
        // After it finishes, the IO-bound task starts at floor(240/50) = 4.
        p.on_finish(2.0, TaskId(0));
        let acts = p.decide(2.0, &[]);
        assert_eq!(acts, vec![Action::Start { id: TaskId(1), parallelism: 4.0 }]);
    }

    #[test]
    fn fractional_mode_keeps_exact_maxp() {
        let mut p = IntraOnly::new(m(), false);
        p.on_arrival(0.0, t(0, 70.0));
        let acts = p.decide(0.0, &[]);
        assert!((acts[0].parallelism() - 240.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn empty_queue_yields_no_actions() {
        let mut p = IntraOnly::new(m(), true);
        assert!(p.decide(0.0, &[]).is_empty());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = IntraOnly::new(m(), true);
        for id in 0..5 {
            p.on_arrival(0.0, t(id, 10.0));
        }
        for id in 0..5 {
            let acts = p.decide(id as f64, &[]);
            assert_eq!(acts[0].task(), TaskId(id));
            p.on_finish(id as f64 + 0.5, TaskId(id));
        }
    }
}

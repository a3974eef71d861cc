//! Tasks (plan fragments) and their IO/CPU classification.
//!
//! A *task* is a plan fragment: a maximal group of relational operators with
//! no blocking edge between them, executed as one pipelined unit. For
//! scheduling purposes a task is fully described by its sequential execution
//! time `T_i`, its sequential I/O request rate `C_i`, and whether its I/O
//! pattern is sequential (heap scans) or random (unclustered index scans).

use crate::machine::MachineConfig;

/// Identifier of a task (plan fragment). Unique within one scheduling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Mean response time (finish − release) over `(task, start, finish)` times;
/// a task absent from `releases` was released at 0. The fluid model's and
/// the simulator's results both report it through this one body.
pub fn mean_response_time(task_times: &[(TaskId, f64, f64)], releases: &[(TaskId, f64)]) -> f64 {
    if task_times.is_empty() {
        return 0.0;
    }
    let rel = |id: TaskId| releases.iter().find(|(t, _)| *t == id).map_or(0.0, |(_, r)| *r);
    let sum: f64 = task_times.iter().map(|(id, _, fin)| fin - rel(*id)).sum();
    sum / task_times.len() as f64
}

/// The I/O access pattern a task generates against the striped disk array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// In-stripe-order page reads (sequential and parallel heap scans).
    Sequential,
    /// Pointer-chasing reads (unclustered index scans).
    Random,
}

/// IO-bound or CPU-bound, relative to a particular machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Boundedness {
    /// `C_i > B / N`: the task saturates the disks before the processors.
    IoBound,
    /// `C_i <= B / N`: parallelism is limited only by the processor count.
    CpuBound,
}

/// The scheduler-facing profile of one runnable task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskProfile {
    /// Task identity.
    pub id: TaskId,
    /// `T_i`: elapsed time of a sequential (parallelism 1) execution, seconds.
    pub seq_time: f64,
    /// `C_i`: I/O requests per second generated by a sequential execution.
    pub io_rate: f64,
    /// Access pattern, used by the seek-interference bandwidth correction.
    pub io_kind: IoKind,
    /// Bytes of shared memory the task holds while running (hash tables it
    /// probes, sort buffers, its own materialized output). The paper's
    /// Section 5 names memory constraints as future work; the scheduler
    /// declines pairings whose combined footprint exceeds the machine's
    /// memory when a budget is configured.
    pub memory: f64,
}

impl TaskProfile {
    /// Build a profile. `seq_time` and `io_rate` must be finite and positive.
    ///
    /// # Panics
    /// Panics if either quantity is non-positive or non-finite; a task that
    /// does no work or no I/O at all has no meaningful balance point and must
    /// be filtered out before scheduling.
    pub fn new(id: TaskId, seq_time: f64, io_rate: f64, io_kind: IoKind) -> Self {
        assert!(
            seq_time.is_finite() && seq_time > 0.0,
            "task {id}: seq_time must be positive, got {seq_time}"
        );
        assert!(
            io_rate.is_finite() && io_rate > 0.0,
            "task {id}: io_rate must be positive, got {io_rate}"
        );
        TaskProfile { id, seq_time, io_rate, io_kind, memory: 0.0 }
    }

    /// Attach a shared-memory footprint (bytes held while the task runs).
    pub fn with_memory(mut self, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid memory footprint {bytes}");
        self.memory = bytes;
        self
    }

    /// Check the invariants [`TaskProfile::new`] enforces, as a `Result`.
    ///
    /// Profiles built through `new` always pass; struct-literal profiles —
    /// which [`crate::policy::RunningTask`] snapshots and trace replay
    /// allow — can carry a zero `io_rate` or a non-finite `seq_time`, and
    /// feeding those into the balance equations yields `inf`/NaN scores.
    /// Policies call this at their boundary and reject offenders instead of
    /// propagating poisoned arithmetic.
    pub fn validate(&self) -> Result<(), crate::error::SchedError> {
        use crate::error::SchedError;
        let bad = |field: &'static str, value: f64| {
            Err(SchedError::InvalidProfile { task: self.id, field, value })
        };
        if !(self.seq_time.is_finite() && self.seq_time > 0.0) {
            return bad("seq_time", self.seq_time);
        }
        if !(self.io_rate.is_finite() && self.io_rate > 0.0) {
            return bad("io_rate", self.io_rate);
        }
        if self.memory.is_nan() || self.memory < 0.0 {
            return bad("memory", self.memory);
        }
        Ok(())
    }

    /// `D_i`: the total number of I/O requests the task will issue.
    pub fn total_ios(&self) -> f64 {
        self.seq_time * self.io_rate
    }

    /// The task's I/O rate when run with parallelism `x`: `IO_i(x) = C_i · x`.
    pub fn io_rate_at(&self, x: f64) -> f64 {
        self.io_rate * x
    }

    /// Classify against machine `m`: IO-bound iff `C_i > B / N`.
    pub fn classify(&self, m: &MachineConfig) -> Boundedness {
        if self.io_rate > m.io_threshold() {
            Boundedness::IoBound
        } else {
            Boundedness::CpuBound
        }
    }

    /// `maxp(f_i)`: the maximum useful degree of intra-operation parallelism.
    ///
    /// An IO-bound task runs out of disk bandwidth first (`maxp = B / C_i`);
    /// a CPU-bound task is limited only by the processors (`maxp = N`).
    pub fn maxp(&self, m: &MachineConfig) -> f64 {
        match self.classify(m) {
            Boundedness::IoBound => m.total_bandwidth() / self.io_rate,
            Boundedness::CpuBound => m.n_procs as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn t(rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(1), 10.0, rate, IoKind::Sequential)
    }

    #[test]
    fn classification_threshold_is_strict() {
        // B/N = 30; the paper calls a task IO-bound if C_i > B/N.
        assert_eq!(t(30.0).classify(&m()), Boundedness::CpuBound);
        assert_eq!(t(30.0 + 1e-9).classify(&m()), Boundedness::IoBound);
        assert_eq!(t(5.0).classify(&m()), Boundedness::CpuBound);
        assert_eq!(t(70.0).classify(&m()), Boundedness::IoBound);
    }

    #[test]
    fn maxp_of_io_bound_task_is_bandwidth_limited() {
        // C = 60 ⇒ maxp = 240 / 60 = 4 of the 8 processors.
        assert!((t(60.0).maxp(&m()) - 4.0).abs() < 1e-12);
        // C = 70 (the paper's r_max scan) ⇒ maxp = 240 / 70 ≈ 3.43.
        assert!((t(70.0).maxp(&m()) - 240.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn maxp_of_cpu_bound_task_is_processor_limited() {
        assert_eq!(t(5.0).maxp(&m()), 8.0);
        assert_eq!(t(30.0).maxp(&m()), 8.0);
    }

    #[test]
    fn total_ios_is_rate_times_time() {
        let task = TaskProfile::new(TaskId(2), 12.5, 40.0, IoKind::Random);
        assert_eq!(task.total_ios(), 500.0);
    }

    #[test]
    fn memory_defaults_to_zero_and_attaches() {
        let t = TaskProfile::new(TaskId(4), 1.0, 10.0, IoKind::Sequential);
        assert_eq!(t.memory, 0.0);
        let t = t.with_memory(8.0 * 1024.0 * 1024.0);
        assert_eq!(t.memory, 8.0 * 1024.0 * 1024.0);
    }

    #[test]
    #[should_panic(expected = "invalid memory footprint")]
    fn negative_memory_rejected() {
        TaskProfile::new(TaskId(4), 1.0, 10.0, IoKind::Sequential).with_memory(-1.0);
    }

    #[test]
    fn validate_flags_struct_literal_poison() {
        use crate::error::SchedError;
        let good = TaskProfile::new(TaskId(5), 1.0, 10.0, IoKind::Sequential);
        assert_eq!(good.validate(), Ok(()));
        let zero_rate = TaskProfile { io_rate: 0.0, ..good.clone() };
        assert_eq!(
            zero_rate.validate(),
            Err(SchedError::InvalidProfile { task: TaskId(5), field: "io_rate", value: 0.0 })
        );
        let nan_time = TaskProfile { seq_time: f64::NAN, ..good.clone() };
        assert!(matches!(
            nan_time.validate(),
            Err(SchedError::InvalidProfile { field: "seq_time", .. })
        ));
        let neg_mem = TaskProfile { memory: -1.0, ..good };
        assert!(matches!(
            neg_mem.validate(),
            Err(SchedError::InvalidProfile { field: "memory", .. })
        ));
    }

    #[test]
    fn io_rate_scales_linearly_with_parallelism() {
        let task = t(20.0);
        assert_eq!(task.io_rate_at(1.0), 20.0);
        assert_eq!(task.io_rate_at(6.0), 120.0);
    }

    #[test]
    #[should_panic(expected = "seq_time must be positive")]
    fn zero_length_task_is_rejected() {
        TaskProfile::new(TaskId(3), 0.0, 10.0, IoKind::Sequential);
    }

    #[test]
    #[should_panic(expected = "io_rate must be positive")]
    fn zero_io_rate_task_is_rejected() {
        TaskProfile::new(TaskId(3), 1.0, 0.0, IoKind::Sequential);
    }
}

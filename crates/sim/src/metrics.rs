//! Measurement output of a simulation run.

use xprs_disk::ArrayStats;
use xprs_scheduler::TaskId;

/// What one simulation run measured.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Completion time of the last task (the workload's turnaround time —
    /// the quantity Figure 7 plots).
    pub elapsed: f64,
    /// Per-task `(id, start, finish)`.
    pub task_times: Vec<(TaskId, f64, f64)>,
    /// Aggregate disk statistics (service-class mix, busy time).
    pub disk: ArrayStats,
    /// Total processor-busy seconds.
    pub cpu_busy: f64,
    /// Events processed (simulation effort indicator).
    pub n_events: u64,
}

impl SimReport {
    /// Time-averaged processor utilization.
    pub fn cpu_utilization(&self, n_procs: u32) -> f64 {
        if self.elapsed > 0.0 {
            self.cpu_busy / (n_procs as f64 * self.elapsed)
        } else {
            0.0
        }
    }

    /// Time-averaged disk utilization.
    pub fn disk_utilization(&self, n_disks: u32) -> f64 {
        self.disk.utilization(n_disks, self.elapsed)
    }

    /// Mean task response time given each task's release time.
    pub fn mean_response_time(&self, releases: &[(TaskId, f64)]) -> f64 {
        xprs_scheduler::task::mean_response_time(&self.task_times, releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            elapsed: 10.0,
            task_times: vec![(TaskId(0), 0.0, 4.0), (TaskId(1), 2.0, 10.0)],
            disk: ArrayStats { sequential: 50, almost_sequential: 30, random: 20, busy_time: 20.0 },
            cpu_busy: 40.0,
            n_events: 123,
        }
    }

    #[test]
    fn utilizations() {
        let r = report();
        assert!((r.cpu_utilization(8) - 0.5).abs() < 1e-12);
        assert!((r.disk_utilization(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn response_times_subtract_releases() {
        let r = report();
        let rel = vec![(TaskId(0), 0.0), (TaskId(1), 2.0)];
        assert!((r.mean_response_time(&rel) - 6.0).abs() < 1e-12);
    }
}

//! Per-class service counters and latency histograms.
//!
//! Everything here is lock-free (`xprs-obs` atomics) so runner threads and
//! the submission path can record outcomes without serializing on a stats
//! mutex, and an observer can snapshot mid-flight without stopping traffic.

use xprs_obs::{Counter, Histogram};
use xprs_workload::QueryClass;

/// Counters and latency distributions for one service class.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// Requests accepted into the queue.
    pub submitted: Counter,
    /// Requests that ran to completion before their deadline.
    pub completed: Counter,
    /// Requests refused at the door with [`crate::ServiceError::Overloaded`].
    pub shed: Counter,
    /// Requests cancelled by their deadline (queued or mid-run).
    pub deadline_cancelled: Counter,
    /// Requests that failed inside the executor.
    pub failed: Counter,
    /// End-to-end latency (submit → outcome) in microseconds, for every
    /// request that was admitted (completed, cancelled, or failed).
    pub latency_us: Histogram,
    /// Time spent waiting in the admission queue, in microseconds.
    pub queue_wait_us: Histogram,
}

impl ClassStats {
    fn new() -> Self {
        Self::default()
    }

    /// Admitted requests whose outcome has not yet been recorded.
    pub fn in_flight(&self) -> u64 {
        self.submitted.get()
            - self.completed.get()
            - self.deadline_cancelled.get()
            - self.failed.get()
    }
}

/// Service-wide statistics, one [`ClassStats`] per [`QueryClass`].
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Short lookups with tight deadlines.
    pub interactive: ClassStats,
    /// Long scans with generous deadlines.
    pub batch: ClassStats,
}

impl ServiceStats {
    pub(crate) fn new() -> Self {
        ServiceStats { interactive: ClassStats::new(), batch: ClassStats::new() }
    }

    /// The stats bucket for `class`.
    pub fn class(&self, class: QueryClass) -> &ClassStats {
        match class {
            QueryClass::Interactive => &self.interactive,
            QueryClass::Batch => &self.batch,
        }
    }

    /// Total requests shed across classes.
    pub fn total_shed(&self) -> u64 {
        self.interactive.shed.get() + self.batch.shed.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_counts_admitted_minus_settled() {
        let s = ServiceStats::new();
        s.interactive.submitted.add(5);
        s.interactive.completed.add(2);
        s.interactive.deadline_cancelled.inc();
        s.interactive.failed.inc();
        assert_eq!(s.interactive.in_flight(), 1);
        // Shed requests were never admitted, so they do not affect in-flight.
        s.interactive.shed.add(10);
        assert_eq!(s.interactive.in_flight(), 1);
        assert_eq!(s.total_shed(), 10);
    }

    #[test]
    fn class_lookup_routes_to_the_right_bucket() {
        let s = ServiceStats::new();
        s.class(QueryClass::Batch).submitted.inc();
        assert_eq!(s.batch.submitted.get(), 1);
        assert_eq!(s.interactive.submitted.get(), 0);
    }
}

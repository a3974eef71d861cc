//! The whole array: one [`DiskState`] per spindle plus aggregate statistics.
//!
//! [`DiskArrayModel`] is the single-owner form used by the discrete-event
//! simulator, which serializes all accesses itself. The threaded executor
//! instead keeps each [`DiskState`] in a latched lane with a reservation
//! timeline (a disk serves one request at a time, so each request is
//! classified and given the disk's next free interval under the latch, and
//! waited for outside it) — see `xprs-executor::io`.

use crate::model::{DiskParams, DiskState, IoRequest, RelId, ServiceClass, WorkerId};
use crate::stripe::StripedLayout;

/// Aggregate counters across the array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrayStats {
    /// Requests served in each class: sequential, almost-sequential, random.
    pub sequential: u64,
    /// Almost-sequential count.
    pub almost_sequential: u64,
    /// Random count.
    pub random: u64,
    /// Total busy seconds summed over disks.
    pub busy_time: f64,
}

impl ArrayStats {
    /// All requests served.
    pub fn total(&self) -> u64 {
        self.sequential + self.almost_sequential + self.random
    }

    /// Average delivered bandwidth over `elapsed` seconds, I/Os per second.
    pub fn delivered_rate(&self, elapsed: f64) -> f64 {
        if elapsed > 0.0 {
            self.total() as f64 / elapsed
        } else {
            0.0
        }
    }

    /// Fraction of elapsed disk-seconds spent busy (`n_disks × elapsed`).
    pub fn utilization(&self, n_disks: u32, elapsed: f64) -> f64 {
        if elapsed > 0.0 {
            self.busy_time / (n_disks as f64 * elapsed)
        } else {
            0.0
        }
    }
}

/// A single-owner disk array: striping plus one head state per disk.
#[derive(Debug, Clone)]
pub struct DiskArrayModel {
    layout: StripedLayout,
    disks: Vec<DiskState>,
}

impl DiskArrayModel {
    /// `n_disks` identical disks with parameters `params`.
    pub fn new(n_disks: u32, params: DiskParams) -> Self {
        DiskArrayModel {
            layout: StripedLayout::new(n_disks),
            disks: (0..n_disks).map(|_| DiskState::new(params.clone())).collect(),
        }
    }

    /// The paper's array: 4 disks at 97/60/35 I/Os per second.
    pub fn paper_default() -> Self {
        Self::new(4, DiskParams::paper_default())
    }

    /// The striping layout.
    pub fn layout(&self) -> StripedLayout {
        self.layout
    }

    /// Number of disks.
    pub fn n_disks(&self) -> u32 {
        self.layout.n_disks()
    }

    /// Which disk a request for `(rel, global_block)` is routed to.
    pub fn route(&self, global_block: u64) -> u32 {
        self.layout.disk_of(global_block)
    }

    /// Serve a read of `global_block` of `rel` issued by `worker` (`solo`
    /// marks a parallelism-1 stream — see [`IoRequest::solo`]); returns
    /// `(disk, class, service seconds)`. The caller is responsible for
    /// modelling queueing — this advances head state and statistics only.
    pub fn serve(
        &mut self,
        rel: RelId,
        global_block: u64,
        worker: WorkerId,
        solo: bool,
    ) -> (u32, ServiceClass, f64) {
        let disk = self.layout.disk_of(global_block);
        let req =
            IoRequest { rel, local_block: self.layout.local_block(global_block), worker, solo };
        let (class, dur) = self.disks[disk as usize].serve(&req);
        (disk, class, dur)
    }

    /// Immutable view of one disk's state.
    pub fn disk(&self, disk: u32) -> &DiskState {
        &self.disks[disk as usize]
    }

    /// Mutable view of one disk's state (for owners that route themselves).
    pub fn disk_mut(&mut self, disk: u32) -> &mut DiskState {
        &mut self.disks[disk as usize]
    }

    /// Aggregate statistics over all disks.
    pub fn stats(&self) -> ArrayStats {
        let mut s = ArrayStats::default();
        for d in &self.disks {
            s.sequential += d.count_of(ServiceClass::Sequential);
            s.almost_sequential += d.count_of(ServiceClass::AlmostSequential);
            s.random += d.count_of(ServiceClass::Random);
            s.busy_time += d.busy_time();
        }
        s
    }

    /// Reset all disks to cold state and zero statistics.
    pub fn reset(&mut self) {
        for d in &mut self.disks {
            d.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_route_round_robin() {
        let mut a = DiskArrayModel::paper_default();
        for b in 0..8u64 {
            let (disk, _, _) = a.serve(RelId(1), b, WorkerId(0), true);
            assert_eq!(disk, (b % 4) as u32);
        }
        assert_eq!(a.stats().total(), 8);
    }

    #[test]
    fn solo_scan_achieves_sequential_rate_per_disk() {
        // One worker scanning 400 blocks round-robin: each disk sees local
        // blocks 0..100 in order from the same worker → after its cold first
        // request everything is sequential.
        let mut a = DiskArrayModel::paper_default();
        for b in 0..400u64 {
            a.serve(RelId(1), b, WorkerId(0), true);
        }
        let s = a.stats();
        assert_eq!(s.random, 4); // one cold seek per disk
        assert_eq!(s.sequential, 396);
    }

    #[test]
    fn two_burst_interleaved_scans_are_mostly_random() {
        // Two 2-worker tasks alternate worker-sized bursts on each disk —
        // the pattern parallel scans actually produce — so every burst's
        // requests find their stream's read-ahead evicted.
        let mut a = DiskArrayModel::paper_default();
        for chunk in 0..25u64 {
            for b in 0..8 {
                a.serve(RelId(1), chunk * 8 + b, WorkerId(b % 2), false);
            }
            for b in 0..8 {
                a.serve(RelId(2), chunk * 8 + b, WorkerId(2 + b % 2), false);
            }
        }
        let s = a.stats();
        // Each disk sees two requests per relation per chunk: the first of
        // each pair finds its read-ahead evicted (two foreign requests
        // intervened) and seeks; roughly half of all requests are random.
        assert!(
            s.random as f64 > 0.45 * s.total() as f64,
            "expected heavy seeking, got {s:?}"
        );
        assert!(s.almost_sequential > 0);
    }

    #[test]
    fn stats_rates_and_utilization() {
        let mut a = DiskArrayModel::paper_default();
        for b in 0..400u64 {
            a.serve(RelId(1), b, WorkerId(0), true);
        }
        let s = a.stats();
        // 396 sequential + 4 random ≈ 4.2 s of busy time.
        let expect = 396.0 / 97.0 + 4.0 / 35.0;
        assert!((s.busy_time - expect).abs() < 1e-9);
        // If that work happened over 2 s of wall time on 4 disks:
        assert!((s.utilization(4, 2.0) - expect / 8.0).abs() < 1e-12);
        assert!((s.delivered_rate(2.0) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_all_disks() {
        let mut a = DiskArrayModel::paper_default();
        for b in 0..40u64 {
            a.serve(RelId(1), b, WorkerId(0), true);
        }
        a.reset();
        assert_eq!(a.stats().total(), 0);
        assert_eq!(a.stats().busy_time, 0.0);
    }
}

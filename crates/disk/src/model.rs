//! Per-disk service-time model.
//!
//! Each disk remembers what it served last. An incoming request is charged
//! the sequential, almost-sequential or random service time depending on how
//! far the head must move and whether the stream it belongs to was
//! interrupted:
//!
//! * **Sequential** — the very next local block of the same relation,
//!   requested by the same worker that the disk served last: the head does
//!   not move and read-ahead hits.
//! * **Almost sequential** — the same relation within a small window of the
//!   last position (forward or backward), or an in-order block arriving from
//!   a *different* worker of the same scan. This is what a multi-backend
//!   parallel scan of one striped relation produces.
//! * **Random** — a different relation, or a jump beyond the window: the
//!   head seeks.
//!
//! The disk keeps a small per-relation *stream memory* (head position plus
//! how long ago the stream was last served). A stream continuation within
//! the reorder window stays almost-sequential when the drive's read-ahead
//! survived the interruption: at most a few requests intervened and none of
//! them was itself a sequential continuation (a raw seek reads through the
//! buffer; another *stream* re-anchors the prefetch and evicts it). The
//! interloper always pays its own seek. Under this rule the array
//! behaviours the paper measures all emerge: a solo backend gets the
//! sequential rate, one parallel scan gets the almost-sequential rate, a
//! dominant scan shrugs off occasional probes, and two comparably-paced
//! scans degrade toward the random rate — the Section 2.3 interference
//! line.

/// Identifies a relation (or any distinct on-disk block stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u64);

/// Identifies the worker (slave backend) issuing a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkerId(pub u64);

/// One block-read request as seen by a single disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Relation the block belongs to.
    pub rel: RelId,
    /// Local block index *on this disk* (global block / number of disks).
    pub local_block: u64,
    /// Issuing worker.
    pub worker: WorkerId,
    /// True when the issuing task runs with parallelism 1. Only a solo
    /// synchronous stream keeps the drive's read-ahead train alive; the
    /// paper observed that "even for parallel sequential scans the reads
    /// may become unordered due to the asynchronousness of the parallel
    /// backends", so parallel scans top out at the almost-sequential rate.
    pub solo: bool,
}

/// How a request was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceClass {
    /// Head did not move; read-ahead hit.
    Sequential,
    /// Small reorder within one scan.
    AlmostSequential,
    /// Full seek.
    Random,
}

/// Service-time parameters of one disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskParams {
    /// Seconds per sequential I/O (`1/97` on the paper's disks).
    pub seq_service: f64,
    /// Seconds per almost-sequential I/O (`1/60`).
    pub almost_seq_service: f64,
    /// Seconds per random I/O (`1/35`).
    pub random_service: f64,
    /// How far (in local blocks, either direction) a same-relation request
    /// may land from the previous one and still count as almost-sequential.
    pub reorder_window: u64,
    /// How many pure-seek interlopers the read-ahead buffer survives before
    /// a stream continuation must seek again.
    pub absorb_limit: u64,
}

impl DiskParams {
    /// The paper's measured disk: 97 / 60 / 35 I/Os per second.
    pub fn paper_default() -> Self {
        DiskParams {
            seq_service: 1.0 / 97.0,
            almost_seq_service: 1.0 / 60.0,
            random_service: 1.0 / 35.0,
            reorder_window: 16,
            absorb_limit: 4,
        }
    }

    /// The paper's disk with its three rates, in I/Os per second, replaced:
    /// the reorder window and the absorb limit stay
    /// [`DiskParams::paper_default`]'s, so every disk a machine builds has
    /// the one window the executor's deal sizes its read front by.
    ///
    /// # Panics
    /// Panics unless `seq_rate >= almost_seq_rate >= random_rate > 0` — an
    /// invariant of the caller's machine description, not a runtime
    /// condition: the executor refuses such a configuration before it
    /// builds a machine (`ExecError::InvalidConfig`), and a machine whose
    /// random reads outrun its sequential ones has no meaningful model.
    pub fn from_rates(seq_rate: f64, almost_seq_rate: f64, random_rate: f64) -> Self {
        assert!(
            seq_rate >= almost_seq_rate && almost_seq_rate >= random_rate && random_rate > 0.0,
            "rates must satisfy seq >= almost-seq >= random > 0"
        );
        DiskParams {
            seq_service: 1.0 / seq_rate,
            almost_seq_service: 1.0 / almost_seq_rate,
            random_service: 1.0 / random_rate,
            ..DiskParams::paper_default()
        }
    }

    /// The service time charged for `class`.
    pub fn service_time(&self, class: ServiceClass) -> f64 {
        match class {
            ServiceClass::Sequential => self.seq_service,
            ServiceClass::AlmostSequential => self.almost_seq_service,
            ServiceClass::Random => self.random_service,
        }
    }
}

impl Default for DiskParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Debug, Clone, Copy)]
struct StreamMemo {
    last_local: u64,
    last_worker: WorkerId,
    /// Value of the disk's serve counter when this stream was last served.
    seq: u64,
}

/// Mutable head/stream state of one disk. The owner (simulator thread or the
/// executor's per-disk lane latch) must serialize calls to [`DiskState::serve`] —
/// a disk services one request at a time by nature.
#[derive(Debug, Clone)]
pub struct DiskState {
    params: DiskParams,
    streams: std::collections::HashMap<RelId, StreamMemo>,
    served: u64,
    /// Serve counter at the most recent request that was itself a stream
    /// continuation (sequential or almost-sequential class).
    last_continuation: u64,
    /// Cumulative busy seconds, by service class.
    busy: [f64; 3],
    /// Request counts, by service class.
    counts: [u64; 3],
}

impl DiskState {
    /// A cold disk with the given parameters.
    pub fn new(params: DiskParams) -> Self {
        DiskState {
            params,
            streams: std::collections::HashMap::new(),
            served: 0,
            last_continuation: 0,
            busy: [0.0; 3],
            counts: [0; 3],
        }
    }

    /// Classify a request against the disk's stream memory without serving
    /// it (pure; used by tests and by look-ahead heuristics).
    pub fn classify(&self, req: &IoRequest) -> ServiceClass {
        match self.streams.get(&req.rel) {
            None => ServiceClass::Random, // first touch of this stream: seek
            Some(memo) => {
                // Requests for other relations served since this stream's
                // last request. The read-ahead buffer survives a few raw
                // seeks (they read through it) but not another stream's
                // continuation, which re-anchors the prefetch.
                let intervening = self.served - memo.seq;
                let evicted = self.last_continuation > memo.seq
                    || intervening > self.params.absorb_limit;
                let forward_one = req.local_block == memo.last_local + 1;
                if forward_one && memo.last_worker == req.worker && req.solo && intervening == 0 {
                    return ServiceClass::Sequential;
                }
                let dist = req.local_block.abs_diff(memo.last_local);
                if dist <= self.params.reorder_window && !evicted {
                    ServiceClass::AlmostSequential
                } else {
                    ServiceClass::Random
                }
            }
        }
    }

    /// Serve a request: classify it, account the busy time, update the head
    /// position, and return the class and service duration in seconds.
    pub fn serve(&mut self, req: &IoRequest) -> (ServiceClass, f64) {
        self.serve_degraded(req, 1.0)
    }

    /// [`DiskState::serve`] on a degraded disk: the modeled service time is
    /// stretched by `multiplier` (≥ 1), and the stretched time is what the
    /// busy accounting records — so observed per-class rates derived from
    /// [`DiskState::class_stats`] reflect the slowdown, which is exactly
    /// what degradation-aware recalibration needs to see.
    pub fn serve_degraded(&mut self, req: &IoRequest, multiplier: f64) -> (ServiceClass, f64) {
        let class = self.classify(req);
        let dur = self.params.service_time(class) * multiplier;
        let idx = class_index(class);
        self.busy[idx] += dur;
        self.counts[idx] += 1;
        self.served += 1;
        if class != ServiceClass::Random {
            self.last_continuation = self.served;
        }
        self.streams.insert(
            req.rel,
            StreamMemo { last_local: req.local_block, last_worker: req.worker, seq: self.served },
        );
        (class, dur)
    }

    /// Parameters this disk was built with.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Total seconds spent serving requests.
    pub fn busy_time(&self) -> f64 {
        self.busy.iter().sum()
    }

    /// Number of requests served in `class`.
    pub fn count_of(&self, class: ServiceClass) -> u64 {
        self.counts[class_index(class)]
    }

    /// Total requests served.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Point-in-time copy of the per-class accounting, for metrics export
    /// and windowed utilization audits (diff two snapshots to isolate what
    /// one pairing window did to this disk).
    pub fn class_stats(&self) -> ClassStats {
        ClassStats { counts: self.counts, busy: self.busy, queue_wait: 0.0 }
    }

    /// Forget the head position and zero the statistics (fresh run).
    pub fn reset(&mut self) {
        self.streams.clear();
        self.served = 0;
        self.last_continuation = 0;
        self.busy = [0.0; 3];
        self.counts = [0; 3];
    }
}

fn class_index(c: ServiceClass) -> usize {
    match c {
        ServiceClass::Sequential => 0,
        ServiceClass::AlmostSequential => 1,
        ServiceClass::Random => 2,
    }
}

/// Plain-old-data snapshot of one disk's per-class request counts and busy
/// seconds, indexed `[sequential, almost_sequential, random]`, plus the
/// seconds its requests waited to be served. Supports
/// window diffs: subtract the snapshot taken at a window's start from the
/// one at its end and the delta is the traffic inside the window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    /// Requests served, by service class.
    pub counts: [u64; 3],
    /// Busy seconds, by service class.
    pub busy: [f64; 3],
    /// Seconds requests waited between arriving at the disk and starting
    /// service. Queueing belongs to whoever owns the disk: the threaded
    /// executor's lanes fill this in, a bare [`DiskState`] reports 0.
    pub queue_wait: f64,
}

impl ClassStats {
    /// Count for `class`.
    pub fn count_of(&self, class: ServiceClass) -> u64 {
        self.counts[class_index(class)]
    }

    /// Busy seconds for `class`.
    pub fn busy_of(&self, class: ServiceClass) -> f64 {
        self.busy[class_index(class)]
    }

    /// Total requests across classes.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total busy seconds across classes.
    pub fn total_busy(&self) -> f64 {
        self.busy.iter().sum()
    }

    /// What happened since `earlier` (saturating; a mismatched pair
    /// degrades to zeros rather than nonsense).
    pub fn diff(&self, earlier: &ClassStats) -> ClassStats {
        let mut out = ClassStats::default();
        for i in 0..3 {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
            out.busy[i] = (self.busy[i] - earlier.busy[i]).max(0.0);
        }
        out.queue_wait = (self.queue_wait - earlier.queue_wait).max(0.0);
        out
    }

    /// Element-wise sum (e.g. to aggregate an array of disks).
    pub fn merged(&self, other: &ClassStats) -> ClassStats {
        let mut out = *self;
        for i in 0..3 {
            out.counts[i] += other.counts[i];
            out.busy[i] += other.busy[i];
        }
        out.queue_wait += other.queue_wait;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskState {
        DiskState::new(DiskParams::paper_default())
    }

    fn req(rel: u64, block: u64, worker: u64) -> IoRequest {
        IoRequest { rel: RelId(rel), local_block: block, worker: WorkerId(worker), solo: true }
    }

    fn preq(rel: u64, block: u64, worker: u64) -> IoRequest {
        IoRequest { rel: RelId(rel), local_block: block, worker: WorkerId(worker), solo: false }
    }

    #[test]
    fn solo_backend_scan_is_sequential_after_warmup() {
        let mut d = disk();
        let (c0, _) = d.serve(&req(1, 0, 0));
        assert_eq!(c0, ServiceClass::Random); // cold seek
        for b in 1..100 {
            let (c, dur) = d.serve(&req(1, b, 0));
            assert_eq!(c, ServiceClass::Sequential);
            assert!((dur - 1.0 / 97.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_scan_of_one_relation_is_almost_sequential() {
        // Two workers of the same task alternate in stripe order: in-order
        // blocks from a different worker are almost-sequential.
        let mut d = disk();
        d.serve(&preq(1, 0, 0));
        let (c, dur) = d.serve(&preq(1, 1, 1));
        assert_eq!(c, ServiceClass::AlmostSequential);
        assert!((dur - 1.0 / 60.0).abs() < 1e-12);
        // Mild reorder from worker skew also stays almost-sequential.
        let (c, _) = d.serve(&preq(1, 3, 0));
        assert_eq!(c, ServiceClass::AlmostSequential);
        let (c, _) = d.serve(&preq(1, 2, 1));
        assert_eq!(c, ServiceClass::AlmostSequential);
        // Even in-order same-worker requests stay almost-sequential while
        // the task is parallel: asynchronous backends defeat read-ahead.
        let (c, _) = d.serve(&preq(1, 3, 1));
        assert_eq!(c, ServiceClass::AlmostSequential);
    }

    #[test]
    fn fine_alternation_makes_one_stream_pay_the_seeks() {
        // Strict ABAB alternation: whichever stream's continuation lands
        // right after a raw seek keeps its read-ahead; the other stream's
        // continuation arrives after a *continuation* and must seek. The
        // pair cannot both ride the buffer — that is the interference.
        let mut d = disk();
        d.serve(&req(1, 0, 0));
        let (c, _) = d.serve(&req(2, 0, 1));
        assert_eq!(c, ServiceClass::Random); // cold stream
        let (c, _) = d.serve(&req(1, 1, 0));
        assert_eq!(c, ServiceClass::AlmostSequential); // after a raw seek
        let (c, _) = d.serve(&req(2, 1, 1));
        assert_eq!(c, ServiceClass::Random); // after a continuation
        let (c, _) = d.serve(&req(1, 2, 0));
        assert_eq!(c, ServiceClass::AlmostSequential);
        let (c, _) = d.serve(&req(2, 2, 1));
        assert_eq!(c, ServiceClass::Random);
    }

    #[test]
    fn bursty_interleaving_of_two_relations_degrades_to_random() {
        // Two or more foreign requests evict the read-ahead: multi-worker
        // tasks interleave in worker-sized bursts and pay full seeks.
        let mut d = disk();
        d.serve(&req(1, 0, 0));
        d.serve(&req(1, 1, 1));
        let mut rand = 0;
        for i in 1..20u64 {
            for w in 0..2 {
                let (c, _) = d.serve(&preq(2, 2 * (i - 1) + w, 2 + w));
                if c == ServiceClass::Random {
                    rand += 1;
                }
            }
            for w in 0..2 {
                let (c, _) = d.serve(&preq(1, 2 * i + w, w));
                if c == ServiceClass::Random {
                    rand += 1;
                }
            }
        }
        // Each burst's first request pays the seek: half of all requests.
        assert!(rand >= 36, "expected heavy seeking, got {rand} random of 76");
    }

    #[test]
    fn dominant_stream_keeps_long_sequential_runs() {
        // 9 requests of task A for every request of task B: only the two
        // requests around each switch pay the seek, matching the paper's
        // ratio-based bandwidth interpolation.
        let mut d = disk();
        let mut a_block = 0;
        d.serve(&req(1, a_block, 0));
        let mut seq = 0;
        let mut rand = 0;
        for b_block in 0..10u64 {
            for _ in 0..9 {
                a_block += 1;
                let (c, _) = d.serve(&req(1, a_block, 0));
                if c == ServiceClass::Sequential {
                    seq += 1;
                } else {
                    rand += 1;
                }
            }
            let (c, _) = d.serve(&req(2, b_block, 1));
            // B returns after nine foreign requests: read-ahead long gone.
            assert_eq!(c, ServiceClass::Random);
        }
        // A single B interloper no longer evicts A's read-ahead: the first
        // A request after each B drops to almost-sequential (counted in
        // `rand` here) rather than a full seek; 9 rounds are interrupted.
        assert_eq!(rand, 9);
        assert_eq!(seq, 81);
    }

    #[test]
    fn far_jump_within_a_relation_is_random() {
        let mut d = disk();
        d.serve(&req(1, 0, 0));
        let (c, _) = d.serve(&req(1, 1000, 0));
        assert_eq!(c, ServiceClass::Random);
    }

    #[test]
    fn busy_accounting_sums_by_class() {
        let mut d = disk();
        d.serve(&req(1, 0, 0)); // random (cold)
        d.serve(&req(1, 1, 0)); // sequential
        d.serve(&req(1, 2, 1)); // almost-seq
        assert_eq!(d.count_of(ServiceClass::Random), 1);
        assert_eq!(d.count_of(ServiceClass::Sequential), 1);
        assert_eq!(d.count_of(ServiceClass::AlmostSequential), 1);
        assert_eq!(d.total_count(), 3);
        let expect = 1.0 / 35.0 + 1.0 / 97.0 + 1.0 / 60.0;
        assert!((d.busy_time() - expect).abs() < 1e-12);
    }

    #[test]
    fn degraded_service_charges_the_stretched_time() {
        let mut d = disk();
        d.serve(&req(1, 0, 0)); // cold seek at nominal speed
        let (c, dur) = d.serve_degraded(&req(1, 1, 0), 3.0);
        assert_eq!(c, ServiceClass::Sequential);
        assert!((dur - 3.0 / 97.0).abs() < 1e-12);
        // Busy accounting carries the stretched time: observed rate drops.
        let expect = 1.0 / 35.0 + 3.0 / 97.0;
        assert!((d.busy_time() - expect).abs() < 1e-12);
        assert_eq!(d.count_of(ServiceClass::Sequential), 1);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut d = disk();
        d.serve(&req(1, 0, 0));
        d.serve(&req(1, 1, 0));
        d.reset();
        assert_eq!(d.total_count(), 0);
        assert_eq!(d.busy_time(), 0.0);
        let (c, _) = d.serve(&req(1, 2, 0));
        assert_eq!(c, ServiceClass::Random);
    }

    #[test]
    fn class_stats_snapshot_diff_and_merge() {
        let mut d = disk();
        d.serve(&req(1, 0, 0)); // random (cold)
        let edge = d.class_stats();
        d.serve(&req(1, 1, 0)); // sequential
        d.serve(&req(1, 2, 1)); // almost-seq
        let now = d.class_stats();
        assert_eq!(now.total_count(), d.total_count());
        assert!((now.total_busy() - d.busy_time()).abs() < 1e-12);
        let window = now.diff(&edge);
        assert_eq!(window.counts, [1, 1, 0]);
        assert!((window.busy_of(ServiceClass::Sequential) - 1.0 / 97.0).abs() < 1e-12);
        let doubled = window.merged(&window);
        assert_eq!(doubled.total_count(), 4);
    }

    #[test]
    fn from_rates_validates_ordering() {
        let p = DiskParams::from_rates(100.0, 50.0, 25.0);
        assert!((p.service_time(ServiceClass::Sequential) - 0.01).abs() < 1e-12);
        assert!((p.service_time(ServiceClass::Random) - 0.04).abs() < 1e-12);
        // The window and absorb limit are the paper disk's, not re-typed.
        let paper = DiskParams::paper_default();
        assert_eq!((p.reorder_window, p.absorb_limit), (paper.reorder_window, paper.absorb_limit));
    }

    #[test]
    #[should_panic(expected = "rates must satisfy")]
    fn from_rates_rejects_inverted_rates() {
        DiskParams::from_rates(35.0, 60.0, 97.0);
    }
}

//! The shared machine throttle: disks as reservation timelines, processors
//! behind a counting semaphore, pages behind a sharded buffer pool.
//!
//! A disk serves one request at a time, so each disk is a *timeline*: its
//! lane keeps the head state from `xprs-disk` plus the instant its last
//! reserved service ends. [`Machine::begin_read`] classifies a request
//! against the head state and reserves the next free interval
//! `[max(free_at, now), + service × scale)` under the lane's latch, and
//! hands back a [`ReadTicket`]; [`Machine::finish_read`] sleeps to the
//! ticket's deadline with no latch held. Queueing, head movement and seek
//! interference show up in wall-clock measurements exactly as in the
//! discrete-event simulator — and a backend may issue a read, go on
//! computing, and collect the page later, which is what lets a scan overlap
//! page `k + 1`'s I/O with page `k`'s CPU.
//!
//! The CPU gate bounds the number of workers concurrently evaluating
//! qualifications to the machine's processor count `N`, modelling the
//! paper's processor allocation on hosts with arbitrarily many cores.
//! Waiters **park on a condvar** — there is no spin/yield loop anywhere on
//! the issue path.
//!
//! The buffer pool is a [`ShardedBufferPool`]: each page hashes to one of
//! `n` independently latched shards, so concurrent scans do not
//! serialize on a single pool mutex (§2.2–2.3's balance point assumes the
//! engine itself adds no shared-resource interference). A page is resident
//! from the moment its miss is *issued*, so in a throttled run each shard
//! has an in-flight table beside it: the deadline of every frame whose read
//! has not yet been collected. A hit on such a frame waits for that
//! deadline, as the miss does — the page has not arrived.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xprs_disk::{ArrayStats, ClassStats, DiskParams, DiskState, FaultPlan, IoRequest, RelId, ServiceClass, StripedLayout, WorkerId};
use xprs_obs::TimeSum;
use xprs_scheduler::MachineConfig;
use xprs_storage::bufpool::{FetchOutcome, UnpinError};
use xprs_storage::{PoolStats, ShardedBufferPool};

use crate::obs::ExecMetrics;

/// Lock acquisition that shrugs off poisoning: the guarded state is
/// bookkeeping (disk head positions, counters), and a worker panic is
/// reported through the master channel — the remaining workers must still
/// be able to drain.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Most a thread's model clock may lag its wall clock. Timer slack, wake-up
/// latency and the host time between two modelled waits sit well under
/// this; a longer lag is a host stall, and absorbing it would let the
/// thread run a burst of reads in zero wall time.
const MAX_CLOCK_LAG: Duration = Duration::from_millis(2);

thread_local! {
    /// This thread's model clock: the modelled instant its last modelled
    /// wait ended, or the instant the master staffed its current job.
    /// `None` on a thread that has done neither.
    static MODEL_CLOCK: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The thread's model clock at wall instant `now`, clamped to
/// `[now − MAX_CLOCK_LAG, now]`. A thread acting on the wall clock would
/// stretch every modelled second: `thread::sleep` returns late (17–21 % on
/// the 0.4–0.8 ms sleeps of a 20–40× run), and evaluating tuples or claiming
/// units takes host time the model does not price. So every modelled wait
/// is a deadline on this clock — a disk request *arrives* at
/// `model_clock(now)`, a modelled duration ends at `model_clock(now) + d` —
/// and the host time between two waits falls inside the next one.
fn model_clock(now: Instant) -> Instant {
    let floor = now.checked_sub(MAX_CLOCK_LAG).unwrap_or(now);
    MODEL_CLOCK.get().map_or(now, |clock| clock.clamp(floor, now))
}

/// Start this thread's model clock at `at`: the instant the master staffed
/// the job it is about to run, or a contended CPU permit was granted.
/// Nothing the thread carried from before `at` moves its next waits.
pub(crate) fn start_model_clock(at: Instant) {
    MODEL_CLOCK.set(Some(at));
}

/// The one pacing rule: block until `target`, then advance the model clock
/// to it. A target already behind the model clock (a disk that finished
/// while the thread computed) is not slept for and leaves the clock where
/// it is; the clock only moves forward, and a sleep never returns early,
/// so a thread never finishes ahead of its model.
fn pace_until(now: Instant, target: Instant) {
    if let Some(due) = target.checked_duration_since(now).filter(|d| !d.is_zero()) {
        std::thread::sleep(due);
    }
    MODEL_CLOCK.set(Some(model_clock(now).max(target)));
}

/// Sleep until a reserved service completes (no-op when unthrottled).
fn await_deadline(deadline: Option<Instant>) {
    if let Some(deadline) = deadline {
        pace_until(Instant::now(), deadline);
    }
}

/// A counting semaphore: at most `permits` holders at a time.
#[derive(Debug)]
pub struct CpuGate {
    inner: Mutex<GateState>,
    cv: Condvar,
    capacity: u32,
}

#[derive(Debug)]
struct GateState {
    /// Free permits.
    free: u32,
    /// Fewest permits ever free at once (the peak-holders low-water mark;
    /// kept under the gate's own latch, so it costs the hot path nothing
    /// shared beyond the lock it already takes).
    min_free: u32,
}

impl GateState {
    /// Take one permit (caller checked `free > 0`).
    fn take(&mut self) {
        self.free -= 1;
        self.min_free = self.min_free.min(self.free);
    }
}

impl CpuGate {
    /// Gate admitting `permits` concurrent holders.
    pub fn new(permits: u32) -> Self {
        assert!(permits >= 1, "need at least one processor");
        CpuGate {
            inner: Mutex::new(GateState { free: permits, min_free: permits }),
            cv: Condvar::new(),
            capacity: permits,
        }
    }

    /// Acquire one processor, parking until one is free.
    pub fn acquire(&self) -> CpuPermit<'_> {
        let mut st = lock(&self.inner);
        while st.free == 0 {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.take();
        CpuPermit { gate: self }
    }

    /// Acquire one processor only if one is free right now.
    pub fn try_acquire(&self) -> Option<CpuPermit<'_>> {
        let mut st = lock(&self.inner);
        if st.free == 0 {
            return None;
        }
        st.take();
        Some(CpuPermit { gate: self })
    }

    /// Most permits ever held at once — never above the permits the gate
    /// was built with, however many backends are staffed.
    pub fn peak_holders(&self) -> u32 {
        self.capacity - lock(&self.inner).min_free
    }

    fn release(&self) {
        let mut st = lock(&self.inner);
        st.free += 1;
        debug_assert!(st.free <= self.capacity);
        self.cv.notify_one();
    }
}

/// RAII processor permit.
#[derive(Debug)]
pub struct CpuPermit<'a> {
    gate: &'a CpuGate,
}

impl Drop for CpuPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// Attempts a read is given before an unrecoverable [`IoFault`] is raised:
/// the initial issue plus two retries.
pub const READ_ATTEMPTS: u32 = 3;

/// Simulated seconds of backoff before the first retry; doubles per retry.
pub const RETRY_BACKOFF: f64 = 0.002;

/// An unrecoverable I/O fault: a disk read kept failing after every
/// bounded retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// Relation whose page could not be read.
    pub rel: RelId,
    /// Global block number of the failing page.
    pub block: u64,
    /// Attempts made (including the initial issue).
    pub attempts: u32,
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read of {:?} block {} failed after {} attempts",
            self.rel, self.block, self.attempts
        )
    }
}

/// Aggregate I/O statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MachineStats {
    /// Per-class request counts and busy time.
    pub disk: ArrayStats,
    /// Simulated seconds requests spent queued behind earlier reservations
    /// on their disk, summed over the array (0 in an unthrottled run).
    pub queue_wait: f64,
    /// Total page reads issued (buffer hits + disk reads).
    pub reads: u64,
    /// Buffer-pool counters (summed over shards).
    pub pool: PoolStats,
}

/// One disk of the array: head state plus its reservation timeline. The
/// latch around a lane is held to classify and reserve, never to sleep.
#[derive(Debug)]
struct DiskLane {
    disk: DiskState,
    /// Wall instant the last reserved service ends; the disk idles from
    /// then until the next arrival.
    free_at: Instant,
    /// Simulated seconds requests waited between arriving and starting
    /// service (`start − arrival`, measured where the wait is decided).
    queue_wait: f64,
}

impl DiskLane {
    fn class_stats(&self) -> ClassStats {
        ClassStats { queue_wait: self.queue_wait, ..self.disk.class_stats() }
    }
}

/// One reserved disk service: its class and, in a throttled run, the wall
/// instant it completes.
#[derive(Debug, Clone, Copy)]
struct Service {
    class: ServiceClass,
    deadline: Option<Instant>,
}

/// A page read issued by [`Machine::begin_read`] and not yet collected. On a
/// pool miss it holds the frame's pin, so it must be handed to
/// [`Machine::finish_read`] on every path.
#[must_use = "an issued read keeps its buffer pin until `finish_read`"]
#[derive(Debug)]
pub struct ReadTicket(Pending);

#[derive(Debug)]
enum Pending {
    /// A buffer hit; on a frame whose read is still in flight, that read's
    /// deadline.
    Hit(Option<Instant>),
    Disk(DiskRead),
}

/// The disk side of a [`ReadTicket`].
#[derive(Debug)]
struct DiskRead {
    block: u64,
    req: IoRequest,
    /// The pool access was a miss: the frame stays pinned until the read
    /// finishes.
    pinned: bool,
    /// The first attempt's reservation.
    service: Service,
}

/// The shared machine: striped disk array + processor gate + time scale.
#[derive(Debug)]
pub struct Machine {
    layout: StripedLayout,
    lanes: Vec<Mutex<DiskLane>>,
    cpu: CpuGate,
    /// Sharded buffer pool; a hit skips the disk entirely. Not wrapped in a
    /// machine-level mutex — each shard carries its own latch.
    pool: Option<ShardedBufferPool>,
    /// Per pool shard, the deadline of each frame whose miss is issued and
    /// not yet collected. A miss is accessed, reserved and entered under its
    /// shard's latch, so no hit sees the frame resident before its deadline
    /// is known. Empty when unthrottled (no read is ever in flight) or
    /// unbuffered: the hit path then takes no latch beyond the pool's.
    in_flight: Vec<Mutex<HashMap<(RelId, u64), Instant>>>,
    /// Wall-clock seconds per simulated second (0 disables sleeping).
    scale: f64,
    /// Injected fault schedule (`None` in fault-free operation).
    faults: Option<Arc<FaultPlan>>,
    /// Hot-path metric registry: gate waits, retries, faults and unpin
    /// anomalies, recorded on every run.
    metrics: Arc<ExecMetrics>,
    /// Simulated CPU seconds consumed through [`Machine::compute`] — one
    /// relaxed add per (already batched) compute call.
    cpu_busy: TimeSum,
    reads: AtomicU64,
    worker_ids: AtomicU64,
}

impl Machine {
    /// Build from a machine configuration. `scale` maps simulated service
    /// seconds to wall-clock sleeps: `0.0` runs at full speed (functional
    /// testing), `1.0` runs in real time, `0.01` runs 100× fast. The buffer
    /// pool has `pool_pages` frames (0 disables buffering; every read hits a
    /// disk) split over `shards` page-hashed shards, each independently
    /// latched.
    pub fn with_sharded_pool(
        cfg: &MachineConfig,
        scale: f64,
        pool_pages: usize,
        shards: usize,
    ) -> Self {
        assert!(scale >= 0.0 && scale.is_finite(), "invalid time scale {scale}");
        let params = DiskParams::from_rates(cfg.seq_bw, cfg.almost_seq_bw, cfg.random_bw);
        let pool = (pool_pages > 0).then(|| ShardedBufferPool::new(pool_pages, shards));
        let in_flight_shards = pool.as_ref().filter(|_| scale > 0.0).map_or(0, |p| p.n_shards());
        Machine {
            layout: StripedLayout::new(cfg.n_disks),
            lanes: (0..cfg.n_disks)
                .map(|_| {
                    Mutex::new(DiskLane {
                        disk: DiskState::new(params.clone()),
                        free_at: Instant::now(),
                        queue_wait: 0.0,
                    })
                })
                .collect(),
            cpu: CpuGate::new(cfg.n_procs),
            pool,
            in_flight: (0..in_flight_shards).map(|_| Mutex::default()).collect(),
            scale,
            faults: None,
            metrics: Arc::default(),
            cpu_busy: TimeSum::new(),
            reads: AtomicU64::new(0),
            worker_ids: AtomicU64::new(0),
        }
    }

    /// Attach an injected fault schedule: transient read errors, sustained
    /// per-disk slowdowns and worker faults then fire at their scheduled
    /// logical offsets.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The attached fault schedule, if any.
    pub(crate) fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The machine's hot-path metric registry.
    pub fn metrics(&self) -> &Arc<ExecMetrics> {
        &self.metrics
    }

    /// Simulated CPU seconds consumed so far.
    pub fn cpu_busy_secs(&self) -> f64 {
        self.cpu_busy.secs()
    }

    /// Per-disk per-class request counts, busy time and queue wait, indexed
    /// by disk.
    pub fn disk_class_stats(&self) -> Vec<ClassStats> {
        self.lanes.iter().map(|l| lock(l).class_stats()).collect()
    }

    /// [`Machine::disk_class_stats`] merged over the whole array — the
    /// cumulative counters the utilization audit samples at pairing-window
    /// edges. Busy time includes any degradation stretch, so a window's
    /// `requests / busy` per class is the *observed* service rate the
    /// patrol's recalibration compares with the model.
    pub fn disk_class_total(&self) -> ClassStats {
        let mut total = ClassStats::default();
        for l in &self.lanes {
            total = total.merged(&lock(l).class_stats());
        }
        total
    }

    /// The processor gate.
    pub fn cpu(&self) -> &CpuGate {
        &self.cpu
    }

    /// The time scale (wall seconds per simulated second).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Allocate a machine-unique worker identity (for head-state tracking).
    pub fn new_worker_id(&self) -> WorkerId {
        WorkerId(self.worker_ids.fetch_add(1, Ordering::Relaxed))
    }

    /// Blocking read of `global_block` of `rel`: [`Machine::begin_read`]
    /// and [`Machine::finish_read`] back to back. Consults the buffer pool;
    /// on a miss waits for the disk and charges the classified service time
    /// (sleeping `scale ×` it). Returns the service class of the disk read,
    /// or `None` on a buffer hit. The caller then accesses the in-memory
    /// page image.
    pub fn try_read(
        &self,
        rel: RelId,
        global_block: u64,
        worker: WorkerId,
        solo: bool,
    ) -> Result<Option<ServiceClass>, IoFault> {
        self.finish_read(self.begin_read(rel, global_block, worker, solo))
    }

    /// Issue a read of `global_block` of `rel` without waiting for it:
    /// consult the buffer pool and, on a miss, classify the request against
    /// its disk's head state and reserve the disk's next free service
    /// interval. A hit on a frame whose read is still in flight carries that
    /// read's deadline. The caller collects the page with
    /// [`Machine::finish_read`] — at once for a blocking read, or after doing
    /// other work while the disk serves it.
    pub fn begin_read(
        &self,
        rel: RelId,
        global_block: u64,
        worker: WorkerId,
        solo: bool,
    ) -> ReadTicket {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let pool = self.pool.as_ref();
        // Lock order: in-flight table → pool shard → disk lane.
        let mut in_flight = pool
            .filter(|_| self.scale > 0.0)
            .map(|p| lock(&self.in_flight[p.shard_of(rel, global_block)]));
        let pinned = match pool.map(|p| p.access(rel, global_block)) {
            Some(Ok(FetchOutcome::Hit)) => {
                let arrives = in_flight
                    .and_then(|table| table.get(&(rel, global_block)).copied())
                    .filter(|&deadline| deadline > Instant::now());
                return ReadTicket(Pending::Hit(arrives));
            }
            Some(Ok(FetchOutcome::Miss)) => true,
            // No pool, or its shard is exhausted by concurrent pins: read
            // around it.
            Some(Err(_)) | None => false,
        };
        let req = IoRequest {
            rel,
            local_block: self.layout.local_block(global_block),
            worker,
            solo,
        };
        let service = self.reserve(&req, global_block, true);
        if let (true, Some(table), Some(deadline)) = (pinned, &mut in_flight, service.deadline) {
            table.insert((rel, global_block), deadline);
        }
        ReadTicket(Pending::Disk(DiskRead { block: global_block, req, pinned, service }))
    }

    /// Wait for an issued read: sleep to its reservation's deadline, then —
    /// on an injected transient read error — retry up to
    /// [`READ_ATTEMPTS`] times with doubling (scaled) backoff before
    /// escalating to an [`IoFault`]. Every attempt reserves the disk for its
    /// full classified service time — a fault costs I/O, it does not refund
    /// it. Returns the service class of the disk read, or `None` on a
    /// buffer hit; with no fault plan attached this never errors. The pool
    /// pin of a miss is returned on every path. A hit on a frame that was
    /// in flight sleeps to the first attempt's deadline; a retry does not
    /// move it.
    pub fn finish_read(&self, ticket: ReadTicket) -> Result<Option<ServiceClass>, IoFault> {
        let DiskRead { block, req, pinned, mut service } = match ticket.0 {
            Pending::Hit(arrives) => {
                await_deadline(arrives);
                return Ok(None);
            }
            Pending::Disk(read) => read,
        };
        let mut outcome = Err(IoFault { rel: req.rel, block, attempts: READ_ATTEMPTS });
        for attempt in 0..READ_ATTEMPTS {
            await_deadline(service.deadline);
            let faulted = self.faults.as_ref().is_some_and(|f| f.take_read_error(req.rel, block));
            if !faulted {
                outcome = Ok(Some(service.class));
                break;
            }
            if attempt + 1 < READ_ATTEMPTS {
                self.metrics.io_retries.inc();
                self.sleep_sim(RETRY_BACKOFF * (1u64 << attempt.min(30)) as f64);
                service = self.reserve(&req, block, true);
            }
        }
        if outcome.is_err() {
            self.metrics.io_faults.inc();
        }
        if pinned {
            if let Some(pool) = &self.pool {
                // Also on the fault path: the frame holds no data in this
                // model, but the *pin* must always be returned — leaking one
                // per failed read starves the shard into PoolExhausted
                // livelock under a retry storm. An unpin anomaly (double
                // release under a retry race) is a typed error now: count it
                // and keep serving rather than killing the worker.
                if self.release_frame(pool, req.rel, block).is_err() {
                    self.metrics.unpin_anomalies.inc();
                }
            }
        }
        outcome
    }

    /// Classify `req` against its disk's head state and reserve the disk's
    /// next free interval, `[max(free_at, arrival), + service × scale)`. The
    /// request arrives on the issuing thread's model clock, so a thread that
    /// woke late from its previous wait does not push that lateness into
    /// the disk's idle time. This is the only place the I/O path takes a
    /// lane latch, and it sleeps nowhere. `degradable` requests (heap reads)
    /// are stretched by an injected slowdown, keyed to the disk's own
    /// request ordinal so it fires identically across interleavings.
    fn reserve(&self, req: &IoRequest, global_block: u64, degradable: bool) -> Service {
        let disk = self.layout.disk_of(global_block) as usize;
        let arrival = (self.scale > 0.0).then(|| model_clock(Instant::now()));
        let mut lane = lock(&self.lanes[disk]);
        let mult = match &self.faults {
            Some(f) if degradable => f.slowdown_multiplier(disk, lane.disk.total_count()),
            _ => 1.0,
        };
        let (class, dur) = lane.disk.serve_degraded(req, mult);
        let deadline = arrival.map(|arrival| {
            let start = lane.free_at.max(arrival);
            lane.queue_wait += start.duration_since(arrival).as_secs_f64() / self.scale;
            lane.free_at = start + Duration::from_secs_f64(dur * self.scale);
            lane.free_at
        });
        Service { class, deadline }
    }

    /// A miss's read is collected: forget its deadline, then return its pin.
    /// In that order: the page can miss again only once its frame is
    /// unpinned, so the entry removed here is always this read's.
    fn release_frame(
        &self,
        pool: &ShardedBufferPool,
        rel: RelId,
        block: u64,
    ) -> Result<(), UnpinError> {
        if self.scale > 0.0 {
            lock(&self.in_flight[pool.shard_of(rel, block)]).remove(&(rel, block));
        }
        pool.finish_read(rel, block)
    }

    /// The sharded buffer pool, when one is attached. The master's admission
    /// layer reserves grant capacity through this handle.
    pub fn pool(&self) -> Option<&ShardedBufferPool> {
        self.pool.as_ref()
    }

    /// Charge `n_blocks` of spill traffic for `rel` starting at
    /// `start_block` — a sorted-run write, or its read-back before the
    /// merge. Spill files are striped like heap relations, so spill I/O
    /// occupies the same disk heads and degrades concurrent scans exactly
    /// as the Section 2.3 interference model demands. It deliberately
    /// bypasses the buffer pool (the grant protocol spills *because* the
    /// pool had no room) and is not counted in [`Machine::reads`],
    /// which tracks heap reads only — the obs ledger invariant
    /// `hits + misses + bypasses == reads` must keep holding.
    pub fn spill_io(&self, rel: RelId, start_block: u64, n_blocks: u64, worker: WorkerId) {
        for b in start_block..start_block + n_blocks {
            let req = IoRequest {
                rel,
                local_block: self.layout.local_block(b),
                worker,
                solo: false,
            };
            await_deadline(self.reserve(&req, b, false).deadline);
        }
    }

    /// Burn `seconds` of simulated CPU while holding a processor permit.
    /// The time spent *waiting* for the permit is recorded — the measured
    /// cost of staffing more workers than `N`.
    ///
    /// Only *contended* acquisitions reach the histogram. An uncontended
    /// grant is a zero wait, and recording that zero costs four shared
    /// cache-line RMWs per compute call — measured at ~3% of scan wall on
    /// the 8-worker A/B, which is more than the instruments' whole 2%
    /// budget. The histogram's `count` is therefore "acquisitions that
    /// waited", not "acquisitions".
    ///
    /// A contended wait is modelled processor contention, so in a
    /// throttled run the burst starts when the permit is granted: the
    /// thread's model clock restarts there.
    pub fn compute(&self, seconds: f64) {
        let _permit = self.cpu.try_acquire().unwrap_or_else(|| {
            let waited = Instant::now();
            let permit = self.cpu.acquire();
            let granted = Instant::now();
            self.metrics.gate_wait_ns.observe(granted.duration_since(waited).as_nanos() as u64);
            if self.scale > 0.0 {
                start_model_clock(granted);
            }
            permit
        });
        self.cpu_busy.add_secs(seconds);
        self.sleep_sim(seconds);
    }

    /// Occupy the calling thread for `seconds` of simulated time on its
    /// model clock (retry backoff and CPU bursts; disk service waits on its
    /// reservation's deadline instead, see [`await_deadline`]).
    fn sleep_sim(&self, seconds: f64) {
        if self.scale > 0.0 && seconds > 0.0 {
            let now = Instant::now();
            pace_until(now, model_clock(now) + Duration::from_secs_f64(seconds * self.scale));
        }
    }

    /// Total page reads issued so far (cheaper than a full [`Self::stats`]
    /// snapshot; the auditor samples this at every scheduling decision).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Statistics so far.
    pub fn stats(&self) -> MachineStats {
        let total = self.disk_class_total();
        MachineStats {
            disk: ArrayStats {
                sequential: total.count_of(ServiceClass::Sequential),
                almost_sequential: total.count_of(ServiceClass::AlmostSequential),
                random: total.count_of(ServiceClass::Random),
                busy_time: total.total_busy(),
            },
            queue_wait: total.queue_wait,
            reads: self.reads.load(Ordering::Relaxed),
            pool: self.pool.as_ref().map(|p| p.stats()).unwrap_or_default(),
        }
    }

    /// Per-shard buffer-pool counters (empty when buffering is disabled).
    pub fn pool_shard_stats(&self) -> Vec<PoolStats> {
        self.pool.as_ref().map(|p| p.shard_stats()).unwrap_or_default()
    }

    /// Outstanding buffer-pool pins right now (0 when buffering is
    /// disabled). Non-zero after a run means a reader leaked a pin.
    pub fn pool_pinned(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.pinned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn machine(scale: f64) -> Machine {
        Machine::with_sharded_pool(&MachineConfig::paper_default(), scale, 0, 1)
    }

    /// A read no injected fault may fail.
    fn read(m: &Machine, rel: RelId, block: u64, w: WorkerId, solo: bool) -> Option<ServiceClass> {
        m.try_read(rel, block, w, solo).expect("unhandled I/O fault")
    }

    #[test]
    fn cpu_gate_bounds_concurrency() {
        let gate = Arc::new(CpuGate::new(2));
        let active = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (gate, active, peak) = (gate.clone(), active.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _p = gate.acquire();
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().expect("gate worker must not panic");
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate leaked permits");
    }

    /// Deterministic shard exhaustion: a one-frame, one-shard pool and a
    /// scaled service time long enough that the second reader arrives while
    /// the first still pins the only frame. The refused fetch must surface
    /// in the stats — `hits + misses + bypasses == reads` even under pin
    /// pressure, where the old ledger silently dropped the read.
    #[test]
    fn exhausted_shard_counts_the_bypass_and_keeps_the_ledger() {
        let cfg = MachineConfig::paper_default();
        let m = Arc::new(Machine::with_sharded_pool(&cfg, 6.0, 1, 1));
        let first = {
            let m = m.clone();
            std::thread::spawn(move || {
                let w = m.new_worker_id();
                // Cold random read ≈ 28.6 ms simulated → ≈ 170 ms wall: the
                // frame stays pinned for the whole service.
                read(&m, RelId(1), 0, w, false);
            })
        };
        std::thread::sleep(Duration::from_millis(40));
        let w = m.new_worker_id();
        read(&m, RelId(1), 4, w, false); // only shard is fully pinned → bypass
        first.join().expect("reader must not panic");
        let s = m.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.pool.bypasses, 1, "the refused fetch must be counted");
        assert_eq!(s.pool.hits + s.pool.misses + s.pool.bypasses, s.reads);
        assert!(s.pool.hit_rate() < 0.5, "a bypass must price into the hit rate");
    }

    #[test]
    fn reads_route_and_classify_like_the_model() {
        let m = machine(0.0);
        let w = m.new_worker_id();
        // Solo sequential scan: all but the cold seeks run sequential.
        let mut seq = 0;
        for b in 0..100u64 {
            if read(&m, RelId(1), b, w, true) == Some(ServiceClass::Sequential) {
                seq += 1;
            }
        }
        assert_eq!(seq, 96); // 4 cold (one per disk)
        let s = m.stats();
        assert_eq!(s.reads, 100);
        assert_eq!(s.disk.total(), 100);
    }

    #[test]
    fn concurrent_reads_on_different_disks_do_not_serialize() {
        // Functional check only: two threads hammer different blocks; the
        // stats must account every read exactly once.
        let m = Arc::new(machine(0.0));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let w = m.new_worker_id();
                for b in 0..250u64 {
                    read(&m, RelId(t + 1), b, w, false);
                }
            }));
        }
        for h in handles {
            h.join().expect("reader thread must not panic");
        }
        assert_eq!(m.stats().reads, 1000);
        assert_eq!(m.stats().disk.total(), 1000);
    }

    #[test]
    fn paced_sleeps_average_to_the_modelled_time() {
        // 200 paced 0.5 ms waits from a clock started at t0: the model clock
        // ends no earlier than t0 + 100 ms, and neither does the wall clock.
        // Lower bounds only — how late the host wakes the thread is not the
        // model's to assert.
        let step = Duration::from_micros(500);
        let t0 = Instant::now();
        start_model_clock(t0);
        for _ in 0..200 {
            let now = Instant::now();
            pace_until(now, model_clock(now) + step);
        }
        let modelled = t0 + 200 * step;
        assert!(model_clock(Instant::now()) >= modelled, "the model clock lost a wait");
        assert!(t0.elapsed() >= 200 * step, "ran ahead of the model: {:?}", t0.elapsed());
    }

    #[test]
    fn a_target_ahead_of_the_clock_moves_the_clock_to_it() {
        let t0 = Instant::now();
        start_model_clock(t0);
        let target = t0 + Duration::from_micros(300);
        pace_until(t0, target);
        assert!(Instant::now() >= target, "a sleep returned early");
        assert_eq!(MODEL_CLOCK.get(), Some(target));
    }

    #[test]
    fn a_deadline_behind_the_clock_leaves_it_unchanged() {
        // A disk that finished while the thread computed: nothing to wait
        // for, and nothing to move.
        let now = Instant::now();
        let clock = now - Duration::from_micros(500);
        start_model_clock(clock);
        pace_until(now, clock - Duration::from_millis(1));
        assert_eq!(MODEL_CLOCK.get(), Some(clock));
    }

    #[test]
    fn an_unpaced_stall_drags_the_clock_to_the_lag_bound() {
        // 10 ms of host time with no modelled wait is a stall: the clock
        // keeps at most MAX_CLOCK_LAG of it.
        let now = Instant::now();
        start_model_clock(now - Duration::from_millis(10));
        assert_eq!(model_clock(now), now - MAX_CLOCK_LAG);
        pace_until(now, now - Duration::from_millis(10));
        assert_eq!(MODEL_CLOCK.get(), Some(now - MAX_CLOCK_LAG));
    }

    #[test]
    fn a_contended_permit_restarts_the_clock_at_the_grant() {
        // One processor held by the test thread: a second thread's compute
        // parks on the gate while its clock lags by the full bound. Its
        // burst must start when the permit is granted, not on the stale
        // clock, so it ends no earlier than the grant plus the burst.
        let cfg = MachineConfig { n_procs: 1, ..MachineConfig::paper_default() };
        let m = Machine::with_sharded_pool(&cfg, 1.0, 0, 1);
        let held = m.cpu().acquire();
        let burst = Duration::from_millis(1);
        let computing = AtomicU64::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                start_model_clock(Instant::now() - MAX_CLOCK_LAG);
                computing.store(1, Ordering::SeqCst);
                m.compute(burst.as_secs_f64());
                (MODEL_CLOCK.get().expect("compute paced"), Instant::now())
            });
            while computing.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            let released = Instant::now();
            drop(held);
            let (clock, done) = waiter.join().expect("compute must not panic");
            assert_eq!(m.metrics().gate_wait_ns.snapshot().count, 1, "the acquisition never waited");
            assert!(clock >= released + burst, "the burst started before its permit");
            assert!(done >= released + burst, "the burst ended before the model allows");
        });
    }

    #[test]
    fn no_pacing_state_crosses_a_job_boundary() {
        // A thread left at the full lag by its previous job, then staffed
        // anew at t1: its first 1 ms wait must end no earlier than t1 + 1 ms.
        let m = machine(1.0);
        let now = Instant::now();
        start_model_clock(now - Duration::from_millis(5));
        assert_eq!(model_clock(now), now - MAX_CLOCK_LAG, "the thread carries the full lag");
        let t1 = Instant::now();
        start_model_clock(t1);
        m.sleep_sim(0.001);
        assert!(Instant::now() >= t1 + Duration::from_millis(1), "the lag leaked into the job");
    }

    /// Wall seconds from `t0` until each ticket, collected in order, is done.
    fn collect(m: &Machine, t0: Instant, tickets: Vec<ReadTicket>) -> Vec<f64> {
        tickets
            .into_iter()
            .map(|t| {
                m.finish_read(t).expect("fault-free read");
                t0.elapsed().as_secs_f64()
            })
            .collect()
    }

    #[test]
    fn reads_to_one_disk_queue_and_reads_to_two_disks_overlap() {
        // Scale 1.0, cold random reads: s = 1/35 s ≈ 28.6 ms each. Blocks 0
        // and 4 share disk 0, so issued back to back they finish ≈ s and
        // ≈ 2s after the first issue; blocks 1 and 2 sit on disks 1 and 2
        // and both finish ≈ s after it. The lower bounds are exact (a sleep
        // never returns early, and a fresh thread's clock has no lag), the
        // upper bounds leave a loaded host most of a service time of slack,
        // and the queue-wait ledger is the timeline's own arithmetic.
        let s = 1.0 / 35.0;
        let m = machine(1.0);
        let w = m.new_worker_id();
        let t0 = Instant::now();
        let same = vec![m.begin_read(RelId(1), 0, w, false), m.begin_read(RelId(2), 4, w, false)];
        let done = collect(&m, t0, same);
        assert!(done[0] >= s && done[0] < 1.8 * s, "first read took {} s", done[0]);
        assert!(done[1] >= 2.0 * s && done[1] < 2.8 * s, "queued read took {} s", done[1]);
        let queued = m.stats().queue_wait;
        assert!(queued > 0.5 * s && queued <= s, "second read queued {queued} s, not ≈ {s}");

        let t0 = Instant::now();
        let apart = vec![m.begin_read(RelId(1), 1, w, false), m.begin_read(RelId(1), 2, w, false)];
        let done = collect(&m, t0, apart);
        // By now the thread's model clock may lag from the waits above, and
        // its requests arrive on that clock.
        let floor = s - MAX_CLOCK_LAG.as_secs_f64();
        assert!(done[1] >= floor && done[1] < 1.8 * s, "different disks must overlap: {done:?}");
        assert_eq!(m.stats().queue_wait, queued, "an idle disk queues nothing");
    }

    #[test]
    fn solo_stream_with_read_ahead_stays_sequential() {
        // The scan loop's shape: issue page k+1, then collect page k. Each
        // disk still sees its blocks in order from one worker.
        let m = machine(0.0);
        let w = m.new_worker_id();
        let mut seq = 0;
        let mut in_flight = m.begin_read(RelId(1), 0, w, true);
        for b in 1..=100u64 {
            let next = (b < 100).then(|| m.begin_read(RelId(1), b, w, true));
            if m.finish_read(in_flight) == Ok(Some(ServiceClass::Sequential)) {
                seq += 1;
            }
            let Some(next) = next else { break };
            in_flight = next;
        }
        assert_eq!(seq, 96); // 4 cold (one per disk)
        assert_eq!(m.stats().disk.total(), 100);
    }

    #[test]
    fn no_latch_is_held_while_reads_are_in_flight() {
        // Eight reads at scale 1.0 keep every disk reserved for ≥ 57 ms, and
        // a sibling reader of each page hits its frame mid-read and waits
        // for it; a snapshot of every lane and in-flight table taken
        // meanwhile must not wait for any of them.
        let m = Machine::with_sharded_pool(&MachineConfig::paper_default(), 1.0, 64, 4);
        std::thread::scope(|s| {
            for b in (0..8u64).chain(0..8) {
                let m = &m;
                s.spawn(move || read(m, RelId(b + 1), b, m.new_worker_id(), false));
            }
            while m.reads() < 16 {
                std::thread::yield_now();
            }
            let mut fastest = Duration::MAX;
            for _ in 0..3 {
                let t0 = Instant::now();
                let _ = m.disk_class_total();
                for table in &m.in_flight {
                    drop(lock(table));
                }
                fastest = fastest.min(t0.elapsed());
            }
            assert!(fastest < Duration::from_millis(1), "snapshot blocked for {fastest:?}");
        });
        assert_eq!(m.disk_class_total().total_count(), 8);
        let s = m.stats();
        assert_eq!((s.pool.hits, s.pool.misses), (8, 8), "one read and one sibling hit a page");
        assert_eq!(m.pool_pinned(), 0);
        assert!(m.in_flight.iter().all(|t| lock(t).is_empty()), "a collected read left its entry");
    }

    /// The deadline a throttled miss reserved.
    fn deadline_of(ticket: &ReadTicket) -> Instant {
        match &ticket.0 {
            Pending::Disk(read) => read.service.deadline.expect("a throttled read has a deadline"),
            Pending::Hit(_) => panic!("expected a miss"),
        }
    }

    #[test]
    fn a_hit_on_a_page_still_being_read_waits_for_that_read() {
        // Scale 1.0: the cold read is ≈ 28.6 ms of wall. Another worker's
        // hit on the frame, taken while the read is in flight, carries the
        // read's deadline and is not collected before it.
        let m = Machine::with_sharded_pool(&MachineConfig::paper_default(), 1.0, 8, 1);
        let miss = m.begin_read(RelId(1), 0, m.new_worker_id(), false);
        let deadline = deadline_of(&miss);
        std::thread::scope(|s| {
            s.spawn(|| {
                let hit = m.begin_read(RelId(1), 0, m.new_worker_id(), false);
                assert!(matches!(hit.0, Pending::Hit(Some(d)) if d == deadline));
                assert_eq!(m.finish_read(hit), Ok(None), "a hit reads no disk");
                assert!(Instant::now() >= deadline, "the hit computed on a page not yet read");
            });
        });
        assert!(m.finish_read(miss).expect("fault-free read").is_some());
        assert_eq!(m.stats().disk.total(), 1, "the sibling's wait reserved no disk");
    }

    #[test]
    fn a_hit_on_a_settled_frame_is_an_empty_ticket() {
        let m = Machine::with_sharded_pool(&MachineConfig::paper_default(), 1.0, 8, 1);
        let w = m.new_worker_id();
        // Past its deadline but not yet collected (a read-ahead seat), and
        // then collected: neither leaves anything to wait for.
        let miss = m.begin_read(RelId(1), 0, w, false);
        std::thread::sleep(deadline_of(&miss).saturating_duration_since(Instant::now()));
        assert!(matches!(m.begin_read(RelId(1), 0, w, false).0, Pending::Hit(None)));
        assert!(m.finish_read(miss).expect("fault-free read").is_some());
        assert!(matches!(m.begin_read(RelId(1), 0, w, false).0, Pending::Hit(None)));
        assert!(lock(&m.in_flight[0]).is_empty());
    }

    #[test]
    fn an_unthrottled_hit_touches_no_new_latch() {
        // Unthrottled, nothing is ever in flight and the machine has no
        // in-flight table at all: a read path that touched one would index
        // an empty table and panic.
        let m = Machine::with_sharded_pool(&MachineConfig::paper_default(), 0.0, 8, 2);
        assert!(m.in_flight.is_empty());
        let w = m.new_worker_id();
        assert!(read(&m, RelId(1), 3, w, true).is_some());
        let hit = m.begin_read(RelId(1), 3, w, true);
        assert!(matches!(hit.0, Pending::Hit(None)));
        assert_eq!(m.finish_read(hit), Ok(None));
    }

    #[test]
    fn a_faulted_first_attempt_is_retried_from_finish_read() {
        // The fault is taken when the attempt completes, not when it is
        // issued: `begin_read` reserves one service, `finish_read` reserves
        // the retries, and every attempt occupies the disk.
        let plan = Arc::new(FaultPlan::new().with_read_error(RelId(1), 5, READ_ATTEMPTS - 1));
        let m = Machine::with_sharded_pool(&MachineConfig::paper_default(), 0.0, 8, 1).with_faults(plan.clone());
        let w = m.new_worker_id();
        let ticket = m.begin_read(RelId(1), 5, w, true);
        assert_eq!(plan.stats().read_errors_fired(), 0);
        assert_eq!(m.stats().disk.total(), 1);
        assert_eq!(m.pool_pinned(), 1, "an issued miss holds its pin");
        assert!(m.finish_read(ticket).is_ok(), "retries must absorb the fault");
        assert_eq!(plan.stats().read_errors_fired(), u64::from(READ_ATTEMPTS - 1));
        assert_eq!(m.stats().disk.total(), u64::from(READ_ATTEMPTS));
        assert_eq!(m.pool_pinned(), 0);
        let s = m.stats();
        assert_eq!(s.pool.hits + s.pool.misses + s.pool.bypasses, s.reads);
    }

    #[test]
    fn scaled_sleep_takes_measurable_time() {
        let m = machine(0.05); // 20× fast
        let w = m.new_worker_id();
        let t0 = std::time::Instant::now();
        for b in 0..20u64 {
            read(&m, RelId(1), b, w, true);
        }
        // ≈ 20 ios ≈ 0.2 s simulated ≈ 10 ms wall.
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn buffer_pool_hits_skip_the_disks() {
        let cfg = MachineConfig::paper_default();
        let m = Machine::with_sharded_pool(&cfg, 0.0, 64, 1);
        let w = m.new_worker_id();
        for b in 0..32u64 {
            assert!(read(&m, RelId(1), b, w, true).is_some(), "cold read must hit a disk");
        }
        for b in 0..32u64 {
            assert!(read(&m, RelId(1), b, w, true).is_none(), "warm read must hit the pool");
        }
        let s = m.stats();
        assert_eq!(s.reads, 64);
        assert_eq!(s.disk.total(), 32);
        assert_eq!(s.pool.hits, 32);
        assert_eq!(s.pool.misses, 32);
    }

    #[test]
    fn sharded_pool_matches_single_latch_hit_counts_on_reuse() {
        // Working set ≤ per-shard capacity × shards with uniform hashing:
        // a warm second pass must be all hits in both configurations.
        let cfg = MachineConfig::paper_default();
        for shards in [1usize, 4, 8] {
            let m = Machine::with_sharded_pool(&cfg, 0.0, 256, shards);
            let w = m.new_worker_id();
            for pass in 0..2 {
                for b in 0..64u64 {
                    let hit = read(&m, RelId(1), b, w, true).is_none();
                    assert_eq!(hit, pass == 1, "shards={shards} pass={pass} block={b}");
                }
            }
            let s = m.stats();
            assert_eq!((s.pool.hits, s.pool.misses), (64, 64), "shards={shards}");
            assert_eq!(m.pool_shard_stats().len(), shards);
        }
    }

    #[test]
    fn scan_larger_than_pool_misses_throughout() {
        let cfg = MachineConfig::paper_default();
        let m = Machine::with_sharded_pool(&cfg, 0.0, 16, 1);
        let w = m.new_worker_id();
        for pass in 0..2 {
            for b in 0..200u64 {
                assert!(
                    read(&m, RelId(1), b, w, true).is_some(),
                    "pass {pass}: LRU cannot help a scan 12× the pool"
                );
            }
        }
        assert_eq!(m.stats().pool.hits, 0);
    }

    #[test]
    fn transient_fault_is_absorbed_by_retries() {
        let plan = Arc::new(FaultPlan::new().with_read_error(RelId(1), 5, READ_ATTEMPTS - 1));
        let m = machine(0.0).with_faults(plan.clone());
        let w = m.new_worker_id();
        assert!(m.try_read(RelId(1), 5, w, true).is_ok(), "retries must absorb the fault");
        assert_eq!(plan.stats().read_errors_fired(), u64::from(READ_ATTEMPTS - 1));
        // Every attempt burned a disk service: 2 failures + 1 success.
        assert_eq!(m.stats().disk.total(), u64::from(READ_ATTEMPTS));
    }

    #[test]
    fn exhausted_retries_escalate_to_a_typed_fault() {
        let plan = Arc::new(FaultPlan::new().with_read_error(RelId(1), 9, READ_ATTEMPTS));
        let m = machine(0.0).with_faults(plan);
        let w = m.new_worker_id();
        let err = m.try_read(RelId(1), 9, w, true).expect_err("must escalate");
        assert_eq!(err, IoFault { rel: RelId(1), block: 9, attempts: READ_ATTEMPTS });
        assert!(err.to_string().contains("block 9"));
    }

    #[test]
    fn faulted_reads_release_their_buffer_pins() {
        // A tiny pool plus a storm of unrecoverable faults: if the fault
        // path leaked its miss pin, the shard would exhaust and every later
        // read would bypass the pool forever (misses stop counting).
        let cfg = MachineConfig::paper_default();
        let mut plan = FaultPlan::new();
        for b in 0..64u64 {
            plan = plan.with_read_error(RelId(1), b, READ_ATTEMPTS);
        }
        let m = Machine::with_sharded_pool(&cfg, 0.0, 4, 1).with_faults(Arc::new(plan));
        let w = m.new_worker_id();
        for b in 0..64u64 {
            assert!(m.try_read(RelId(1), b, w, true).is_err());
        }
        // All pins returned: a fresh fault-free block still lands in the
        // pool as a genuine miss rather than a bypass.
        assert!(m.try_read(RelId(1), 100, w, true).is_ok());
        assert_eq!(m.stats().pool.misses, 65, "fault path must keep using the pool");
    }

    #[test]
    fn slowdown_stretches_disk_busy_time() {
        let plan = Arc::new(FaultPlan::new().with_slowdown(0, 0, 4.0));
        let m = machine(0.0).with_faults(plan.clone());
        let w = m.new_worker_id();
        // Blocks 0,4,8,... live on disk 0 under 4-way striping.
        for b in (0..40u64).step_by(4) {
            read(&m, RelId(1), b, w, true);
        }
        let healthy = machine(0.0);
        let w2 = healthy.new_worker_id();
        for b in (0..40u64).step_by(4) {
            read(&healthy, RelId(1), b, w2, true);
        }
        let busy = |m: &Machine| m.disk_class_total().total_busy();
        assert!(
            busy(&m) > 3.9 * busy(&healthy),
            "degraded busy {} vs healthy {}",
            busy(&m),
            busy(&healthy)
        );
        assert_eq!(plan.stats().slow_requests(), 10);
    }

    #[test]
    fn metrics_record_retries_faults_gate_waits_and_cpu_busy() {
        let plan = Arc::new(
            FaultPlan::new()
                .with_read_error(RelId(1), 0, READ_ATTEMPTS - 1) // absorbed
                .with_read_error(RelId(1), 1, READ_ATTEMPTS), // escalates
        );
        let m = machine(0.0).with_faults(plan);
        let metrics = m.metrics().clone();
        let w = m.new_worker_id();
        assert!(m.try_read(RelId(1), 0, w, true).is_ok());
        assert!(m.try_read(RelId(1), 1, w, true).is_err());
        // Block 0: 2 faulted attempts, both retried. Block 1: 3 faulted
        // attempts, the first 2 retried, then the typed fault.
        assert_eq!(metrics.io_retries.get(), u64::from(2 * (READ_ATTEMPTS - 1)));
        assert_eq!(metrics.io_faults.get(), 1);
        m.compute(0.5);
        m.compute(0.25);
        // Uncontended grants are not recorded (contended-only histogram).
        assert_eq!(metrics.gate_wait_ns.snapshot().count, 0);
        assert!((m.cpu_busy_secs() - 0.75).abs() < 1e-9);
        // Per-disk class stats merge to the array totals.
        let per_disk = m.disk_class_stats();
        assert_eq!(per_disk.len(), 4);
        let total = m.disk_class_total();
        assert_eq!(total.total_count(), m.stats().disk.total());
        assert_eq!(
            per_disk.iter().map(xprs_disk::ClassStats::total_count).sum::<u64>(),
            total.total_count()
        );
    }

    #[test]
    fn gate_wait_records_contended_acquisitions() {
        // One processor, scaled time: the first thread holds the permit
        // through a real 10ms sleep, so the second thread's acquisition
        // must wait and must land in the histogram.
        let cfg = MachineConfig { n_procs: 1, ..MachineConfig::paper_default() };
        let m = Arc::new(Machine::with_sharded_pool(&cfg, 1.0, 0, 1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.compute(0.01))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let gate = m.metrics().gate_wait_ns.snapshot();
        assert!(gate.count >= 1, "the losing thread's wait must be recorded");
        assert!(gate.sum > 0, "a contended wait is not a zero wait");
    }

    #[test]
    fn worker_ids_are_unique() {
        let m = machine(0.0);
        let a = m.new_worker_id();
        let b = m.new_worker_id();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "invalid time scale")]
    fn negative_scale_rejected() {
        machine(-1.0);
    }
}

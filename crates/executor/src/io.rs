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
//! engine itself adds no shared-resource interference).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use xprs_disk::{ArrayStats, ClassStats, DiskParams, DiskState, FaultPlan, IoRequest, RelId, ServiceClass, StripedLayout, WorkerId};
use xprs_obs::TimeSum;
use xprs_scheduler::MachineConfig;
use xprs_storage::bufpool::FetchOutcome;
use xprs_storage::{PoolStats, ShardedBufferPool};

use crate::obs::ExecMetrics;

/// Lock acquisition that shrugs off poisoning: the guarded state is
/// bookkeeping (disk head positions, counters), and a worker panic is
/// reported through the master channel — the remaining workers must still
/// be able to drain.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Most overshoot one thread carries forward as credit against its next
/// modelled waits. Timer slack and wake-up latency sit well under this; a
/// longer overrun is a host stall, and refunding it would let the thread
/// run a burst of reads in zero wall time.
const MAX_PACE_CREDIT: Duration = Duration::from_millis(2);

thread_local! {
    /// How far this thread runs behind the model: wall time its modelled
    /// waits have overshot and not yet repaid.
    static PACE_CREDIT: Cell<Duration> = const { Cell::new(Duration::ZERO) };
}

/// The thread's model clock at wall instant `now`: the wall clock less the
/// thread's unrepaid overshoot. `thread::sleep` always returns late (timer
/// slack plus wake-up latency — 17–21 % on the 0.4–0.8 ms sleeps of a 20–40×
/// run), so a thread that acted on the wall clock would stretch every
/// modelled second. Instead every modelled wait is a deadline on this
/// clock: a disk request *arrives* at `model_clock(now)` (back-dated to
/// when a punctual thread would have issued it) and a modelled duration
/// ends at `model_clock(now) + d`.
fn model_clock(now: Instant) -> Instant {
    now.checked_sub(PACE_CREDIT.get()).unwrap_or(now)
}

/// The one pacing rule: block until `target`, then record how late the
/// thread woke (capped at [`MAX_PACE_CREDIT`]) as the overshoot its next
/// wait repays, so the *mean* realized time equals the modelled time. A
/// target already behind the wall clock is not slept for and repays the
/// overshoot down to `now − target`; one behind the model clock too (a disk
/// that finished while the thread computed) leaves it as it was.
fn pace_until(now: Instant, target: Instant) {
    let late = match target.checked_duration_since(now).filter(|d| !d.is_zero()) {
        Some(due) => {
            std::thread::sleep(due);
            target.elapsed().min(MAX_PACE_CREDIT)
        }
        None => now.duration_since(target).min(PACE_CREDIT.get()),
    };
    PACE_CREDIT.set(late);
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

    /// Total permits.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Most permits ever held at once — never above [`Self::capacity`],
    /// however many backends are staffed.
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
pub struct ReadTicket(Option<DiskRead>);

/// The disk side of a [`ReadTicket`] (a buffer hit has none).
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
    /// Wall-clock seconds per simulated second (0 disables sleeping).
    scale: f64,
    /// Injected fault schedule (`None` in fault-free operation).
    faults: Option<Arc<FaultPlan>>,
    /// Hot-path metric registry; `None` (the default) keeps the
    /// instrumented sites down to one branch each.
    metrics: Option<Arc<ExecMetrics>>,
    /// Simulated CPU seconds consumed through [`Machine::compute`]. Always
    /// on — one relaxed add per (already batched) compute call — so the
    /// utilization audit works even with detailed metrics disabled.
    cpu_busy: TimeSum,
    reads: AtomicU64,
    worker_ids: AtomicU64,
    /// Executor runs currently driving this machine. Always 1 for a
    /// private machine; a shared [`ExecSession`](crate::session) carries
    /// every concurrent tenant here. The patrol reads it to attribute
    /// observed service-rate loss to cross-run disk contention before
    /// treating the residue as machine-model drift.
    active_runs: AtomicU64,
}

impl Machine {
    /// Build from a machine configuration. `scale` maps simulated service
    /// seconds to wall-clock sleeps: `0.0` runs at full speed (functional
    /// testing), `1.0` runs in real time, `0.01` runs 100× fast.
    pub fn new(cfg: &MachineConfig, scale: f64) -> Self {
        Self::with_sharded_pool(cfg, scale, 0, 1)
    }

    /// Like [`Machine::new`], with a buffer pool of `pool_pages` frames (0
    /// disables buffering; every read hits a disk) split over `shards`
    /// page-hashed shards, each independently latched.
    pub fn with_sharded_pool(
        cfg: &MachineConfig,
        scale: f64,
        pool_pages: usize,
        shards: usize,
    ) -> Self {
        assert!(scale >= 0.0 && scale.is_finite(), "invalid time scale {scale}");
        let params = DiskParams::from_rates(cfg.seq_bw, cfg.almost_seq_bw, cfg.random_bw);
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
            pool: (pool_pages > 0).then(|| ShardedBufferPool::new(pool_pages, shards)),
            scale,
            faults: None,
            metrics: None,
            cpu_busy: TimeSum::new(),
            reads: AtomicU64::new(0),
            worker_ids: AtomicU64::new(0),
            active_runs: AtomicU64::new(0),
        }
    }

    /// Note one executor run starting on this machine (paired with
    /// [`Machine::run_finished`]; the master holds the pair as a guard so
    /// every exit path decrements).
    pub fn run_started(&self) {
        self.active_runs.fetch_add(1, Ordering::SeqCst);
    }

    /// Note one executor run leaving this machine.
    pub fn run_finished(&self) {
        self.active_runs.fetch_sub(1, Ordering::SeqCst);
    }

    /// Executor runs currently sharing this machine's disks.
    pub fn active_runs(&self) -> u64 {
        self.active_runs.load(Ordering::SeqCst)
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

    /// Attach a hot-path metric registry; the machine then records gate
    /// waits, retries and faults into it.
    pub fn with_metrics(mut self, metrics: Arc<ExecMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metric registry, if any.
    pub fn metrics(&self) -> Option<&Arc<ExecMetrics>> {
        self.metrics.as_ref()
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
    /// edges.
    pub fn disk_class_total(&self) -> ClassStats {
        let mut total = ClassStats::default();
        for l in &self.lanes {
            total = total.merged(&lock(l).class_stats());
        }
        total
    }

    /// The striping layout.
    pub fn layout(&self) -> StripedLayout {
        self.layout
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
    /// interval. The caller collects the page with [`Machine::finish_read`]
    /// — at once for a blocking read, or after doing other work while the
    /// disk serves it.
    pub fn begin_read(
        &self,
        rel: RelId,
        global_block: u64,
        worker: WorkerId,
        solo: bool,
    ) -> ReadTicket {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let mut pinned = false;
        if let Some(pool) = &self.pool {
            match pool.access(rel, global_block) {
                Ok(FetchOutcome::Hit) => return ReadTicket(None),
                Ok(FetchOutcome::Miss) => pinned = true,
                Err(_) => {
                    // Shard exhausted by concurrent pins: bypass the pool.
                }
            }
        }
        let req = IoRequest {
            rel,
            local_block: self.layout.local_block(global_block),
            worker,
            solo,
        };
        let service = self.reserve(&req, global_block, true);
        ReadTicket(Some(DiskRead { block: global_block, req, pinned, service }))
    }

    /// Wait for an issued read: sleep to its reservation's deadline, then —
    /// on an injected transient read error — retry up to
    /// [`READ_ATTEMPTS`] times with doubling (scaled) backoff before
    /// escalating to an [`IoFault`]. Every attempt reserves the disk for its
    /// full classified service time — a fault costs I/O, it does not refund
    /// it. Returns the service class of the disk read, or `None` on a
    /// buffer hit; with no fault plan attached this never errors. The pool
    /// pin of a miss is returned on every path.
    pub fn finish_read(&self, ticket: ReadTicket) -> Result<Option<ServiceClass>, IoFault> {
        let Some(DiskRead { block, req, pinned, mut service }) = ticket.0 else { return Ok(None) };
        let mut outcome = Err(IoFault { rel: req.rel, block, attempts: READ_ATTEMPTS });
        for attempt in 0..READ_ATTEMPTS {
            self.await_service(service);
            let faulted = self.faults.as_ref().is_some_and(|f| f.take_read_error(req.rel, block));
            if !faulted {
                outcome = Ok(Some(service.class));
                break;
            }
            if attempt + 1 < READ_ATTEMPTS {
                if let Some(m) = &self.metrics {
                    m.io_retries.inc();
                }
                self.sleep_sim(RETRY_BACKOFF * (1u64 << attempt.min(30)) as f64);
                service = self.reserve(&req, block, true);
            }
        }
        if outcome.is_err() {
            if let Some(m) = &self.metrics {
                m.io_faults.inc();
            }
        }
        if pinned {
            if let Some(pool) = &self.pool {
                // Also on the fault path: the frame holds no data in this
                // model, but the *pin* must always be returned — leaking one
                // per failed read starves the shard into PoolExhausted
                // livelock under a retry storm. An unpin anomaly (double
                // release under a retry race) is a typed error now: count it
                // and keep serving rather than killing the worker.
                if pool.finish_read(req.rel, block).is_err() {
                    if let Some(m) = &self.metrics {
                        m.unpin_anomalies.inc();
                    }
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

    /// Sleep until a reserved service completes (no-op when unthrottled).
    fn await_service(&self, service: Service) {
        if let Some(deadline) = service.deadline {
            pace_until(Instant::now(), deadline);
        }
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
            let service = self.reserve(&req, b, false);
            self.await_service(service);
        }
    }

    /// Burn `seconds` of simulated CPU while holding a processor permit.
    /// With metrics attached, the time spent *waiting* for the permit is
    /// recorded — the measured cost of staffing more workers than `N`.
    ///
    /// Only *contended* acquisitions reach the histogram. An uncontended
    /// grant is a zero wait, and recording that zero costs four shared
    /// cache-line RMWs per compute call — measured at ~3% of scan wall on
    /// the 8-worker A/B, which is more than the obs gate's whole 2%
    /// budget. The histogram's `count` is therefore "acquisitions that
    /// waited", not "acquisitions".
    pub fn compute(&self, seconds: f64) {
        let _permit = match &self.metrics {
            Some(m) => match self.cpu.try_acquire() {
                Some(permit) => permit,
                None => {
                    let waited = Instant::now();
                    let permit = self.cpu.acquire();
                    m.gate_wait_ns.observe(waited.elapsed().as_nanos() as u64);
                    permit
                }
            },
            None => self.cpu.acquire(),
        };
        self.cpu_busy.add_secs(seconds);
        self.sleep_sim(seconds);
    }

    /// Occupy the calling thread for `seconds` of simulated time on its
    /// model clock (retry backoff and CPU bursts; disk service waits on its
    /// reservation's deadline instead, see [`Machine::await_service`]).
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

    /// Per-class `(requests, busy seconds)` served so far across all disks,
    /// indexed `[Sequential, AlmostSequential, Random]`. Busy time includes
    /// any degradation stretch, so `requests / busy` is the *observed*
    /// service rate — the master's patrol diffs successive snapshots to
    /// detect drift from the modeled rate and recalibrate the policy.
    pub fn observed_service(&self) -> [(u64, f64); 3] {
        let classes =
            [ServiceClass::Sequential, ServiceClass::AlmostSequential, ServiceClass::Random];
        let mut out = [(0u64, 0.0f64); 3];
        for l in &self.lanes {
            let l = lock(l);
            for (slot, class) in classes.into_iter().enumerate() {
                out[slot].0 += l.disk.count_of(class);
                out[slot].1 += l.disk.busy_time_of(class);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn machine(scale: f64) -> Machine {
        Machine::new(&MachineConfig::paper_default(), scale)
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
        // 200 × 0.5 ms must take 100 ms: never less than the modelled time
        // net of the credit the thread arrived with, and — overshoot repaid
        // — within 5 % above it. A host stall longer than the credit cap is
        // not refunded, so the upper bound takes the best of three rounds.
        let step = Duration::from_micros(500);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..200 {
                let now = Instant::now();
                pace_until(now, model_clock(now) + step);
                assert!(PACE_CREDIT.get() <= MAX_PACE_CREDIT, "carried credit must stay bounded");
            }
            let took = t0.elapsed().as_secs_f64();
            assert!(took >= 0.100 - MAX_PACE_CREDIT.as_secs_f64(), "ran ahead of the model: {took}");
            best = best.min(took);
        }
        assert!(best <= 0.105, "paced sleeps overshoot the modelled 100 ms: {best}");
    }

    #[test]
    fn pace_credit_is_spent_not_refunded_twice() {
        // A thread holding the full credit skips a shorter wait outright
        // and keeps only the difference.
        PACE_CREDIT.set(MAX_PACE_CREDIT);
        let t0 = Instant::now();
        pace_until(t0, model_clock(t0) + Duration::from_millis(1));
        assert!(t0.elapsed() < Duration::from_millis(1));
        assert_eq!(PACE_CREDIT.get(), MAX_PACE_CREDIT - Duration::from_millis(1));
        // A deadline that passed before the thread's model clock (a disk
        // that finished while the thread computed) repays nothing.
        pace_until(t0, t0 - Duration::from_millis(5));
        assert_eq!(PACE_CREDIT.get(), MAX_PACE_CREDIT - Duration::from_millis(1));
        PACE_CREDIT.set(Duration::ZERO);
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
        // never returns early, and a fresh thread carries no credit), the
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
        // By now the thread may carry overshoot from the waits above, and
        // its requests arrive back-dated by that much.
        let floor = s - MAX_PACE_CREDIT.as_secs_f64();
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
        // Eight reads at scale 1.0 keep every disk reserved for ≥ 57 ms; a
        // stats snapshot taken meanwhile must not wait for any of them.
        let m = Arc::new(machine(1.0));
        let readers: Vec<_> = (0..8u64)
            .map(|b| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let w = m.new_worker_id();
                    read(&m, RelId(b + 1), b, w, false);
                })
            })
            .collect();
        while m.reads() < 8 {
            std::thread::yield_now();
        }
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let t0 = Instant::now();
            let _ = m.disk_class_total();
            fastest = fastest.min(t0.elapsed());
        }
        assert!(fastest < Duration::from_millis(1), "snapshot blocked for {fastest:?}");
        for r in readers {
            r.join().expect("reader must not panic");
        }
        assert_eq!(m.disk_class_total().total_count(), 8);
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
    fn slowdown_stretches_observed_service() {
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
        let busy = |m: &Machine| m.observed_service().iter().map(|(_, b)| b).sum::<f64>();
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
        let metrics = Arc::new(crate::obs::ExecMetrics::default());
        let m = machine(0.0).with_faults(plan).with_metrics(metrics.clone());
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
        let metrics = Arc::new(crate::obs::ExecMetrics::default());
        let m = Arc::new(Machine::new(&cfg, 1.0).with_metrics(metrics.clone()));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || m.compute(0.01))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let gate = metrics.gate_wait_ns.snapshot();
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

//! The slave backend: one worker thread executing its share of a fragment.
//!
//! Workers never receive control messages. All coordination happens through
//! the fragment's shared [`StealPartition`] (the Section 2.4 contract): a
//! worker asks it for its next morsel and claims that morsel's units on a
//! private atomic, and the answer reflects any adjustment the master has
//! applied — including "you are retired" (`None`). This is the
//! shared-memory, low-communication-cost design the paper credits for
//! making dynamic parallelism adjustment cheap.
//!
//! # Data path
//!
//! Each worker owns a local output buffer that accumulates its **entire**
//! share of the fragment output — zero sink-lock rounds while scanning —
//! and is stably sorted by key and handed to the sink as **one sorted
//! run** when the worker exits (or dies, or is retired). The per-worker
//! sorts run in parallel across the workers, and the master k-way merges
//! the few worker runs instead of sorting the whole output. Simulated CPU
//! is accumulated locally and charged through the gate once per
//! `CPU_BATCH_SECONDS`. The fragment completes when every unit is done
//! **and** every worker has flushed and exited — completion is announced
//! by the last worker out, so the master never harvests a partially
//! flushed sink.

use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xprs_disk::{RelId, SpillFile, WorkerFaultKind};
use xprs_optimizer::cost::CPU_TUPLE;
use xprs_storage::runs::is_sorted_run;
use xprs_storage::{Catalog, Relation, Tuple};

use crate::io::{lock, IoFault, Machine, ReadTicket};
use crate::error::ExecError;
use crate::master::MasterMsg;
use crate::obs::ExecMetrics;
use crate::program::{Driver, FragmentProgram, Materialized, PipelineOp};
use crate::steal::StealPartition;

/// Per-query-relation execution binding: catalog name plus the concrete
/// selection range on `a` the query applies.
#[derive(Debug, Clone)]
pub struct RelBinding {
    /// Catalog relation name.
    pub name: String,
    /// Inclusive selection range on attribute `a`.
    pub pred: (i32, i32),
}

impl RelBinding {
    fn admits(&self, key: i32) -> bool {
        key >= self.pred.0 && key <= self.pred.1
    }
}

/// The fragment's result sink: one **locally sorted run** per worker
/// episode, one lock round per run. The worker sorts its accumulated
/// output *before* taking the sink lock, so the sort work itself runs in
/// parallel across workers and the master's materialization is an
/// O(n log k) k-way merge of the runs (k ≈ the number of worker episodes,
/// not the output size).
#[derive(Default)]
pub(crate) struct OutputSink {
    batches: Mutex<Vec<Vec<(i32, Tuple)>>>,
}

impl OutputSink {
    /// Sort the worker's accumulated output by key (stably, outside the
    /// lock) and append it as one run (the buffer is emptied).
    ///
    /// The sort is indirect: keys and positions pack into `u64`s
    /// (sign-flipped key in the high half, position in the low half, so
    /// unstable integer sort is stable on keys by construction) and the
    /// 32-byte rows move exactly once, in the final gather — measurably
    /// faster than dragging the rows through the sort itself.
    pub(crate) fn push_run(&self, local: &mut Vec<(i32, Tuple)>) {
        if local.is_empty() {
            return;
        }
        let run = sort_run(local);
        lock(&self.batches).push(run);
    }

    /// Append several already-sorted runs in one lock round, preserving
    /// their order. The spill path uses this so a worker's spilled chunks
    /// and its final in-memory chunk land **contiguously** — together with
    /// the merge's stable run-index tie-break, this keeps the merged
    /// stream byte-identical to the unspilled run's.
    pub(crate) fn push_runs(&self, runs: Vec<Vec<(i32, Tuple)>>) {
        let mut b = lock(&self.batches);
        b.extend(runs.into_iter().filter(|r| !r.is_empty()));
    }

    /// Take everything flushed so far: the workers' locally sorted runs,
    /// ready for a k-way merge.
    pub(crate) fn harvest_runs(&self) -> Vec<Vec<(i32, Tuple)>> {
        mem::take(&mut *lock(&self.batches))
    }
}

/// Stably sort a worker's accumulated output by key, emptying `local`.
///
/// The sort is indirect: keys and positions pack into `u64`s
/// (sign-flipped key in the high half, position in the low half, so
/// unstable integer sort is stable on keys by construction) and the
/// 32-byte rows move exactly once, in the final gather.
fn sort_run(local: &mut Vec<(i32, Tuple)>) -> Vec<(i32, Tuple)> {
    if is_sorted_run(local) {
        return mem::take(local);
    }
    let mut order: Vec<u64> = local
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| ((((k as u32) ^ 0x8000_0000) as u64) << 32) | i as u64)
        .collect();
    order.sort_unstable();
    let mut slots: Vec<Option<(i32, Tuple)>> = mem::take(local).into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|p| slots[(p & 0xFFFF_FFFF) as usize].take().expect("unique position"))
        .collect()
}

/// Spill protocol parameters for a fragment running under a memory grant
/// smaller than what it declared it holds: when a worker's output buffer reaches
/// `threshold_rows`, the buffer is sorted **now** and written out as one
/// spill run (charged to the disk array at `row_bytes` per row), then read
/// back at settle time for the k-way merge. The counters feed the
/// [`ExecReport`](crate::master::ExecReport) spill ledger.
pub(crate) struct SpillSpec {
    /// Rows a worker may buffer before it must cut a spill run: the grant
    /// divided over the fragment's backends, re-divided by the master when
    /// an adjustment changes their number.
    pub threshold_rows: AtomicUsize,
    /// The grant the backends' buffers share, in bytes.
    pub grant_bytes: u64,
    /// Estimated bytes per output row (from the optimizer's cost model),
    /// for translating rows into striped 8 KB spill blocks.
    pub row_bytes: usize,
    /// Spill runs cut, across all workers of the fragment.
    pub chunks: AtomicU64,
    /// Rows spilled, across all workers of the fragment.
    pub rows: AtomicU64,
}

/// Shared state of one running fragment.
pub(crate) struct FragCtx {
    /// Global fragment index (across all queries of the run).
    pub gid: usize,
    /// The compiled pipeline.
    pub program: FragmentProgram,
    /// Bindings for the owning query's relations.
    pub rels: Vec<RelBinding>,
    /// Materialized inputs, keyed by per-query fragment index.
    pub inputs: HashMap<usize, Arc<Materialized>>,
    /// The unit space `[0, total_units)`, dealt in morsels; read with no
    /// latch (all coordination lives inside the [`StealPartition`]).
    pub part: Arc<StealPartition>,
    /// Key a unit index of 0 maps to (0 for page scans).
    pub key_base: i64,
    /// Slots whose worker has exited (may be re-staffed on adjust).
    pub exited_slots: Mutex<Vec<usize>>,
    /// Per-slot liveness counters, bumped once at startup and once per
    /// completed unit. A slot whose counter freezes while the fragment
    /// still has work — and which never registered in `exited_slots` — is
    /// presumed dead by the master's patrol and its share reclaimed.
    pub heartbeats: Mutex<Vec<Arc<AtomicU64>>>,
    /// Completed work units (pages or keys).
    pub units_done: AtomicU64,
    /// Total work units.
    pub total_units: u64,
    /// Worker jobs staffed but not yet exited (incremented by the master at
    /// submit time, decremented by each worker after its final flush).
    pub outstanding: AtomicU32,
    /// Worker jobs staffed over the fragment's whole life (never
    /// decremented); feeds the per-fragment staffing profile.
    pub staffed: AtomicU64,
    /// Result rows.
    pub out: OutputSink,
    /// Processors the policy last assigned (its `x`): what `RunningTask`
    /// snapshots, trace records and the predictor's realized `T_i` speak.
    pub target_parallelism: AtomicU32,
    /// Backends staffed to realize that assignment (≥ `x`, see the
    /// master's `staff_backends`): what the partition is dealt over, what
    /// the spill grant is divided by, and what decides the solo-stream
    /// I/O flag.
    pub backends: AtomicU32,
    /// Completion latch (the done message fires exactly once).
    pub done: AtomicBool,
    /// Abort flag: workers drain without scanning further work.
    pub aborted: AtomicBool,
    /// Cooperative per-query cancellation: like `aborted`, workers stop at
    /// the next unit/morsel boundary — but the completion protocol keeps
    /// running (the last exiting worker still fires the done message, see
    /// [`FragCtx::worker_exit`]), so the master releases the fragment's
    /// grant and harvests its partial state through the ordinary path.
    pub cancelled: AtomicBool,
    /// Heap pages this fragment actually read (observed footprint), for the
    /// declared-vs-observed memory audit. Counts every page read issued,
    /// including re-reads after eviction — an upper bound on the working
    /// set, compared against the declared grant pages at completion.
    pub pages_read: AtomicU64,
    /// Master notification channel.
    pub done_tx: Sender<MasterMsg>,
    /// Pool pages the fragment must be granted before it is staffed: what
    /// it declared it holds, clamped to the whole pool.
    pub demand_pages: u64,
    /// When the pool cannot hold what the fragment declared (the demand
    /// was clamped), the spill protocol bounds each worker's buffered rows
    /// (`None` ⇒ unbounded in-memory buffering).
    pub spill: Option<SpillSpec>,
    /// Heavy-hitter join keys (sorted ascending) a key-domain walk must
    /// *skip*: their output would serialize on whichever worker owns the
    /// key's unit, so the master computes it instead — fanned across the
    /// worker pool at materialization, with the small side replicated (see
    /// the master's hot-key path). Empty on every other fragment shape.
    pub hot_keys: Vec<i32>,
}

impl FragCtx {
    fn solo(&self) -> bool {
        self.backends.load(Ordering::Relaxed) == 1
    }

    /// Whether workers should stop pulling work at the next boundary —
    /// whole-run abort or per-query cancellation, checked together at every
    /// existing checkpoint.
    pub(crate) fn stopped(&self) -> bool {
        self.aborted.load(Ordering::Relaxed) || self.cancelled.load(Ordering::Relaxed)
    }

    fn input(&self, dep: usize) -> &Materialized {
        self.inputs
            .get(&dep)
            .unwrap_or_else(|| panic!("fragment {} missing materialized input {dep}", self.gid))
    }

    fn relation<'c>(&self, catalog: &'c Catalog, rel: usize) -> &'c Relation {
        let name = &self.rels[rel].name;
        catalog
            .get(name)
            .unwrap_or_else(|| panic!("relation {name} vanished from the catalog"))
    }

    /// Record `n` finished units in one report — the amortized
    /// master/worker handoff (one fetch-add per morsel episode, not one per
    /// unit). Completion itself is announced by the last exiting worker
    /// (see [`FragCtx::worker_exit`]), after all flushes.
    fn report_units(&self, n: u64) {
        if n == 0 {
            return;
        }
        let done = self.units_done.fetch_add(n, Ordering::SeqCst) + n;
        debug_assert!(done <= self.total_units);
    }

    /// One worker job has fully exited (buffers flushed). Fires the done
    /// message when it was the last live worker and all units are finished
    /// — or the fragment was cancelled, in which case the remaining units
    /// are forfeited and the last worker out still announces completion so
    /// the master can release the grant through the ordinary path.
    pub(crate) fn worker_exit(&self) {
        let remaining = self.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining == 0
            && (self.units_done.load(Ordering::SeqCst) == self.total_units
                || self.cancelled.load(Ordering::SeqCst))
            && !self.done.swap(true, Ordering::SeqCst)
        {
            let _ = self.done_tx.send(MasterMsg::FragmentDone(self.gid));
        }
    }
}

/// Initial capacity of a worker's local output buffer, in tuples.
const OUT_BATCH_TUPLES: usize = 256;

/// Simulated CPU seconds a worker accumulates before one CPU-gate
/// acquisition.
const CPU_BATCH_SECONDS: f64 = 0.01;

/// A worker's private, lock-free tuple buffer plus CPU accumulator; both
/// settle with the shared structures once per batch.
struct WorkerState<'m> {
    machine: &'m Machine,
    wid: xprs_disk::WorkerId,
    buf: Vec<(i32, Tuple)>,
    cpu_pending: f64,
    /// First unrecoverable I/O fault this worker hit, if any; set once,
    /// then every further read is skipped and the run aborts.
    io_fault: Option<IoFault>,
    /// Relation whose index a merge-indexed probe needed and did not find;
    /// set once, the run aborts, and the master surfaces it as
    /// [`ExecError::IndexMissing`](crate::ExecError::IndexMissing).
    index_fault: Option<String>,
    /// Per-pipeline-op merge cursors (indexed by op depth): a `MergeWith`
    /// over a CSR-indexed input advances its cursor monotonically with the
    /// worker's ascending key stream instead of re-probing from scratch.
    cursors: Vec<usize>,
    /// Sorted chunks this worker has spilled (kept resident: the executor
    /// models spill *timing*, not data placement — the write and read-back
    /// are charged to the disk array, the bytes stay addressable).
    spilled: Vec<Vec<(i32, Tuple)>>,
    /// Spill-run accounting, created on first overflow.
    spill_file: Option<SpillFile>,
}

impl<'m> WorkerState<'m> {
    fn new(machine: &'m Machine, wid: xprs_disk::WorkerId, ctx: &FragCtx) -> Self {
        WorkerState {
            machine,
            wid,
            buf: Vec::with_capacity(OUT_BATCH_TUPLES),
            cpu_pending: 0.0,
            io_fault: None,
            index_fault: None,
            cursors: vec![0; ctx.program.ops.len()],
            spilled: Vec::new(),
            spill_file: None,
        }
    }

    /// Issue one page read without waiting for it (`None` once this worker
    /// carries an unrecoverable fault: every further read is skipped).
    fn issue_read(&mut self, rel: RelId, block: u64, solo: bool) -> Option<ReadTicket> {
        self.io_fault.is_none().then(|| self.machine.begin_read(rel, block, self.wid, solo))
    }

    /// Collect an issued read through the retrying fault-aware path. Returns
    /// `false` when the read (or an earlier one) failed unrecoverably: the
    /// caller must stop producing from this unit, and the whole fragment is
    /// flagged to drain. The ticket is always finished, so its pin returns.
    fn await_read(&mut self, ctx: &FragCtx, ticket: Option<ReadTicket>) -> bool {
        let Some(ticket) = ticket else { return false };
        match self.machine.finish_read(ticket) {
            Ok(_) if self.io_fault.is_none() => {
                ctx.pages_read.fetch_add(1, Ordering::Relaxed);
                true
            }
            Ok(_) => false,
            Err(fault) => {
                self.io_fault.get_or_insert(fault);
                ctx.aborted.store(true, Ordering::Relaxed);
                false
            }
        }
    }

    /// One blocking page read: issue and collect back to back.
    fn read(&mut self, ctx: &FragCtx, rel: RelId, block: u64, solo: bool) -> bool {
        let ticket = self.issue_read(rel, block, solo);
        self.await_read(ctx, ticket)
    }

    /// Emit one result tuple. This touches no shared state at all: the
    /// tuple lands in the worker-local run, which reaches the sink
    /// (sorted) only when the worker settles.
    fn emit(&mut self, ctx: &FragCtx, key: i32, tuple: Tuple) {
        self.buf.push((key, tuple));
        if let Some(spec) = &ctx.spill {
            if self.buf.len() >= spec.threshold_rows.load(Ordering::Relaxed) {
                self.spill_chunk(ctx, spec);
            }
        }
    }

    /// The grant is exhausted: the buffered chunk becomes one sorted spill
    /// run. Sorting happens now (run generation), the run's write is
    /// charged to the striped disk array, and the rows move aside so the
    /// buffer restarts empty under the same bound.
    fn spill_chunk(&mut self, ctx: &FragCtx, spec: &SpillSpec) {
        let chunk = sort_run(&mut self.buf);
        if chunk.is_empty() {
            return;
        }
        let file = self
            .spill_file
            .get_or_insert_with(|| SpillFile::new(ctx.gid as u64, self.wid.0));
        let bytes = (chunk.len() * spec.row_bytes.max(1)) as u64;
        let run = file.append(chunk.len() as u64, bytes);
        self.machine.spill_io(file.rel(), run.start, run.blocks, self.wid);
        spec.chunks.fetch_add(1, Ordering::Relaxed);
        spec.rows.fetch_add(chunk.len() as u64, Ordering::Relaxed);
        self.spilled.push(chunk);
    }

    /// Charge simulated CPU seconds; acquires the gate only when the local
    /// accumulator crosses the batch threshold.
    fn charge_cpu(&mut self, seconds: f64) {
        self.cpu_pending += seconds;
        if self.cpu_pending >= CPU_BATCH_SECONDS {
            self.settle_cpu();
        }
    }

    fn settle_cpu(&mut self) {
        if self.cpu_pending > 0.0 {
            self.machine.compute(self.cpu_pending);
            self.cpu_pending = 0.0;
        }
    }

    /// Flush everything outstanding (end of the worker's run): the local
    /// output becomes one sorted run in the sink — or, when the worker
    /// spilled, its spill runs are read back (charged as sequential spill
    /// I/O) and handed over together with the final in-memory chunk, in
    /// cut order, as one contiguous block of runs.
    fn settle(&mut self, ctx: &FragCtx) {
        self.settle_cpu();
        if self.spilled.is_empty() {
            ctx.out.push_run(&mut self.buf);
            return;
        }
        // Read-back for the merge: the k-way merge consumes each run in
        // key order — a sequential sweep over the run's striped blocks.
        if let Some(file) = &self.spill_file {
            for run in file.runs() {
                self.machine.spill_io(file.rel(), run.start, run.blocks, self.wid);
            }
        }
        let mut runs = mem::take(&mut self.spilled);
        let last = sort_run(&mut self.buf);
        runs.push(last);
        ctx.out.push_runs(runs);
    }
}

/// Worker main loop for slot `slot` of the fragment: claim a morsel (own
/// deque, else steal), claim its units one CAS at a time, and settle the
/// completion ledger **once per morsel** instead of once per unit. A page
/// scan keeps one page of read-ahead across unit *and* morsel boundaries:
/// the next unit is claimed — from the morsel in hand, the own deque or a
/// victim — and its read issued before the previous page is evaluated.
///
/// The caller (the pool job wrapper in `master.rs`) is responsible for
/// calling [`FragCtx::worker_exit`] afterwards — also on panic — so the
/// completion protocol stays balanced.
pub(crate) fn run_worker(
    ctx: &Arc<FragCtx>,
    slot: usize,
    machine: &Machine,
    catalog: &Catalog,
) {
    let wid = machine.new_worker_id();
    let ws = &mut WorkerState::new(machine, wid, ctx);
    let heartbeat = {
        let mut beats = lock(&ctx.heartbeats);
        while beats.len() <= slot {
            beats.push(Arc::new(AtomicU64::new(0)));
        }
        beats[slot].clone()
    };
    heartbeat.fetch_add(1, Ordering::Relaxed);
    let metrics = machine.metrics().cloned();
    let claim = ctx.part.claim_of(slot);
    let mut claimed = 0u64; // units claimed; at most one is still in flight
    let mut batch = 0u64; // units finished but not yet reported
    let mut in_flight: Option<PageRead> = None;
    let mut died = false;
    // Enabled-metrics cost discipline: steal/fail *counts* accumulate in
    // worker-local integers and flush to the shared registry once at exit
    // (they stay exact); the latency histograms are *sampled* — one morsel
    // episode in `MORSEL_SAMPLE` pays the clock reads and shared-histogram
    // RMWs, the rest touch nothing shared. On a single-core host every
    // vdso clock read and cache-line RMW is serial wall time, and the obs
    // overhead gate holds the whole enabled path to ~2% of scan wall.
    let mut episodes = 0u64;
    let mut loc_steals = 0u64;
    let mut loc_fails = 0u64;
    'morsels: loop {
        if ctx.stopped() {
            break;
        }
        let sampled = metrics.is_some() && episodes.is_multiple_of(MORSEL_SAMPLE);
        episodes += 1;
        let t_search = if sampled { Some(Instant::now()) } else { None };
        let Some(next) = ctx.part.next_morsel(slot) else {
            loc_fails += 1;
            if let (Some(m), Some(t0)) = (&metrics, t_search) {
                m.steal_idle_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            break;
        };
        let mut morsel_t0 = t_search;
        if next.stolen_from.is_some() {
            loc_steals += 1;
            if let (Some(m), Some(t0)) = (&metrics, t_search) {
                let t1 = Instant::now();
                m.steal_idle_ns.observe(t1.duration_since(t0).as_nanos() as u64);
                morsel_t0 = Some(t1);
            }
        }
        loop {
            if ctx.stopped() {
                break;
            }
            // Injected worker faults fire at claim boundaries, keyed to
            // units *claimed*: a claimed unit is always completed, so a
            // death leaves no unit half-done — the units this incarnation
            // claimed, the page in flight included, are finished and
            // reported before it vanishes, and the patrol reclaims only
            // what was never claimed.
            if let Some(plan) = machine.fault_plan() {
                match plan.take_worker_fault(ctx.gid, slot, claimed) {
                    Some(WorkerFaultKind::Death) => {
                        died = true;
                        break 'morsels;
                    }
                    Some(WorkerFaultKind::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    None => {}
                }
            }
            let Some(offset) = StealPartition::claim_unit(&claim) else {
                break; // morsel exhausted or slot revoked: back to the deques
            };
            let unit = next.morsel.start + offset;
            claimed += 1;
            let finished = match ctx.program.driver {
                Driver::PageScan { .. } => {
                    let page = issue_page(ctx, catalog, unit, ws);
                    read_ahead(ctx, catalog, &mut in_flight, Some(page), ws)
                }
                Driver::KeyScan { .. } | Driver::KeyDomain => {
                    scan_key(ctx, catalog, ctx.key_base + unit as i64, ws);
                    true
                }
            };
            if finished {
                batch += 1;
                heartbeat.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Amortized handoff: one completion report per morsel episode.
        ctx.report_units(batch);
        batch = 0;
        if let (Some(m), Some(t0)) = (&metrics, morsel_t0) {
            m.morsel_ns.observe(t0.elapsed().as_nanos() as u64);
        }
    }
    // However the loops ended — exhaustion, revocation, stop or death — the
    // claimed page still in flight is this worker's to finish and report.
    if read_ahead(ctx, catalog, &mut in_flight, None, ws) {
        batch += 1;
        heartbeat.fetch_add(1, Ordering::Relaxed);
    }
    ctx.report_units(batch);
    flush_steal_counts(&metrics, loc_steals, loc_fails);
    // Flush the local run and surface any recorded faults.
    ws.settle(ctx);
    if died {
        // Completed units live in shared memory and survive the worker, but
        // the slot vanishes without registering in `exited_slots`: its
        // heartbeat freezes, the patrol declares it dead and reclaims the
        // morsel's unclaimed remainder through `StealPartition::fail_slot`.
        return;
    }
    if let Some(fault) = ws.io_fault.take() {
        let _ = ctx.done_tx.send(MasterMsg::Fatal(ExecError::IoFault { fragment: ctx.gid, fault }));
    }
    if let Some(name) = ws.index_fault.take() {
        let fatal = ExecError::IndexMissing { fragment: ctx.gid, name };
        let _ = ctx.done_tx.send(MasterMsg::Fatal(fatal));
    }
    // Register the voluntary exit, so the patrol never reaps it.
    lock(&ctx.exited_slots).push(slot);
}

/// Latency-histogram sampling rate of the worker loop: one episode in this
/// many reads the clock and touches the shared histograms. The steal/fail
/// counters are exact regardless — they accumulate locally and flush here.
const MORSEL_SAMPLE: u64 = 8;

fn flush_steal_counts(metrics: &Option<Arc<ExecMetrics>>, steals: u64, fails: u64) {
    if let Some(m) = metrics {
        if steals > 0 {
            m.steals.add(steals);
        }
        if fails > 0 {
            m.steal_fails.add(fails);
        }
    }
}

/// A claimed heap page whose read is issued and not yet collected.
struct PageRead<'c> {
    /// Index of the scanned relation among the query's bindings.
    rel: usize,
    relation: &'c Relation,
    page: u64,
    ticket: Option<ReadTicket>,
}

/// Page-scan driver, first half: issue the read of a claimed heap page.
fn issue_page<'c>(
    ctx: &FragCtx,
    catalog: &'c Catalog,
    page: u64,
    ws: &mut WorkerState<'_>,
) -> PageRead<'c> {
    let Driver::PageScan { rel } = ctx.program.driver else {
        unreachable!("page unit on a non-page driver");
    };
    let relation = ctx.relation(catalog, rel);
    PageRead { rel, relation, page, ticket: ws.issue_read(relation.heap.rel(), page, ctx.solo()) }
}

/// One page of read-ahead, claim-first: `next` — a page this worker has
/// already claimed, its read already issued — takes the in-flight seat, and
/// the page that held it is collected and evaluated, its CPU overlapping
/// `next`'s disk service. A read is never speculative: only claimed units
/// are issued, and every claimed unit is finished by its claimant. Returns
/// whether a page was finished (`next = None` drains the seat).
fn read_ahead<'c>(
    ctx: &FragCtx,
    catalog: &'c Catalog,
    in_flight: &mut Option<PageRead<'c>>,
    next: Option<PageRead<'c>>,
    ws: &mut WorkerState<'_>,
) -> bool {
    let Some(prev) = mem::replace(in_flight, next) else { return false };
    finish_page(ctx, catalog, prev, ws);
    true
}

/// Page-scan driver, second half: collect the page, filter, run the
/// pipeline.
fn finish_page(ctx: &FragCtx, catalog: &Catalog, read: PageRead<'_>, ws: &mut WorkerState<'_>) {
    if !ws.await_read(ctx, read.ticket) {
        return;
    }
    let p = read.relation.heap.page(read.page);
    ws.charge_cpu(p.n_tuples() as f64 * CPU_TUPLE);
    for (_, tuple) in p.iter() {
        let Some(key) = tuple.get(0).as_int() else { continue };
        if ctx.rels[read.rel].admits(key) {
            pipeline(ctx, catalog, key, tuple.clone(), 0, ws);
        }
    }
}

/// Key driver: one key of an index scan or key-domain walk.
fn scan_key(ctx: &FragCtx, catalog: &Catalog, key: i64, ws: &mut WorkerState<'_>) {
    let key = key as i32;
    match ctx.program.driver {
        Driver::KeyScan { rel } => {
            let relation = ctx.relation(catalog, rel);
            let idx = relation
                .index_on_a
                .as_ref()
                .unwrap_or_else(|| panic!("index scan over unindexed {}", relation.name));
            let postings = idx.lookup(key);
            ws.charge_cpu(postings.len().max(1) as f64 * CPU_TUPLE);
            for &tid in postings {
                // Unclustered posting dereference: a random heap-page read.
                if !ws.read(ctx, relation.heap.rel(), tid.block, false) {
                    return;
                }
                let tuple = relation
                    .heap
                    .fetch(tid)
                    .unwrap_or_else(|| panic!("dangling tid {tid} in {}", relation.name))
                    .clone();
                pipeline(ctx, catalog, key, tuple, 0, ws);
            }
        }
        Driver::KeyDomain => {
            ws.charge_cpu(CPU_TUPLE);
            // Heavy hitters are the master's job (replicated, pool-fanned
            // at materialization); emitting one here would pin the key's
            // whole output on this worker. The unit still completes
            // normally, so heartbeats, stealing, and cancellation see
            // nothing unusual.
            if ctx.hot_keys.binary_search(&key).is_ok() {
                return;
            }
            pipeline(ctx, catalog, key, Tuple::from_values(vec![]), 0, ws);
        }
        Driver::PageScan { .. } => unreachable!("key unit on a page driver"),
    }
}

/// Apply pipeline operators `depth..` to `(key, tuple)`.
fn pipeline(
    ctx: &FragCtx,
    catalog: &Catalog,
    key: i32,
    tuple: Tuple,
    depth: usize,
    ws: &mut WorkerState<'_>,
) {
    let Some(op) = ctx.program.ops.get(depth) else {
        ws.emit(ctx, key, tuple);
        return;
    };
    match op {
        PipelineOp::ProbeHash { dep } => {
            for row in ctx.input(*dep).matches(key) {
                pipeline(ctx, catalog, key, tuple.join(row), depth + 1, ws);
            }
        }
        PipelineOp::MergeWith { dep } => {
            // True cursor-based merge: this worker's driver (key scan or
            // key-domain walk) hands out ascending keys, so the input's
            // cursor advances monotonically instead of re-probing per key.
            let input = ctx.input(*dep);
            let mut cursor = ws.cursors[depth];
            let matched = input.matches_from(key, &mut cursor);
            ws.cursors[depth] = cursor;
            for row in matched {
                pipeline(ctx, catalog, key, tuple.join(row), depth + 1, ws);
            }
        }
        PipelineOp::NestInner { dep } => {
            // A genuine nested loop: every inner row is examined.
            let inner = ctx.input(*dep);
            ws.charge_cpu(inner.rows.len() as f64 * CPU_TUPLE * 0.1);
            for (k2, row) in &inner.rows {
                if *k2 == key {
                    pipeline(ctx, catalog, key, tuple.join(row), depth + 1, ws);
                }
            }
        }
        PipelineOp::MergeIndexed { rel } => {
            if !ctx.rels[*rel].admits(key) {
                return;
            }
            let relation = ctx.relation(catalog, *rel);
            let Some(idx) = relation.index_on_a.as_ref() else {
                // A merge-indexed probe over an unindexed relation is a
                // planning/catalog mismatch, not a worker bug: record it
                // once, flag the fragment to drain, and let the master
                // surface the typed error.
                if ws.index_fault.is_none() {
                    ws.index_fault = Some(relation.name.clone());
                }
                ctx.aborted.store(true, Ordering::Relaxed);
                return;
            };
            for &tid in idx.lookup(key) {
                if !ws.read(ctx, relation.heap.rel(), tid.block, false) {
                    return;
                }
                let row = relation
                    .heap
                    .fetch(tid)
                    .unwrap_or_else(|| panic!("dangling tid {tid} in {}", relation.name))
                    .clone();
                pipeline(ctx, catalog, key, tuple.join(&row), depth + 1, ws);
            }
        }
    }
}

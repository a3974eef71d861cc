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
//! the few worker runs instead of sorting the whole output.
//!
//! # Paying for CPU, and leaving
//!
//! Simulated CPU is accumulated locally and paid through the gate — a
//! modelled burst slept on a processor, `Machine::compute` — once the batch
//! holds `CPU_BATCH_SECONDS` and the worker has claimed its next unit: a key
//! scan pays before it works the new key, a page scan after it has issued
//! the new page's read and evaluated the page before it. The burst after
//! the last unit is not slept: the leaving worker reserves a processor
//! until the burst ends on its model clock (`Machine::reserve_compute`),
//! records that end in the fragment's `model_end`, flushes its run and
//! leaves the pool at once.
//!
//! The last worker out announces completion, once every unit is done
//! **and** every worker has flushed and exited, so the master never
//! harvests a partially flushed sink. The master materializes the output
//! at once but marks the fragment done only when the latest reserved end
//! has passed (DESIGN.md §7.1).

use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xprs_disk::{RelId, SpillFile, WorkerFaultKind};
use xprs_optimizer::cost::CPU_TUPLE;
use xprs_optimizer::program::{Driver, FragmentProgram, PipelineOp};
use xprs_storage::runs::is_sorted_run;
use xprs_storage::partition::StealPartition;
use xprs_storage::{lock, Catalog, Relation, Tuple};

use crate::io::{Machine, ReadTicket};
use crate::error::ExecError;
use crate::master::MasterMsg;
use crate::program::Materialized;

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
    /// Tuple slices each heap page of a page scan is cut into (1 on every
    /// other driver): unit `u` is slice `u % page_slices` of page
    /// `u / page_slices`. See `staffing::page_slices`.
    pub page_slices: u64,
    /// Total work units (pages, page slices or keys).
    pub total_units: u64,
    /// Worker jobs staffed but not yet exited (incremented by the master at
    /// submit time, decremented by [`FragCtx::worker_exit`]).
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
    /// Completion latch (the done message fires exactly once, see
    /// [`FragCtx::complete`]).
    pub done: AtomicBool,
    /// The modelled instant the fragment's work ends: the latest end any
    /// leaving backend reserved for its last CPU burst (`None` until one
    /// has left). The master marks the fragment done only after it.
    pub model_end: Mutex<Option<Instant>>,
    /// Workers stop at the next unit or morsel boundary: the run is
    /// aborting (a fault or a control-path failure) or the query was
    /// cancelled. The completion protocol keeps running — the last worker
    /// out still completes the fragment (see [`FragCtx::worker_exit`]) — so
    /// a cancelled fragment's grant is released through the ordinary path.
    pub stop: AtomicBool,
    /// Heap pages this fragment actually read (observed footprint), for the
    /// declared-vs-observed memory audit. Counts every page read issued,
    /// including re-reads after eviction — an upper bound on the working
    /// set, compared against the declared grant pages at completion. A
    /// sliced page counts once, at its slice 0.
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

    fn input(&self, dep: usize) -> &Materialized {
        self.inputs
            .get(&dep)
            .unwrap_or_else(|| panic!("fragment {} missing materialized input {dep}", self.gid))
    }

    /// Relation `rel` of the owning query. The master resolved every
    /// relation the program reads before it staffed anything, and a
    /// catalog is never altered under a run, so a miss here is a broken
    /// invariant, not an input error.
    fn relation<'c>(&self, catalog: &'c Catalog, rel: usize) -> &'c Relation {
        let name = &self.rels[rel].name;
        catalog
            .get(name)
            .unwrap_or_else(|| panic!("relation {name} vanished from the catalog"))
    }

    /// Tell the master the fragment's work is done (its modelled end may
    /// still lie ahead) — once, whoever calls first:
    /// the last worker out, the master for a fragment with no units, or a
    /// cancel that found no worker left to do it.
    pub(crate) fn complete(&self) {
        if !self.done.swap(true, Ordering::SeqCst) {
            let _ = self.done_tx.send(MasterMsg::FragmentDone(self.gid));
        }
    }

    /// A leaving backend's work ends at `end`: keep the latest.
    fn reserve_end(&self, end: Instant) {
        let mut model_end = lock(&self.model_end);
        *model_end = Some(model_end.map_or(end, |e| e.max(end)));
    }

    /// One worker job has fully exited (buffers flushed) — called by the
    /// job itself, or by the master once it has replaced a lost one. The
    /// last one out completes the fragment when every unit is claimed —
    /// each claimed unit is finished by its claimant before that worker
    /// exits, so with no worker left the claims are finished — or when the
    /// fragment was stopped, forfeiting its unclaimed units.
    pub(crate) fn worker_exit(&self) {
        let remaining = self.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
        if remaining == 0
            && (self.stop.load(Ordering::SeqCst) || self.part.claimed() == self.total_units)
        {
            self.complete();
        }
    }
}

/// Initial capacity of a worker's local output buffer, in tuples.
const OUT_BATCH_TUPLES: usize = 256;

/// Simulated CPU seconds a worker accumulates before it pays them in one
/// CPU-gate acquisition.
const CPU_BATCH_SECONDS: f64 = 0.01;

/// A worker's private, lock-free tuple buffer plus CPU accumulator; both
/// settle with the shared structures once per batch.
struct WorkerState<'m> {
    machine: &'m Machine,
    wid: xprs_disk::WorkerId,
    /// The read-ahead seat: a claimed page whose read is issued and not yet
    /// collected. A worker that unwinds with the seat taken still collects
    /// it on drop, so the read's buffer pin comes back.
    ahead: Option<PageRead<'m>>,
    buf: Vec<(i32, Tuple)>,
    cpu_pending: f64,
    /// The first failure this worker hit — a read that failed after every
    /// retry, or a missing index — if any; set once, then every further
    /// read is skipped and the run aborts with it.
    fault: Option<ExecError>,
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
            ahead: None,
            buf: Vec::with_capacity(OUT_BATCH_TUPLES),
            cpu_pending: 0.0,
            fault: None,
            cursors: vec![0; ctx.program.ops.len()],
            spilled: Vec::new(),
            spill_file: None,
        }
    }

    /// Issue one page read without waiting for it (`None` once this worker
    /// carries a failure: every further read is skipped).
    fn issue_read(&mut self, rel: RelId, block: u64, solo: bool) -> Option<ReadTicket> {
        self.fault.is_none().then(|| self.machine.begin_read(rel, block, self.wid, solo))
    }

    /// Record the worker's failure (the first one wins) and flag the
    /// fragment to drain.
    fn record(&mut self, ctx: &FragCtx, fault: ExecError) {
        self.fault.get_or_insert(fault);
        ctx.stop.store(true, Ordering::Relaxed);
    }

    /// Collect an issued read through the retrying fault-aware path. Returns
    /// `false` when the read (or an earlier one) failed unrecoverably: the
    /// caller must stop producing from this unit, and the whole fragment is
    /// flagged to drain. The ticket is always finished, so its pin returns.
    fn await_read(&mut self, ctx: &FragCtx, ticket: Option<ReadTicket>) -> bool {
        let Some(ticket) = ticket else { return false };
        match self.machine.finish_read(ticket) {
            Ok(_) => self.fault.is_none(),
            Err(fault) => {
                self.record(ctx, ExecError::IoFault { fragment: ctx.gid, fault });
                false
            }
        }
    }

    /// One blocking page read: issue and collect back to back.
    fn read(&mut self, ctx: &FragCtx, rel: RelId, block: u64, solo: bool) -> bool {
        let ticket = self.issue_read(rel, block, solo);
        let ok = self.await_read(ctx, ticket);
        if ok {
            ctx.pages_read.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// An index-driven unit found no index on `relation`: a planning /
    /// catalog mismatch, not a worker bug, surfaced as
    /// [`ExecError::IndexMissing`](crate::ExecError::IndexMissing).
    fn index_missing(&mut self, ctx: &FragCtx, relation: &Relation) {
        let name = relation.name.clone();
        self.record(ctx, ExecError::IndexMissing { fragment: ctx.gid, name });
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

    /// Charge simulated CPU seconds to the local accumulator; they are paid
    /// once the next unit is claimed ([`WorkerState::pay_cpu`]) or reserved
    /// as the last burst ([`WorkerState::settle`]).
    fn charge_cpu(&mut self, seconds: f64) {
        self.cpu_pending += seconds;
    }

    /// Sleep the accumulated CPU as one burst on a processor once it holds
    /// a batch. Called only with the next unit claimed, so whatever is left
    /// when there is nothing more to claim is the worker's last burst.
    fn pay_cpu(&mut self) {
        if self.cpu_pending >= CPU_BATCH_SECONDS {
            self.machine.compute(mem::take(&mut self.cpu_pending));
        }
    }

    /// Flush everything outstanding (end of the worker's run). When the
    /// worker spilled, its spill runs are read back first (charged as
    /// sequential spill I/O). Then the last CPU burst is reserved on a
    /// processor rather than slept, and its end recorded as the fragment's
    /// `model_end` if it is the latest. Last, the local output becomes one
    /// sorted run in the sink — or the spill runs and the final in-memory
    /// chunk, in cut order, as one contiguous block of runs.
    fn settle(&mut self, ctx: &FragCtx) {
        // Read-back for the merge: the k-way merge consumes each run in
        // key order — a sequential sweep over the run's striped blocks.
        if let Some(file) = &self.spill_file {
            for run in file.runs() {
                self.machine.spill_io(file.rel(), run.start, run.blocks, self.wid);
            }
        }
        ctx.reserve_end(self.machine.reserve_compute(mem::take(&mut self.cpu_pending)));
        if self.spilled.is_empty() {
            ctx.out.push_run(&mut self.buf);
            return;
        }
        let mut runs = mem::take(&mut self.spilled);
        let last = sort_run(&mut self.buf);
        runs.push(last);
        ctx.out.push_runs(runs);
    }
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ahead.take().and_then(|read| read.ticket) {
            let _ = self.machine.finish_read(ticket);
        }
    }
}

/// How a worker left its slot: the one thing it reports, through its pool
/// job (`session::staff`), which turns it into the master's message.
pub(crate) enum WorkerExit {
    /// It ran out of work, was retired, or its fragment stopped.
    Done,
    /// It vanished at a claim boundary (an injected `Death`), every unit
    /// it claimed finished.
    Died,
    /// It hit something no run survives. A failure wins over a death: a
    /// dying worker still finishes its claimed page, and that read may
    /// fail.
    Failed(ExecError),
}

/// Worker main loop for slot `slot` of the fragment: claim a morsel (own
/// deque, else steal) and claim its units one CAS at a time, paying the
/// CPU batch due once the next unit is claimed. The claims are
/// the fragment's progress and completion, so nothing shared is touched per
/// finished unit or morsel; the worker's one report is how it left, its
/// return value. A page scan keeps one page of read-ahead across
/// unit *and* morsel boundaries: the next unit is claimed — from the morsel
/// in hand, the own deque or a victim — and its read issued before the
/// previous page is evaluated.
pub(crate) fn run_worker(
    ctx: &Arc<FragCtx>,
    slot: usize,
    machine: &Machine,
    catalog: &Catalog,
) -> WorkerExit {
    let wid = machine.new_worker_id();
    let ws = &mut WorkerState::new(machine, wid, ctx);
    let metrics = machine.metrics();
    let claim = ctx.part.claim_of(slot);
    let mut claimed = 0u64; // this job's claims, the fault plan's key
    // Metrics cost discipline: steal/fail *counts* accumulate in
    // worker-local integers and flush to the shared registry once at exit
    // (they stay exact); the latency histograms are *sampled* — one morsel
    // episode in `MORSEL_SAMPLE` pays the clock reads and shared-histogram
    // RMWs, the rest touch nothing shared. On a single-core host every
    // vdso clock read and cache-line RMW is serial wall time, and the
    // whole instrumented path is held to ~2% of scan wall.
    let mut episodes = 0u64;
    let mut loc_steals = 0u64;
    let mut loc_fails = 0u64;
    let exit = 'morsels: loop {
        if ctx.stop.load(Ordering::Relaxed) {
            break WorkerExit::Done;
        }
        let sampled = episodes.is_multiple_of(MORSEL_SAMPLE);
        episodes += 1;
        let t_search = if sampled { Some(Instant::now()) } else { None };
        let Some(next) = ctx.part.next_morsel(slot) else {
            loc_fails += 1;
            if let Some(t0) = t_search {
                metrics.steal_idle_ns.observe(t0.elapsed().as_nanos() as u64);
            }
            break WorkerExit::Done;
        };
        let mut morsel_t0 = t_search;
        if next.stolen_from.is_some() {
            loc_steals += 1;
            if let Some(t0) = t_search {
                let t1 = Instant::now();
                metrics.steal_idle_ns.observe(t1.duration_since(t0).as_nanos() as u64);
                morsel_t0 = Some(t1);
            }
        }
        loop {
            if ctx.stop.load(Ordering::Relaxed) {
                break;
            }
            // Injected worker faults fire at claim boundaries, keyed to
            // units *claimed*: a claimed unit is always completed, so a
            // death leaves no unit half-done — the units this incarnation
            // claimed, the page in flight included, are finished before it
            // vanishes, and its replacement inherits only what was never
            // claimed.
            if let Some(plan) = machine.fault_plan() {
                match plan.take_worker_fault(ctx.gid, slot, claimed) {
                    Some(WorkerFaultKind::Death) => break 'morsels WorkerExit::Died,
                    Some(WorkerFaultKind::Stall { millis }) => {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    Some(WorkerFaultKind::Panic) => panic!("injected worker panic"),
                    None => {}
                }
            }
            let Some(offset) = StealPartition::claim_unit(&claim) else {
                break; // morsel exhausted or slot revoked: back to the deques
            };
            let unit = next.morsel.start + offset;
            claimed += 1;
            // A batch is paid only with the next unit in hand — on a page
            // scan after the page before it is evaluated, while the new
            // page is read — so what is pending when the claims run out is
            // the last burst, reserved in `settle`.
            match ctx.program.driver {
                Driver::PageScan { .. } => {
                    let page = issue_page(ctx, catalog, unit, ws);
                    read_ahead(ctx, catalog, Some(page), ws);
                    ws.pay_cpu();
                }
                Driver::KeyScan { .. } | Driver::KeyDomain => {
                    ws.pay_cpu();
                    scan_key(ctx, catalog, ctx.key_base + unit as i64, ws);
                }
            }
        }
        if let Some(t0) = morsel_t0 {
            metrics.morsel_ns.observe(t0.elapsed().as_nanos() as u64);
        }
    };
    // However the loops ended — exhaustion, revocation, stop or death — the
    // claimed page still in flight is this worker's to finish.
    read_ahead(ctx, catalog, None, ws);
    metrics.steals.add(loc_steals);
    metrics.steal_fails.add(loc_fails);
    // Reserve the last burst and flush the local run: completed units
    // survive a death too.
    ws.settle(ctx);
    ws.fault.take().map_or(exit, WorkerExit::Failed)
}

/// Latency-histogram sampling rate of the worker loop: one episode in this
/// many reads the clock and touches the shared histograms. The steal/fail
/// counters are exact regardless — they accumulate locally and flush at
/// worker exit.
const MORSEL_SAMPLE: u64 = 8;

/// A claimed heap page (or slice of one) whose read is issued and not yet
/// collected.
struct PageRead<'c> {
    /// Index of the scanned relation among the query's bindings.
    rel: usize,
    relation: &'c Relation,
    page: u64,
    /// Which of the page's `ctx.page_slices` tuple slices this unit is.
    slice: u64,
    ticket: Option<ReadTicket>,
}

/// Page-scan driver, first half: issue the read of a claimed unit's page.
fn issue_page<'c>(
    ctx: &FragCtx,
    catalog: &'c Catalog,
    unit: u64,
    ws: &mut WorkerState<'_>,
) -> PageRead<'c> {
    let Driver::PageScan { rel } = ctx.program.driver else {
        unreachable!("page unit on a non-page driver");
    };
    let relation = ctx.relation(catalog, rel);
    let (page, slice) = (unit / ctx.page_slices, unit % ctx.page_slices);
    let ticket = ws.issue_read(relation.heap.rel(), page, ctx.solo());
    PageRead { rel, relation, page, slice, ticket }
}

/// One page of read-ahead, claim-first: `next` — a page this worker has
/// already claimed, its read already issued — takes the in-flight seat
/// (`WorkerState::ahead`), and the page that held it is collected and
/// evaluated, its CPU overlapping `next`'s disk service. A read is never
/// speculative: only claimed units are issued, and every claimed unit is
/// finished by its claimant (`next = None` drains the seat).
fn read_ahead<'c>(
    ctx: &FragCtx,
    catalog: &'c Catalog,
    next: Option<PageRead<'c>>,
    ws: &mut WorkerState<'c>,
) {
    if let Some(prev) = mem::replace(&mut ws.ahead, next) {
        finish_page(ctx, catalog, prev, ws);
    }
}

/// Page-scan driver, second half: collect the page, then filter and run
/// the pipeline over the tuples of this unit's slice — and charge only
/// those.
fn finish_page(ctx: &FragCtx, catalog: &Catalog, read: PageRead<'_>, ws: &mut WorkerState<'_>) {
    if !ws.await_read(ctx, read.ticket) {
        return;
    }
    if read.slice == 0 {
        ctx.pages_read.fetch_add(1, Ordering::Relaxed);
    }
    let p = read.relation.heap.page(read.page);
    let n = p.n_tuples() as u64;
    let lo = (n * read.slice / ctx.page_slices) as usize;
    let hi = (n * (read.slice + 1) / ctx.page_slices) as usize;
    ws.charge_cpu((hi - lo) as f64 * CPU_TUPLE);
    for (_, tuple) in p.iter().skip(lo).take(hi - lo) {
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
            let Some(idx) = relation.index_on_a.as_ref() else {
                ws.index_missing(ctx, relation);
                return;
            };
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
            // normally, so claims, stealing, and cancellation see nothing
            // unusual.
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
                ws.index_missing(ctx, relation);
                return;
            };
            for &tid in idx.lookup(key) {
                if !ws.read(ctx, relation.heap.rel(), tid.block, false) {
                    return;
                }
                let row = relation
                    .heap
                    .fetch(tid)
                    .unwrap_or_else(|| panic!("dangling tid {tid} in {}", relation.name));
                pipeline(ctx, catalog, key, tuple.join(row), depth + 1, ws);
            }
        }
    }
}

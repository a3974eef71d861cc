//! The master backend: runs queries under a scheduling policy.
//!
//! The master owns the clock and the policy. For every optimized query it
//! compiles the plan into fragment programs, announces runnable fragments to
//! the policy as they become ready (roots first, consumers as their
//! producers finish), applies `Start` actions by staffing slave-backend
//! worker slots on the persistent [`WorkerPool`], and applies `Adjust`
//! actions by adjusting the fragment's shared [`StealPartition`] (the
//! Section 2.4 protocols' contract) and staffing any newly created worker
//! slots. Staffing is a queue
//! push that unparks a long-lived pool thread — no OS thread is spawned or
//! joined per slot.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_disk::ClassStats;
use xprs_optimizer::OptimizedQuery;
use xprs_scheduler::error::SchedError;
use xprs_scheduler::policy::{
    decide_fixpoint, round_parallelism, Action, RunningTask, SchedulePolicy,
};
use xprs_scheduler::predict::{Observation, PredictKey};
use xprs_scheduler::trace::{emit, SharedSink, TraceRecord};
use xprs_scheduler::{IoKind, MachineConfig, TaskId, TaskProfile};
use xprs_storage::runs::{merge_runs, split_runs_stats};
use xprs_storage::{Catalog, Tuple, PAGE_SIZE};

use crate::cancel::CancelToken;
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::io::{lock, IoFault, Machine, MachineStats};
use crate::obs::{ExecMetrics, FragmentProfile, MergeProfile, QueryProfile, RunningInfo, UtilSample};
use crate::pool::WorkerPool;
use crate::program::{compile, Driver, FragmentProgram, Materialized, PipelineOp};
use crate::steal::StealPartition;
use crate::worker::{run_worker, FragCtx, OutputSink, RelBinding, SpillSpec};

/// One pool-merge task: merges a disjoint key sub-range of the runs.
type MergeTask = Box<dyn FnOnce() -> Vec<(i32, Tuple)> + Send>;

/// Internal: a control-path failure from the decide path, before it is
/// annotated with the run's completion progress.
enum ControlFail {
    Sched(SchedError),
    Relation { fragment: usize, name: String },
    Producer { fragment: usize, producer: usize },
}

impl From<SchedError> for ControlFail {
    fn from(e: SchedError) -> Self {
        ControlFail::Sched(e)
    }
}

impl ControlFail {
    fn into_exec(self, completed: usize, total: usize) -> ExecError {
        match self {
            ControlFail::Sched(source) => ExecError::Sched { source, completed, total },
            ControlFail::Relation { fragment, name } => {
                ExecError::UnknownRelation { fragment, name }
            }
            ControlFail::Producer { fragment, producer } => {
                ExecError::ProducerNotMaterialized { fragment, producer }
            }
        }
    }
}

/// Messages workers (and their pool wrappers) send the master.
#[derive(Debug)]
pub(crate) enum MasterMsg {
    /// All units of the fragment are done and every worker has flushed.
    FragmentDone(usize),
    /// A worker staffing the fragment panicked.
    WorkerPanicked {
        /// Global fragment index.
        gid: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// A worker's read failed after every bounded retry.
    IoFault {
        /// Global fragment index.
        gid: usize,
        /// The underlying fault.
        fault: IoFault,
    },
    /// A merge-indexed probe found no index on the relation.
    IndexMissing {
        /// Global fragment index.
        gid: usize,
        /// The unindexed relation's name.
        name: String,
    },
}

/// One query to execute: the optimizer's output plus concrete selection
/// ranges for each of the query's relations.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Optimized plan with fragment estimates.
    pub optimized: OptimizedQuery,
    /// Per-relation inclusive selection range on `a` (aligned with the
    /// query's relation list).
    pub bindings: Vec<RelBinding>,
}

/// Result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The root fragment's output, sorted by key.
    pub rows: Arc<Materialized>,
    /// Wall-clock seconds from run start to query completion.
    pub finished_at: f64,
}

/// Result of a whole run.
#[derive(Debug)]
pub struct ExecReport {
    /// Per-query results, in submission order.
    pub results: Vec<QueryResult>,
    /// Machine statistics (I/O class mix).
    pub stats: MachineStats,
    /// Per-shard buffer-pool counters (empty when buffering is disabled).
    pub pool_shards: Vec<xprs_storage::PoolStats>,
    /// Buffer-pool pins still outstanding when the run finished. Any value
    /// above zero is a pin leak: some reader fetched a page and never
    /// released it, permanently shrinking the pool.
    pub pool_pinned_at_exit: u64,
    /// Total wall-clock seconds.
    pub wall: f64,
    /// Per-fragment `(task, start, finish)` wall times.
    pub fragment_times: Vec<(TaskId, f64, f64)>,
    /// OS threads the worker pool created over the whole run.
    pub pool_threads: u64,
    /// Worker-slot staffing jobs submitted over the whole run.
    pub pool_jobs: u64,
    /// Worker slots declared dead by the heartbeat patrol and replaced.
    pub worker_recoveries: u64,
    /// Times the observed I/O rate drifted outside the tolerance band and
    /// the policy was re-entered with a corrected machine model.
    pub recalibrations: u64,
    /// The machine model the run was configured with.
    pub machine: MachineConfig,
    /// Wall seconds per simulated second the run was throttled to.
    pub scale: f64,
    /// Per-disk per-class request counts and busy time, indexed by disk.
    pub disk_classes: Vec<ClassStats>,
    /// Simulated CPU seconds consumed across all workers.
    pub cpu_busy: f64,
    /// Per-query fragment profiles, in submission order.
    pub profiles: Vec<QueryProfile>,
    /// Cumulative machine counters sampled at every scheduling decision;
    /// consecutive samples bracket the pairing windows the utilization
    /// audit measures.
    pub samples: Vec<UtilSample>,
    /// Parallelism adjustments applied across all fragments.
    pub adjusts: u64,
    /// Heartbeat ticks recorded across all fragments.
    pub heartbeats: u64,
    /// Quiet patrol ticks the master ran (dead-worker sweep + drift check).
    pub patrol_ticks: u64,
    /// Buffer-pool pages granted to fragments at admission, summed over the
    /// run. Zero unless [`ExecConfig::memory_grants`] is on.
    pub mem_granted_pages: u64,
    /// Pages released back as fragments completed. Equal to
    /// `mem_granted_pages` on any successful run — a gap is a grant leak.
    pub mem_released_pages: u64,
    /// Fragments that had to wait in the admission queue because the pool
    /// was over-committed when their start was decided.
    pub mem_grant_waits: u64,
    /// Sorted spill runs cut by workers whose buffered output crossed the
    /// fragment's grant.
    pub spill_chunks: u64,
    /// Rows written to (and read back from) spill runs.
    pub spill_rows: u64,
    /// The hot-path metric registry, when `ExecConfig::obs` was on.
    pub metrics: Option<Arc<ExecMetrics>>,
    /// Per-query cancellation outcome, in submission order: `true` means
    /// the query's token fired before its root completed, and its result
    /// is an empty [`Materialized`]. A query whose token fired *after* the
    /// root finished keeps its real rows and stays `true` here — the
    /// caller learns the work was not wasted.
    pub cancelled: Vec<bool>,
    /// Fragments whose observed page footprint exceeded the pages their
    /// [`TaskProfile::memory`] declared (detection only — the run is never
    /// failed for it; disk-resident scans re-reading evicted pages land
    /// here routinely).
    pub footprint_overruns: u64,
    /// One human-readable line per footprint overrun.
    pub footprint_warnings: Vec<String>,
}

enum FragStatus {
    Blocked,
    Ready,
    Running(Arc<FragCtx>),
    Done,
}

struct FragSlot {
    profile: TaskProfile,
    program: crate::program::FragmentProgram,
    bindings: Vec<RelBinding>,
    /// Global indices of producer fragments.
    deps: Vec<usize>,
    /// Per-query-local index of each producer (pipeline ops refer to these).
    local_deps: Vec<usize>,
    query: usize,
    is_root: bool,
    status: FragStatus,
    output: Option<Arc<Materialized>>,
    started_at: f64,
    finished_at: f64,
    /// Completion-time captures for the fragment's profile.
    units: u64,
    staffed: u64,
    /// Last applied policy parallelism and the backends staffed for it.
    parallelism: u32,
    backends: u32,
    heartbeats: u64,
    adjusts: u64,
    merge: MergeProfile,
    /// The admission grant held while the fragment runs (memory-grant mode
    /// only); released — returning exactly the pages it took — at
    /// completion.
    grant: Option<xprs_storage::ShardReservation>,
    /// Running but parked in the admission FIFO: no slots are staffed yet,
    /// so parallelism adjustments must not staff any either — the fragment
    /// is staffed exactly once, by [`Executor::retry_admission`].
    queued: bool,
    /// Completion-time spill captures.
    spill_chunks: u64,
    spill_rows: u64,
    /// Pages the fragment's workers actually read (buffer-pool hits
    /// included, re-reads after eviction included) — the observed
    /// footprint compared against the declared one at completion.
    observed_pages: u64,
    /// The optimizer's profile as declared, before any predictor
    /// substitution — the cold-start prior and the baseline every
    /// observation is normalized against. `profile` above is what the
    /// policy and admission actually consume (predicted, when a warm
    /// model exists).
    declared: TaskProfile,
    /// Fragments running when this one was announced — the interference
    /// regressor, captured at the same point the prediction was queried so
    /// training and inference see the same covariate.
    co_runners: u32,
    /// Patrol recovery count when the fragment was announced; a delta at
    /// completion means a worker died mid-run and the measured profile is
    /// truncated/distorted — it must not train the predictor.
    recoveries_at_start: u64,
}

/// The master's admission ledger: the FIFO of fragments decided-but-waiting
/// for pool capacity, plus the cumulative grant counters the report and the
/// CI memory gate audit (`granted == released` on every successful run).
struct Admission {
    /// `(gid, demand_pages)` of fragments whose reservation failed; retried
    /// strictly FIFO as completions release capacity, so a large demand is
    /// never starved by a stream of small ones.
    queue: std::collections::VecDeque<(usize, u64)>,
    granted_pages: u64,
    released_pages: u64,
    waits: u64,
}

impl Admission {
    fn new() -> Self {
        Admission {
            queue: std::collections::VecDeque::new(),
            granted_pages: 0,
            released_pages: 0,
            waits: 0,
        }
    }
}

/// The multi-threaded XPRS executor.
pub struct Executor {
    cfg: ExecConfig,
    catalog: Arc<Catalog>,
    sink: Option<SharedSink>,
}

impl Executor {
    /// An executor over `catalog` with configuration `cfg`.
    pub fn new(cfg: ExecConfig, catalog: Arc<Catalog>) -> Self {
        Executor { cfg, catalog, sink: None }
    }

    /// Record every arrival, decision and applied action into `sink`.
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Execute `queries` under `policy`; blocks until all are complete.
    ///
    /// # Errors
    /// Returns [`ExecError`] if a worker panics, the completion channel
    /// dies, a fragment references an unknown relation, a compiled program
    /// disagrees with the optimizer's fragment decomposition
    /// ([`ExecError::PlanMismatch`] — the run refuses to start), or the
    /// policy misbehaves (wedges, diverges, double-starts or
    /// double-completes a fragment, references an unknown task). Remaining
    /// workers are drained (not abandoned) first, and the report fields
    /// that survive — the completion counts — ride along on the error.
    pub fn run(
        &self,
        queries: &[QueryRun],
        policy: &mut dyn SchedulePolicy,
    ) -> Result<ExecReport, ExecError> {
        self.run_inner(queries, policy, &[], None)
    }

    /// [`Executor::run`] with per-query cancellation: `tokens[i]` governs
    /// `queries[i]` (an empty slice means no query is cancellable). The
    /// master polls the tokens between messages and folds pending
    /// deadlines into its wakeup deadline; a fired token's fragments stop
    /// at the next unit boundary, release their grant, pins and partition
    /// shares exactly once through the ordinary completion protocol, and
    /// the query reports an empty result with `report.cancelled[i]` set.
    ///
    /// # Errors
    /// As [`Executor::run`] — cancellation itself is never an error.
    pub fn run_with_cancel(
        &self,
        queries: &[QueryRun],
        policy: &mut dyn SchedulePolicy,
        tokens: &[CancelToken],
    ) -> Result<ExecReport, ExecError> {
        self.run_inner(queries, policy, tokens, None)
    }

    /// Run against a shared [`ExecSession`] instead of a private machine:
    /// concurrent callers draw admission grants from one buffer pool and
    /// staff worker slots onto one pool of threads — the substrate of a
    /// continuous query service. The session's threads survive the run;
    /// only this run's fragments are quiesced on exit.
    ///
    /// # Errors
    /// As [`Executor::run_with_cancel`].
    pub fn run_shared(
        &self,
        session: &ExecSession,
        queries: &[QueryRun],
        policy: &mut dyn SchedulePolicy,
        tokens: &[CancelToken],
    ) -> Result<ExecReport, ExecError> {
        self.run_inner(queries, policy, tokens, Some(session))
    }

    /// A long-lived machine + worker pool for [`Executor::run_shared`]
    /// (private runs build one per run): the simulated machine this
    /// executor's config describes — sharded buffer pool, fault plan,
    /// metric registry — plus a pool of `n_procs` worker threads.
    pub fn session(&self) -> ExecSession {
        let mut machine = Machine::with_sharded_pool(
            &self.cfg.machine,
            self.cfg.scale,
            self.cfg.bufpool_pages,
            self.cfg.bufpool_shards.max(1),
        );
        if let Some(plan) = &self.cfg.faults {
            machine = machine.with_faults(plan.clone());
        }
        let metrics = (self.cfg.obs || self.cfg.metrics_out.is_some())
            .then(|| Arc::new(ExecMetrics::default()));
        if let Some(m) = &metrics {
            machine = machine.with_metrics(m.clone());
        }
        ExecSession {
            machine: Arc::new(machine),
            pool: WorkerPool::new(self.cfg.machine.n_procs as usize),
            metrics,
        }
    }

    fn run_inner(
        &self,
        queries: &[QueryRun],
        policy: &mut dyn SchedulePolicy,
        tokens: &[CancelToken],
        session: Option<&ExecSession>,
    ) -> Result<ExecReport, ExecError> {
        if !tokens.is_empty() && tokens.len() != queries.len() {
            return Err(ExecError::TokenCountMismatch {
                tokens: tokens.len(),
                queries: queries.len(),
            });
        }
        // Private runs build their own machine and thread pool; shared
        // runs borrow the session's, so one buffer pool arbitrates grants
        // across every concurrent run.
        let owned;
        let (session, shared) = match session {
            Some(s) => (s, true),
            None => {
                owned = self.session();
                (&owned, false)
            }
        };
        let machine = session.machine.clone();
        let metrics = session.metrics.clone();
        let backends = Backends::new(&session.pool, shared);
        // Count this run against the machine for the patrol's cross-run
        // contention attribution; the guard decrements on *every* exit
        // path (a leak would permanently inflate the shared session's
        // interference factor).
        struct RunGuard<'a>(&'a Machine);
        impl Drop for RunGuard<'_> {
            fn drop(&mut self) {
                self.0.run_finished();
            }
        }
        machine.run_started();
        let _run_guard = RunGuard(&machine);
        let (tx, rx) = channel::<MasterMsg>();
        let t0 = Instant::now();

        // Build the global fragment table.
        let mut frags: Vec<FragSlot> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            let ps = compile(&q.optimized.plan);
            let fs = &q.optimized.fragments;
            // Compiler/optimizer agreement is checked up front: the same
            // sorted per-fragment dependency lists on both sides. Formerly
            // an assert — but a mismatched plan arrives from outside this
            // crate (hand-built OptimizedQuery, version skew), so it is a
            // typed refusal, not a master panic.
            let sorted = |mut d: Vec<usize>| {
                d.sort_unstable();
                d
            };
            let compiled: Vec<Vec<usize>> =
                ps.programs.iter().map(|p| sorted(p.deps.clone())).collect();
            let optimized: Vec<Vec<usize>> = (0..fs.fragments.len())
                .map(|fi| sorted(fs.dag.deps_of(fi).to_vec()))
                .collect();
            if compiled != optimized {
                let err = ExecError::PlanMismatch { query: qi, compiled, optimized };
                emit(&self.sink, || TraceRecord::Error { now: 0.0, message: err.to_string() });
                backends.shutdown(&frags);
                return Err(err);
            }
            let base = frags.len();
            let n = ps.programs.len();
            for (fi, program) in ps.programs.into_iter().enumerate() {
                let mut profile = fs.fragments[fi].profile.clone();
                profile.id = TaskId((qi as u64) << 32 | fi as u64);
                frags.push(FragSlot {
                    declared: profile.clone(),
                    profile,
                    local_deps: program.deps.clone(),
                    deps: program.deps.iter().map(|d| base + d).collect(),
                    program,
                    bindings: q.bindings.clone(),
                    query: qi,
                    is_root: fi == n - 1,
                    status: FragStatus::Blocked,
                    output: None,
                    started_at: 0.0,
                    finished_at: 0.0,
                    units: 0,
                    staffed: 0,
                    parallelism: 0,
                    backends: 0,
                    heartbeats: 0,
                    adjusts: 0,
                    merge: MergeProfile::default(),
                    grant: None,
                    queued: false,
                    spill_chunks: 0,
                    spill_rows: 0,
                    observed_pages: 0,
                    co_runners: 0,
                    recoveries_at_start: 0,
                });
            }
        }

        let mut done_count = 0usize;
        let total = frags.len();
        let mut cancelled_q = vec![false; queries.len()];
        // A token is "spent" once observed fired; it is polled no further.
        let mut token_spent = vec![false; tokens.len()];
        let mut footprint_overruns = 0u64;
        let mut footprint_warnings: Vec<String> = Vec::new();

        emit(&self.sink, || TraceRecord::RunStart {
            driver: "executor".to_string(),
            policy: policy.name().to_string(),
            machine: self.cfg.machine.clone(),
        });

        // A control-path failure: record it, drain every worker, release
        // every held grant, and hand back the typed error with the
        // completion progress attached.
        let fail = |e: ControlFail,
                    done: usize,
                    now: f64,
                    frags: &mut [FragSlot],
                    admission: &mut Admission,
                    b: &Backends<'_>| {
            let exec = e.into_exec(done, total);
            emit(&self.sink, || TraceRecord::Error { now, message: exec.to_string() });
            drain(frags, b, &machine, admission);
            exec
        };

        // Announce the roots of every query. Nothing is running yet, so
        // the prediction's interference covariate is zero for every root.
        let now = |t0: Instant| t0.elapsed().as_secs_f64();
        for i in 0..frags.len() {
            if !frags[i].deps.is_empty() {
                continue;
            }
            frags[i].status = FragStatus::Ready;
            let t = now(t0);
            self.apply_prediction(&mut frags, i, t, 0, &metrics);
            let profile = frags[i].profile.clone();
            emit(&self.sink, || TraceRecord::Arrival { now: t, profile: profile.clone() });
            policy.on_arrival(t, frags[i].profile.clone());
        }
        // Utilization samples bracket every window during which the set of
        // running fragments — the pairing — was constant: one sample after
        // each applied decision, one at run end.
        let mut samples: Vec<UtilSample> = Vec::new();
        let mut admission = Admission::new();
        if let Err(e) = self
            .decide(policy, &mut frags, &mut admission, &cancelled_q, &machine, &tx, &backends, t0)
        {
            return Err(fail(e, done_count, now(t0), &mut frags, &mut admission, &backends));
        }
        if let Err(e) = wedge_check(policy, &frags, done_count) {
            return Err(fail(e.into(), done_count, now(t0), &mut frags, &mut admission, &backends));
        }
        samples.push(util_sample(now(t0), &frags, &machine));

        let mut patrol = Patrol::new(&self.cfg, machine.observed_service());
        // The patrol runs on a *deadline*, not only on quiet ticks: under a
        // continuous message stream `recv_timeout` never times out, and the
        // old quiet-tick-only patrol starved — a dead worker stayed dead as
        // long as chatty sibling fragments kept the channel busy.
        let patrol_interval =
            (self.cfg.patrol_ms > 0).then(|| Duration::from_millis(self.cfg.patrol_ms));
        let mut patrol_deadline = patrol_interval.map(|d| Instant::now() + d);
        let mut patrol_ticks = 0u64;

        while done_count < frags.len() {
            // Poll cancellation tokens: each fired token cancels every
            // fragment of its query exactly once, then the admission FIFO
            // is retried (a cancelled entry may have been blocking its
            // head).
            let mut any_fired = false;
            for (qi, tok) in tokens.iter().enumerate() {
                if !token_spent[qi] && tok.is_cancelled() {
                    token_spent[qi] = true;
                    // A token that fires after its query already finished
                    // changes nothing: the results stand and the query is
                    // not reported cancelled.
                    if self.cancel_query(
                        qi,
                        &mut frags,
                        &mut admission,
                        policy,
                        &tx,
                        &mut done_count,
                        now(t0),
                    ) {
                        cancelled_q[qi] = true;
                        any_fired = true;
                    }
                }
            }
            if any_fired {
                self.retry_admission(&mut frags, &mut admission, &machine, &backends, t0);
                if done_count >= frags.len() {
                    break;
                }
            }
            // Sleep until the next message, the patrol deadline, or the
            // earliest pending per-query deadline — whichever comes first.
            let token_deadline = tokens
                .iter()
                .enumerate()
                .filter(|&(qi, _)| !token_spent[qi])
                .filter_map(|(_, t)| t.deadline_instant())
                .min();
            let wake = match (patrol_deadline, token_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let msg = match next_msg(&rx, wake) {
                Ok(Some(msg)) => msg,
                Ok(None) => {
                    // Woken by a deadline. Fired tokens are picked up at
                    // the top of the loop; the patrol runs only when its
                    // own deadline has actually passed (the wake may have
                    // been a token's).
                    if patrol_deadline.is_some_and(|d| Instant::now() >= d) {
                        // Patrol tick: reap dead workers, then check
                        // whether the observed I/O rate has drifted out of
                        // the model's band.
                        patrol_deadline = patrol_interval.map(|d| Instant::now() + d);
                        patrol_ticks += 1;
                        patrol.reap(&frags, &backends, &machine, &self.catalog);
                        // With a shared session, capacity freed by *other*
                        // runs sends this run no completion message: retry
                        // the admission FIFO on every tick so a queued
                        // fragment is never stranded.
                        self.retry_admission(&mut frags, &mut admission, &machine, &backends, t0);
                        if let Some(corrected) = patrol.recalibrate(&machine) {
                            let t = now(t0);
                            emit(&self.sink, || TraceRecord::Recalibrate {
                                now: t,
                                observed_b: corrected.total_bandwidth(),
                                modeled_b: patrol.model.total_bandwidth(),
                                machine: corrected.clone(),
                            });
                            patrol.model = corrected.clone();
                            patrol.recalibrations += 1;
                            policy.recalibrate(t, corrected);
                            // The corrected rates may change the balance
                            // point: re-enter the policy so running
                            // fragments can be adjusted and queued work
                            // re-planned.
                            if let Err(e) = self.decide(
                                policy,
                                &mut frags,
                                &mut admission,
                                &cancelled_q,
                                &machine,
                                &tx,
                                &backends,
                                t0,
                            ) {
                                return Err(fail(
                                    e,
                                    done_count,
                                    now(t0),
                                    &mut frags,
                                    &mut admission,
                                    &backends,
                                ));
                            }
                            if let Err(e) = wedge_check(policy, &frags, done_count) {
                                return Err(fail(
                                    e.into(),
                                    done_count,
                                    now(t0),
                                    &mut frags,
                                    &mut admission,
                                    &backends,
                                ));
                            }
                            samples.push(util_sample(now(t0), &frags, &machine));
                        }
                    }
                    continue;
                }
                Err(_) => {
                    drain(&mut frags, &backends, &machine, &mut admission);
                    return Err(ExecError::ChannelClosed {
                        completed: done_count,
                        total: frags.len(),
                    });
                }
            };
            let gid = match msg {
                MasterMsg::FragmentDone(gid) => gid,
                MasterMsg::WorkerPanicked { gid, message } => {
                    drain(&mut frags, &backends, &machine, &mut admission);
                    return Err(ExecError::WorkerPanicked { fragment: gid, message });
                }
                MasterMsg::IoFault { gid, fault } => {
                    drain(&mut frags, &backends, &machine, &mut admission);
                    return Err(ExecError::IoFault { fragment: gid, fault });
                }
                MasterMsg::IndexMissing { gid, name } => {
                    drain(&mut frags, &backends, &machine, &mut admission);
                    return Err(ExecError::IndexMissing { fragment: gid, name });
                }
            };
            let t_done = now(t0);
            // Finalize: harvest the output, free the context.
            let finished = frags[gid].profile.id;
            let ctx = match take_running(&mut frags[gid].status, finished) {
                Ok(ctx) => ctx,
                Err(e) => {
                    return Err(fail(
                        e.into(),
                        done_count,
                        t_done,
                        &mut frags,
                        &mut admission,
                        &backends,
                    ));
                }
            };
            let was_cancelled = ctx.cancelled.load(Ordering::SeqCst);
            frags[gid].units = ctx.units_done.load(Ordering::SeqCst);
            frags[gid].staffed = ctx.staffed.load(Ordering::Relaxed);
            frags[gid].parallelism = ctx.target_parallelism.load(Ordering::Relaxed);
            frags[gid].backends = ctx.backends.load(Ordering::Relaxed);
            frags[gid].heartbeats =
                lock(&ctx.heartbeats).iter().map(|b| b.load(Ordering::Relaxed)).sum();
            if let Some(spec) = &ctx.spill {
                frags[gid].spill_chunks = spec.chunks.load(Ordering::Relaxed);
                frags[gid].spill_rows = spec.rows.load(Ordering::Relaxed);
            }
            frags[gid].observed_pages = ctx.pages_read.load(Ordering::Relaxed);
            // Train the predictor on the measured profile. Wall seconds
            // convert to simulated seconds through the time scale, so
            // realized quantities are in the same units the optimizer
            // declares; unthrottled runs (`scale == 0`) carry no timing
            // signal and are skipped. Cancelled or worker-death-truncated
            // runs are reported truncated so they never train the model.
            if let Some(pred) = &self.cfg.predictor {
                if self.cfg.scale > 0.0 {
                    let sim_elapsed = (t_done - frags[gid].started_at) / self.cfg.scale;
                    let x = ctx.target_parallelism.load(Ordering::Relaxed).max(1) as f64;
                    pred.observe(
                        self.predict_key(&frags[gid]),
                        &Observation {
                            declared_seq_time: frags[gid].declared.seq_time,
                            declared_io_rate: frags[gid].declared.io_rate,
                            realized_seq_time: sim_elapsed * x,
                            observed_pages: frags[gid].observed_pages as f64,
                            co_runners: frags[gid].co_runners,
                            truncated: was_cancelled
                                || patrol.recoveries > frags[gid].recoveries_at_start,
                        },
                    );
                }
            }
            // Observed-vs-declared footprint: detection only. The observed
            // count includes pool hits and re-reads after eviction, so it
            // is an upper bound that disk-resident scans overrun
            // routinely; the counter and warning make the drift visible
            // without failing anyone's run.
            let declared =
                (frags[gid].profile.memory / PAGE_SIZE as f64).ceil() as u64;
            if declared > 0 && frags[gid].observed_pages > declared {
                footprint_overruns += 1;
                if let Some(m) = &metrics {
                    m.mem_overruns.inc();
                }
                footprint_warnings.push(format!(
                    "fragment {}: observed {} pages exceeds declared {} pages",
                    frags[gid].profile.id.0,
                    frags[gid].observed_pages,
                    declared
                ));
            }
            // Release the completed fragment's grant, then hand the freed
            // capacity to the admission queue — the deferred fragments are
            // already Running in the policy's eyes, they only lack workers.
            if let Some(grant) = frags[gid].grant.take() {
                admission.released_pages += grant.pages();
                if let Some(pool) = machine.pool() {
                    pool.release(grant);
                }
            }
            self.retry_admission(&mut frags, &mut admission, &machine, &backends, t0);
            // A cancelled fragment's partial output is never observable:
            // the query's contract is all rows or none.
            let (rows, merge) = if was_cancelled {
                (Materialized::default(), MergeProfile::default())
            } else {
                self.materialize(&ctx, &backends, &machine)
            };
            frags[gid].merge = merge;
            frags[gid].output = Some(Arc::new(rows));
            frags[gid].finished_at = t_done;
            done_count += 1;
            emit(&self.sink, || TraceRecord::Finish { now: t_done, task: finished });
            policy.on_finish(t_done, finished);

            // Promote consumers whose producers are now all done.
            let running_now =
                frags.iter().filter(|f| matches!(f.status, FragStatus::Running(_))).count() as u32;
            for i in 0..frags.len() {
                if matches!(frags[i].status, FragStatus::Blocked)
                    && frags[i].deps.iter().all(|&d| matches!(frags[d].status, FragStatus::Done))
                {
                    frags[i].status = FragStatus::Ready;
                    frags[i].recoveries_at_start = patrol.recoveries;
                    self.apply_prediction(&mut frags, i, t_done, running_now, &metrics);
                    let profile = frags[i].profile.clone();
                    emit(&self.sink, || TraceRecord::Arrival {
                        now: t_done,
                        profile: profile.clone(),
                    });
                    policy.on_arrival(t_done, frags[i].profile.clone());
                }
            }
            if let Err(e) = self
                .decide(policy, &mut frags, &mut admission, &cancelled_q, &machine, &tx, &backends, t0)
            {
                return Err(fail(e, done_count, now(t0), &mut frags, &mut admission, &backends));
            }
            if let Err(e) = wedge_check(policy, &frags, done_count) {
                return Err(fail(e.into(), done_count, now(t0), &mut frags, &mut admission, &backends));
            }
            samples.push(util_sample(now(t0), &frags, &machine));
        }

        backends.shutdown(&frags);

        let wall = now(t0);
        samples.push(util_sample(wall, &frags, &machine));
        let mut results = Vec::with_capacity(queries.len());
        for (qi, &was_cancelled) in cancelled_q.iter().enumerate() {
            let root = frags
                .iter()
                .find(|f| f.query == qi && f.is_root)
                .ok_or(ExecError::RootMissing { query: qi })?;
            let rows = match root.output.clone() {
                Some(rows) => rows,
                // A cancelled root retired from Blocked/Ready never
                // materialized anything; its contracted result is empty.
                None if was_cancelled => Arc::new(Materialized::default()),
                None => return Err(ExecError::OutputMissing { query: qi }),
            };
            results.push(QueryResult { rows, finished_at: root.finished_at });
        }
        let profiles: Vec<QueryProfile> = results
            .iter()
            .enumerate()
            .map(|(qi, r)| QueryProfile {
                query: qi,
                finished_at: r.finished_at,
                rows: r.rows.rows.len() as u64,
                cancelled: cancelled_q[qi],
                fragments: frags
                    .iter()
                    .filter(|f| f.query == qi)
                    .map(|f| FragmentProfile {
                        task: f.profile.id,
                        query: qi,
                        is_root: f.is_root,
                        started_at: f.started_at,
                        finished_at: f.finished_at,
                        units: f.units,
                        staffed: f.staffed,
                        parallelism: f.parallelism,
                        backends: f.backends,
                        adjusts: f.adjusts,
                        heartbeats: f.heartbeats,
                        merge: f.merge,
                        observed_pages: f.observed_pages,
                        declared_pages: (f.profile.memory / PAGE_SIZE as f64).ceil() as u64,
                    })
                    .collect(),
            })
            .collect();
        let report = ExecReport {
            results,
            stats: machine.stats(),
            pool_shards: machine.pool_shard_stats(),
            pool_pinned_at_exit: machine.pool_pinned(),
            wall,
            fragment_times: frags
                .iter()
                .map(|f| (f.profile.id, f.started_at, f.finished_at))
                .collect(),
            pool_threads: backends.threads_spawned(),
            pool_jobs: backends.staffed.load(Ordering::Relaxed),
            worker_recoveries: patrol.recoveries,
            recalibrations: patrol.recalibrations,
            machine: self.cfg.machine.clone(),
            scale: self.cfg.scale,
            disk_classes: machine.disk_class_stats(),
            cpu_busy: machine.cpu_busy_secs(),
            adjusts: frags.iter().map(|f| f.adjusts).sum(),
            heartbeats: frags.iter().map(|f| f.heartbeats).sum(),
            patrol_ticks,
            mem_granted_pages: admission.granted_pages,
            mem_released_pages: admission.released_pages,
            mem_grant_waits: admission.waits,
            spill_chunks: frags.iter().map(|f| f.spill_chunks).sum(),
            spill_rows: frags.iter().map(|f| f.spill_rows).sum(),
            profiles,
            samples,
            metrics,
            cancelled: cancelled_q,
            footprint_overruns,
            footprint_warnings,
        };
        if let Some(path) = &self.cfg.metrics_out {
            std::fs::write(path, report.metrics_json()).map_err(|e| {
                ExecError::MetricsDump { path: path.display().to_string(), error: e.to_string() }
            })?;
        }
        Ok(report)
    }

    /// Fragment-barrier materialization.
    ///
    /// The sink holds the workers' locally sorted runs: a stable k-way
    /// merge (O(n log k), no re-sort) produces the key-ordered rows, and
    /// for outputs past `parallel_merge_min_rows` the merge itself is
    /// farmed to the persistent worker pool — the runs are split at key
    /// boundaries into one disjoint sub-range per processor, merged
    /// concurrently, and concatenated. A single counting pass then erects
    /// the CSR index.
    fn materialize(
        &self,
        ctx: &FragCtx,
        backends: &Backends<'_>,
        machine: &Machine,
    ) -> (Materialized, MergeProfile) {
        let mut runs = ctx.out.harvest_runs();
        let ways = self.merge_ways();
        if !ctx.hot_keys.is_empty() {
            // The hot keys' output was withheld from the workers; compute
            // it now, fanned across the pool with the small side
            // replicated, and inject the ordered chunks as extra runs.
            // Only these runs carry hot keys, so the stable merge
            // concatenates them in chunk order — byte-identical to the
            // single-worker emission order.
            runs.extend(hot_key_fanout(ctx, backends, ways));
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        if let Some(m) = machine.metrics() {
            m.merge_runs.observe(runs.len() as u64);
            for r in &runs {
                m.merge_run_rows.observe(r.len() as u64);
            }
        }
        let mut profile = MergeProfile {
            runs: runs.len() as u64,
            rows: total as u64,
            ways: 1,
            parallel: false,
            hot_keys: ctx.hot_keys.len() as u64,
            way_rows_max: 0,
            way_rows_mean: 0,
        };
        if ways <= 1 || runs.len() <= 1 || total < self.cfg.parallel_merge_min_rows.max(1) {
            // ≤ 1 run needs no merge at all — splitting it across the
            // pool would be pure copy overhead.
            if let Some(m) = machine.metrics() {
                m.merge_fanout.observe(1);
                if profile.hot_keys > 0 {
                    m.hot_keys.add(profile.hot_keys);
                }
            }
            return (Materialized::from_runs(runs), profile);
        }
        profile.ways = ways as u64;
        profile.parallel = true;
        let (groups, stats) = split_runs_stats(runs, ways);
        let mut hot = ctx.hot_keys.clone();
        hot.extend(&stats.hot_keys);
        hot.sort_unstable();
        hot.dedup();
        profile.hot_keys = hot.len() as u64;
        profile.way_rows_max = stats.group_rows.iter().copied().max().unwrap_or(0) as u64;
        profile.way_rows_mean = stats.group_rows.iter().map(|&r| r as u64).sum::<u64>()
            / stats.group_rows.len().max(1) as u64;
        if let Some(m) = machine.metrics() {
            m.merge_fanout.observe(ways as u64);
            if profile.hot_keys > 0 {
                m.hot_keys.add(profile.hot_keys);
            }
            for &r in &stats.group_rows {
                m.merge_way_rows.observe(r as u64);
            }
        }
        let tasks: Vec<MergeTask> = groups
            .into_iter()
            .map(|group| Box::new(move || merge_runs(group)) as MergeTask)
            .collect();
        let mut rows = Vec::with_capacity(total);
        for part in backends.pool.scatter_gather(tasks) {
            rows.extend(part);
        }
        (Materialized::from_sorted_rows(rows), profile)
    }

    /// The merge fan-out this configuration targets: the explicit
    /// `parallel_merge_ways`, or (auto) the machine's processor count
    /// clamped to the host's real parallelism.
    fn merge_ways(&self) -> usize {
        if self.cfg.parallel_merge_ways == 0 {
            (self.cfg.machine.n_procs as usize)
                .min(std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            self.cfg.parallel_merge_ways
        }
    }

    /// Heavy-hitter detection for a key-domain merge fragment, run before
    /// its workers are staffed (the Afrati et al. playbook: detect, then
    /// replicate the small side and split the hot key's *output*).
    ///
    /// A key's output size is the product of its match counts across the
    /// materialized inputs; a key is hot when that product strictly
    /// exceeds an even `1/ways` share of the total output — the same
    /// threshold `split_runs_stats` applies to sample mass. Keys found hot
    /// are *withheld from the workers* (see `scan_key`) and computed by
    /// the master at materialization, fanned across the pool.
    ///
    /// Scope: key-domain drivers whose ops are all `MergeWith` (every
    /// side materialized, so the product is known up front), outputs past
    /// `parallel_merge_min_rows`, and fan-outs worth more than one way.
    fn hot_join_keys(
        &self,
        program: &FragmentProgram,
        inputs: &HashMap<usize, Arc<Materialized>>,
        units: &UnitSpace,
    ) -> Vec<i32> {
        if program.driver != Driver::KeyDomain
            || program.ops.is_empty()
            || !program.ops.iter().all(|op| matches!(op, PipelineOp::MergeWith { .. }))
        {
            return Vec::new();
        }
        let ways = self.merge_ways() as u64;
        let UnitSpace::Keys { lo, hi } = *units else { return Vec::new() };
        if ways <= 1 || lo > hi {
            return Vec::new();
        }
        let deps: Vec<&Arc<Materialized>> = program
            .ops
            .iter()
            .map(|op| &inputs[&op.dep().expect("MergeWith always has a dep")])
            .collect();
        // Walk the first input's distinct keys (rows are key-sorted) and
        // take the match-count product per key.
        let rows = &deps[0].rows;
        let mut products: Vec<(i32, u64)> = Vec::new();
        let mut total = 0u64;
        let mut i = 0usize;
        while i < rows.len() {
            let k = rows[i].0;
            let mut j = i + 1;
            while j < rows.len() && rows[j].0 == k {
                j += 1;
            }
            if (k as i64) >= lo && (k as i64) <= hi {
                let mut prod = (j - i) as u64;
                for d in &deps[1..] {
                    prod = prod.saturating_mul(d.matches(k).count() as u64);
                    if prod == 0 {
                        break;
                    }
                }
                if prod > 0 {
                    total = total.saturating_add(prod);
                    products.push((k, prod));
                }
            }
            i = j;
        }
        if total < self.cfg.parallel_merge_min_rows.max(1) as u64 {
            return Vec::new();
        }
        products.retain(|&(_, p)| p > 1 && p.saturating_mul(ways) > total);
        products.into_iter().map(|(k, _)| k).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        policy: &mut dyn SchedulePolicy,
        frags: &mut [FragSlot],
        admission: &mut Admission,
        cancelled_q: &[bool],
        machine: &Arc<Machine>,
        tx: &Sender<MasterMsg>,
        backends: &Backends<'_>,
        t0: Instant,
    ) -> Result<(), ControlFail> {
        let now = t0.elapsed().as_secs_f64();
        decide_fixpoint(
            policy,
            &self.sink,
            now,
            frags,
            |frags| {
                frags
                    .iter()
                    .filter_map(|f| match &f.status {
                        FragStatus::Running(ctx) => {
                            let total = ctx.total_units.max(1) as f64;
                            let done = ctx.units_done.load(Ordering::Relaxed) as f64;
                            Some(RunningTask {
                                profile: f.profile.clone(),
                                parallelism: ctx.target_parallelism.load(Ordering::Relaxed) as f64,
                                remaining_seq_time: f.profile.seq_time
                                    * (1.0 - done / total).max(0.0),
                            })
                        }
                        _ => None,
                    })
                    .collect()
            },
            |frags, a| {
                let (id, parallelism) = (a.task(), a.parallelism());
                let gid = frags
                    .iter()
                    .position(|f| f.profile.id == id)
                    .ok_or(SchedError::UnknownTask { task: id })?;
                // Actions aimed at a cancelled query are stale by
                // construction — the policy decided before digesting its
                // finish events — so they are dropped, not indicted.
                if cancelled_q[frags[gid].query] {
                    return Ok(false);
                }
                match a {
                    Action::Start { .. } => self.start_fragment(
                        frags,
                        gid,
                        parallelism,
                        admission,
                        machine,
                        tx,
                        backends,
                        t0,
                    )?,
                    Action::Adjust { .. } => {
                        self.adjust_fragment(frags, gid, parallelism, machine, backends)
                    }
                }
                Ok(true)
            },
        )
    }

    #[allow(clippy::too_many_arguments)]
    /// The predictor key of a fragment: a process-stable hash of its
    /// operator shape (driver, pipeline ops, producer count, root flag)
    /// plus a log2 bucket of the heap pages its driver reads — so a model
    /// trained on a 100-page scan is never applied to a 100k-page one,
    /// while repetitions of the same plan shape over same-magnitude
    /// relations share their history.
    fn predict_key(&self, f: &FragSlot) -> PredictKey {
        // FNV-1a over explicit shape codes. `mem::discriminant` hashes are
        // not guaranteed stable across builds; these codes are.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let (driver_code, driver_rel) = match f.program.driver {
            Driver::PageScan { rel } => (1u64, Some(rel)),
            Driver::KeyScan { rel } => (2, Some(rel)),
            Driver::KeyDomain => (3, None),
        };
        mix(driver_code);
        for op in &f.program.ops {
            mix(match op {
                PipelineOp::ProbeHash { .. } => 11,
                PipelineOp::MergeWith { .. } => 12,
                PipelineOp::NestInner { .. } => 13,
                PipelineOp::MergeIndexed { .. } => 14,
            });
        }
        mix(f.deps.len() as u64);
        mix(u64::from(f.is_root));
        // Pages behind the driver: the scanned relation for page/key
        // scans; for a key-domain walk (inputs all materialized) the
        // query's whole heap footprint stands in as the scale proxy.
        let heap_pages = |rel: usize| {
            f.bindings
                .get(rel)
                .and_then(|b| self.catalog.get(&b.name))
                .map_or(0, |r| r.heap.n_blocks())
        };
        let total_pages = match driver_rel {
            Some(rel) => heap_pages(rel),
            None => (0..f.bindings.len()).map(heap_pages).sum(),
        };
        PredictKey::new(h, total_pages)
    }

    /// Substitute the predicted profile for the declared one before
    /// `frags[i]` is announced to the policy, when a predictor is attached
    /// and its model for the fragment's key is warm. `co_runners` — the
    /// fragments running at announcement — is the interference covariate,
    /// and is remembered on the slot so the completion-time observation
    /// trains the regression at the same point it was queried.
    fn apply_prediction(
        &self,
        frags: &mut [FragSlot],
        i: usize,
        now: f64,
        co_runners: u32,
        metrics: &Option<Arc<ExecMetrics>>,
    ) {
        frags[i].co_runners = co_runners;
        let Some(pred) = &self.cfg.predictor else { return };
        let p = pred.predict(self.predict_key(&frags[i]), &frags[i].declared, co_runners);
        if let Some(m) = metrics {
            if p.from_model {
                m.predictions.inc();
            } else {
                m.prediction_fallbacks.inc();
            }
        }
        if !p.from_model {
            return; // cold start / degenerate model: declared prior stands
        }
        let d = &frags[i].declared;
        let prof = &p.profile;
        emit(&self.sink, || TraceRecord::Predict {
            now,
            task: d.id,
            declared_seq_time: d.seq_time,
            declared_io_rate: d.io_rate,
            declared_memory: d.memory,
            predicted_seq_time: prof.seq_time,
            predicted_io_rate: prof.io_rate,
            predicted_memory: prof.memory,
            co_runners,
            observations: p.observations,
        });
        frags[i].profile = p.profile;
    }

    #[allow(clippy::too_many_arguments)]
    fn start_fragment(
        &self,
        frags: &mut [FragSlot],
        gid: usize,
        parallelism: f64,
        admission: &mut Admission,
        machine: &Arc<Machine>,
        tx: &Sender<MasterMsg>,
        backends: &Backends<'_>,
        t0: Instant,
    ) -> Result<(), ControlFail> {
        match frags[gid].status {
            FragStatus::Ready => {}
            // The policy was never told about a Blocked fragment (arrival
            // happens at the Ready transition), so a premature start is a
            // reference to a task outside its announced universe.
            FragStatus::Blocked => {
                return Err(SchedError::UnknownTask { task: frags[gid].profile.id }.into());
            }
            FragStatus::Running(_) | FragStatus::Done => {
                return Err(SchedError::AlreadyRunning { task: frags[gid].profile.id }.into());
            }
        }
        let x = round_parallelism(parallelism, self.cfg.machine.n_procs) as u32;

        // Materialized inputs, keyed by query-local fragment index. A
        // missing producer output is a readiness-protocol violation,
        // surfaced as a typed error rather than a panic.
        let mut inputs: HashMap<usize, Arc<Materialized>> = HashMap::new();
        for (&local, &dep) in frags[gid].local_deps.iter().zip(frags[gid].deps.iter()) {
            let out = frags[dep]
                .output
                .clone()
                .ok_or(ControlFail::Producer { fragment: gid, producer: dep })?;
            inputs.insert(local, out);
        }

        // The fragment's unit space per driver: pages for a sequential
        // scan, a key interval for index scans and key-domain walks.
        let missing = |name: &str| ControlFail::Relation { fragment: gid, name: name.to_string() };
        let units = match frags[gid].program.driver {
            Driver::PageScan { rel } => {
                let name = &frags[gid].bindings[rel].name;
                let relation = self.catalog.get(name).ok_or_else(|| missing(name))?;
                UnitSpace::Pages(relation.heap.n_blocks())
            }
            Driver::KeyScan { rel } => {
                let binding = &frags[gid].bindings[rel];
                let relation =
                    self.catalog.get(&binding.name).ok_or_else(|| missing(&binding.name))?;
                let s = relation.stats();
                UnitSpace::Keys {
                    lo: binding.pred.0.max(s.min_a) as i64,
                    hi: binding.pred.1.min(s.max_a) as i64,
                }
            }
            Driver::KeyDomain => {
                // Intersection of the materialized inputs' key ranges.
                let mut lo = i64::MIN;
                let mut hi = i64::MAX;
                for op in &frags[gid].program.ops {
                    if let Some(dep) = op.dep() {
                        let m = &inputs[&dep];
                        lo = lo.max(m.min_key().map_or(i64::MAX, |k| k as i64));
                        hi = hi.min(m.max_key().map_or(i64::MIN, |k| k as i64));
                    }
                }
                UnitSpace::Keys { lo, hi }
            }
        };
        let total_units = units.total();
        let n_backends = self.backends_for(x, &frags[gid].profile, total_units);
        // Heavy hitters of a key-domain merge are decided before staffing:
        // the workers are born knowing which keys to skip, and the master
        // owes their output at materialization.
        let hot_keys = self.hot_join_keys(&frags[gid].program, &inputs, &units);
        let mut part =
            StealPartition::new(total_units, self.cfg.morsel_units, n_backends, gid as u64);
        // Page-scan units are striped blocks (`unit % n_disks` = home
        // disk): steal disk-affine so a rescue steal doesn't degrade two
        // disks' service class. Key-space fragments have no unit→disk
        // mapping, so they steal blind.
        if matches!(frags[gid].program.driver, Driver::PageScan { .. }) {
            part = part.with_disks(self.cfg.machine.n_disks);
        }

        // Memory admission: the fragment's estimated footprint, clamped to
        // the whole pool, becomes its page demand; the clamp also fixes the
        // spill bound, so the budget is decided before the context exists
        // and the workers are born knowing it.
        let mut demand_pages = 0u64;
        let mut spill = None;
        if self.cfg.memory_grants && total_units > 0 {
            if let Some(pool) = machine.pool() {
                let raw = (frags[gid].profile.memory / PAGE_SIZE as f64).ceil() as u64;
                demand_pages = raw.min(pool.capacity() as u64);
                if demand_pages > 0 {
                    let row_bytes = self.row_bytes_estimate(&frags[gid].bindings);
                    let grant_bytes = demand_pages * PAGE_SIZE as u64;
                    spill = Some(SpillSpec {
                        threshold_rows: AtomicUsize::new(spill_threshold(
                            grant_bytes,
                            n_backends,
                            row_bytes,
                        )),
                        grant_bytes,
                        row_bytes,
                        chunks: AtomicU64::new(0),
                        rows: AtomicU64::new(0),
                    });
                }
            }
        }

        let ctx = Arc::new(FragCtx {
            gid,
            program: frags[gid].program.clone(),
            rels: frags[gid].bindings.clone(),
            inputs,
            part: Arc::new(part),
            key_base: units.base(),
            exited_slots: std::sync::Mutex::new(Vec::new()),
            heartbeats: std::sync::Mutex::new(Vec::new()),
            units_done: AtomicU64::new(0),
            total_units,
            outstanding: AtomicU32::new(0),
            staffed: AtomicU64::new(0),
            out: OutputSink::default(),
            target_parallelism: AtomicU32::new(x),
            backends: AtomicU32::new(n_backends),
            done: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            pages_read: AtomicU64::new(0),
            done_tx: tx.clone(),
            cpu_tuple: self.cfg.cpu_tuple,
            spill,
            hot_keys,
        });
        frags[gid].started_at = t0.elapsed().as_secs_f64();
        frags[gid].status = FragStatus::Running(ctx.clone());

        if total_units == 0 {
            // Nothing to scan (empty relation or empty key intersection):
            // complete immediately through the normal channel.
            if !ctx.done.swap(true, Ordering::SeqCst) {
                let _ = tx.send(MasterMsg::FragmentDone(gid));
            }
            return Ok(());
        }
        if demand_pages > 0 {
            let pool = machine.pool().expect("demand computed only with a pool");
            match pool.try_reserve(demand_pages) {
                Some(grant) => {
                    admission.granted_pages += grant.pages();
                    frags[gid].grant = Some(grant);
                }
                None => {
                    // Over-committed: the fragment is admitted to the
                    // schedule (Running, so the policy and the wedge
                    // detector account for it) but staffing waits in the
                    // FIFO until a completion releases capacity. A lone
                    // fragment always fits (demand is clamped to the pool),
                    // so the queue can never deadlock.
                    admission.waits += 1;
                    admission.queue.push_back((gid, demand_pages));
                    frags[gid].queued = true;
                    return Ok(());
                }
            }
        }
        for slot in 0..n_backends as usize {
            backends.staff(&ctx, slot, machine, &self.catalog);
        }
        Ok(())
    }

    /// Retry the admission FIFO after a grant release: staff every queued
    /// fragment whose reservation now fits, stopping at the first that
    /// still does not. Strict FIFO — later small demands never overtake an
    /// earlier large one, so a big build cannot be starved.
    fn retry_admission(
        &self,
        frags: &mut [FragSlot],
        admission: &mut Admission,
        machine: &Arc<Machine>,
        backends: &Backends<'_>,
        t0: Instant,
    ) {
        let Some(pool) = machine.pool() else { return };
        while let Some(&(gid, demand)) = admission.queue.front() {
            let ctx = match &frags[gid].status {
                FragStatus::Running(ctx) => ctx.clone(),
                // Finalized while waiting (abort paths only): nothing to
                // staff, and no grant was ever held.
                _ => {
                    admission.queue.pop_front();
                    continue;
                }
            };
            let Some(grant) = pool.try_reserve(demand) else { return };
            admission.queue.pop_front();
            admission.granted_pages += grant.pages();
            frags[gid].grant = Some(grant);
            frags[gid].queued = false;
            // The profile clock starts at staffing: the queue wait is
            // admission latency (counted in `mem_grant_waits`), not run
            // time.
            frags[gid].started_at = t0.elapsed().as_secs_f64();
            let n_backends = ctx.backends.load(Ordering::Relaxed);
            for slot in 0..n_backends as usize {
                backends.staff(&ctx, slot, machine, &self.catalog);
            }
        }
    }

    /// [`staff_backends`] under this executor's machine and morsel grain.
    /// Unthrottled (`scale == 0`) a read takes no wall time, so there is
    /// no disk wait for a surplus backend to cover — it would only contend
    /// for the host's real cores — and a backend is a processor.
    fn backends_for(&self, x: u32, profile: &TaskProfile, units: u64) -> u32 {
        if self.cfg.scale == 0.0 {
            return x;
        }
        staff_backends(x, profile, &self.cfg.machine, units, self.cfg.morsel_units)
    }

    /// Estimated bytes per output row for a fragment's spill accounting:
    /// the widest stored tuple among the query's relations (heap pages over
    /// tuple count), defaulting to 64 when no relation has stats. An
    /// estimate is enough — it sizes simulated spill blocks; it does not
    /// place data.
    fn row_bytes_estimate(&self, bindings: &[RelBinding]) -> usize {
        bindings
            .iter()
            .filter_map(|b| {
                let rel = self.catalog.get(&b.name)?;
                let s = rel.stats();
                (s.n_tuples > 0)
                    .then(|| ((s.n_blocks * PAGE_SIZE as u64) / s.n_tuples).max(1) as usize)
            })
            .max()
            .unwrap_or(64)
    }

    fn adjust_fragment(
        &self,
        frags: &mut [FragSlot],
        gid: usize,
        parallelism: f64,
        machine: &Arc<Machine>,
        backends: &Backends<'_>,
    ) {
        let ctx = match &frags[gid].status {
            FragStatus::Running(ctx) => ctx.clone(),
            // The fragment finished in the window between the snapshot and
            // this action; the adjustment is moot.
            _ => return,
        };
        // Parked in the admission FIFO: nothing is staffed, and staffing
        // `new_slots` here would run the fragment without a grant (and then
        // a second time when its reservation lands). Drop the adjustment;
        // the policy re-decides once the fragment actually runs.
        if frags[gid].queued {
            return;
        }
        let ctx = &ctx;
        frags[gid].adjusts += 1;
        let x = round_parallelism(parallelism, self.cfg.machine.n_procs) as u32;
        let n = self.backends_for(x, &frags[gid].profile, ctx.total_units);
        ctx.target_parallelism.store(x, Ordering::Relaxed);
        ctx.backends.store(n, Ordering::Relaxed);
        if let Some(spec) = &ctx.spill {
            // The grant is shared by however many backends buffer output.
            let rows = spill_threshold(spec.grant_bytes, n, spec.row_bytes);
            spec.threshold_rows.store(rows, Ordering::Relaxed);
        }
        let info = ctx.part.adjust(n);
        let active = ctx.part.active_slots();
        for slot in info.new_slots {
            backends.staff(ctx, slot, machine, &self.catalog);
        }
        // Re-staff previously drained slots that the new assignment handed
        // fresh work (the idle-worker hazard).
        let respawn: Vec<usize> = {
            let mut exited = lock(&ctx.exited_slots);
            let respawn: Vec<usize> =
                exited.iter().copied().filter(|s| active.contains(s)).collect();
            exited.retain(|s| !respawn.contains(s));
            respawn
        };
        for slot in respawn {
            backends.staff(ctx, slot, machine, &self.catalog);
        }
    }

    /// Cancel every fragment of query `qi`.
    ///
    /// Fragments retire according to how far they got: `Blocked` ones were
    /// never announced to the policy and disappear silently; `Ready` and
    /// admission-queued ones retire through the policy's finish protocol
    /// (so it never waits on them); staffed ones have their workers
    /// stopped cooperatively — the flag is observed at unit and morsel
    /// boundaries, every steal slot is revoked so mid-morsel remainders
    /// are never redealt, and the ordinary completion protocol then
    /// releases the grant, pins and partition shares exactly once.
    ///
    /// Returns whether any fragment was actually cut short — `false`
    /// means the query had already finished and its results stand.
    #[allow(clippy::too_many_arguments)]
    fn cancel_query(
        &self,
        qi: usize,
        frags: &mut [FragSlot],
        admission: &mut Admission,
        policy: &mut dyn SchedulePolicy,
        tx: &Sender<MasterMsg>,
        done_count: &mut usize,
        t: f64,
    ) -> bool {
        enum Plan {
            Skip,
            Retire { announce: bool },
            Stop(Arc<FragCtx>),
        }
        // Whether the cancel found anything left to cut short. A token
        // firing after every fragment finished is a no-op: the query
        // completed, its results stand.
        let mut affected = false;
        for (gid, frag) in frags.iter_mut().enumerate() {
            if frag.query != qi {
                continue;
            }
            let plan = match &frag.status {
                FragStatus::Done => Plan::Skip,
                FragStatus::Blocked => Plan::Retire { announce: false },
                FragStatus::Ready => Plan::Retire { announce: true },
                FragStatus::Running(ctx) => {
                    if frag.queued {
                        // Parked in the admission FIFO: Running in the
                        // policy's eyes but no workers are staffed and no
                        // grant is held — retire it directly.
                        Plan::Retire { announce: true }
                    } else {
                        Plan::Stop(ctx.clone())
                    }
                }
            };
            match plan {
                Plan::Skip => {}
                Plan::Retire { announce } => {
                    affected = true;
                    if frag.queued {
                        admission.queue.retain(|&(g, _)| g != gid);
                        frag.queued = false;
                    }
                    frag.status = FragStatus::Done;
                    frag.finished_at = t;
                    *done_count += 1;
                    if announce {
                        let finished = frag.profile.id;
                        emit(&self.sink, || TraceRecord::Finish { now: t, task: finished });
                        policy.on_finish(t, finished);
                    }
                }
                Plan::Stop(ctx) => {
                    affected = true;
                    // Workers observe the flag at the next unit or morsel
                    // boundary; revoking every steal slot stops mid-morsel
                    // claims too (the forfeited remainder is never
                    // redealt). Finalization then arrives through the
                    // ordinary FragmentDone.
                    ctx.cancelled.store(true, Ordering::SeqCst);
                    ctx.part.revoke_all();
                    // The death window: between a worker death and the
                    // patrol's replacement, `outstanding` can be 0 with
                    // units unfinished — no worker is left to fire the
                    // completion. Fire it from here through the same
                    // `done` latch; whichever side swaps first sends, so
                    // it is exactly-once.
                    if ctx.outstanding.load(Ordering::SeqCst) == 0
                        && !ctx.done.swap(true, Ordering::SeqCst)
                    {
                        let _ = tx.send(MasterMsg::FragmentDone(gid));
                    }
                }
            }
        }
        affected
    }
}

/// A long-lived machine + worker pool shared by concurrent
/// [`Executor::run_shared`] calls — the substrate of a continuous query
/// service. Every admission grant comes from the one buffer pool (so
/// memory admission arbitrates *across* runs) and every worker slot is
/// staffed onto the one pool of threads. The ledger accessors exist for
/// exactly-once audits: after all runs have quiesced,
/// [`ExecSession::reserved_pages`] and [`ExecSession::pinned_pages`] must
/// both be zero or something leaked.
pub struct ExecSession {
    machine: Arc<Machine>,
    pool: WorkerPool,
    metrics: Option<Arc<ExecMetrics>>,
}

impl ExecSession {
    /// The shared simulated machine (its buffer pool backs every grant).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The shared metric registry, when the config enabled one.
    pub fn metrics(&self) -> Option<&Arc<ExecMetrics>> {
        self.metrics.as_ref()
    }

    /// Buffer-pool pages currently reserved by admission grants across
    /// every run on this session. Zero once all runs have finished —
    /// anything else is a grant leak.
    pub fn reserved_pages(&self) -> u64 {
        self.machine.pool().map_or(0, |p| p.reserved())
    }

    /// Pages currently pinned across the session. Zero at quiesce —
    /// anything else is a pin leak.
    pub fn pinned_pages(&self) -> u64 {
        self.machine.pool_pinned()
    }

    /// OS threads the shared worker pool has created so far.
    pub fn threads_spawned(&self) -> u64 {
        self.pool.threads_spawned()
    }

    /// Run the shared worker pool down and join every thread. Idempotent;
    /// also invoked when the session is dropped.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

/// How worker slots become running threads: a queue push onto the
/// persistent [`WorkerPool`] that unparks a long-lived thread. The pool
/// grows on demand to the *peak concurrent* slot count and no further.
struct Backends<'a> {
    pool: &'a WorkerPool,
    staffed: AtomicU64,
    /// The pool is borrowed from a long-lived [`ExecSession`]: shutdown
    /// quiesces this run's workers instead of running the threads down.
    shared: bool,
}

impl<'a> Backends<'a> {
    fn new(pool: &'a WorkerPool, shared: bool) -> Self {
        Backends { pool, staffed: AtomicU64::new(0), shared }
    }

    /// Staff worker slot `slot` of `ctx`: accounts the worker in the
    /// fragment's completion protocol **before** it can run, wraps the run
    /// in a panic report, and always balances with [`FragCtx::worker_exit`].
    fn staff(&self, ctx: &Arc<FragCtx>, slot: usize, machine: &Arc<Machine>, catalog: &Arc<Catalog>) {
        self.staffed.fetch_add(1, Ordering::Relaxed);
        ctx.staffed.fetch_add(1, Ordering::Relaxed);
        // Register the slot's heartbeat before the worker can run, so the
        // patrol tracks it from staffing time (a job stuck in the pool
        // queue is indistinguishable from a dead worker — reclaiming it is
        // a safe false positive).
        {
            let mut beats = lock(&ctx.heartbeats);
            while beats.len() <= slot {
                beats.push(Arc::new(AtomicU64::new(0)));
            }
        }
        ctx.outstanding.fetch_add(1, Ordering::SeqCst);
        let ctx = ctx.clone();
        let machine = machine.clone();
        let catalog = catalog.clone();
        let job = move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_worker(&ctx, slot, &machine, &catalog);
            }));
            if let Err(payload) = outcome {
                let message = panic_message(payload.as_ref());
                let _ = ctx.done_tx.send(MasterMsg::WorkerPanicked { gid: ctx.gid, message });
            }
            ctx.worker_exit();
        };
        self.pool.submit(Box::new(job));
    }

    /// OS threads created so far.
    fn threads_spawned(&self) -> u64 {
        self.pool.threads_spawned()
    }

    /// Run this run's workers down. A private pool is shut down outright
    /// (every thread joined); a shared session's pool stays alive for
    /// concurrent runs, so instead this waits for the run's own
    /// outstanding workers to drain — they observe `aborted`/`cancelled`
    /// at the next unit boundary. The hard cap turns a wedged worker into
    /// a leaked thread instead of a hung service.
    fn shutdown(&self, frags: &[FragSlot]) {
        if !self.shared {
            self.pool.shutdown();
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let busy = frags.iter().any(|f| match &f.status {
                FragStatus::Running(ctx) => ctx.outstanding.load(Ordering::SeqCst) > 0,
                _ => false,
            });
            if !busy || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// Receive the next worker message. With a patrol interval configured,
/// `Ok(None)` marks a patrol tick; without one this blocks exactly like
/// the fault-free master always did.
///
/// The patrol is **deadline-based**, not quiet-tick-based: the caller
/// passes the absolute instant the next patrol is due, and once
/// `Instant::now()` passes it this returns `Ok(None)` even when messages
/// keep arriving. The earlier `recv_timeout(patrol_ms)` form restarted
/// its timer on every message, so a chatty fragment flooding the master
/// channel could starve the patrol forever and a dead sibling's worker
/// was never reaped.
fn next_msg(rx: &Receiver<MasterMsg>, deadline: Option<Instant>) -> Result<Option<MasterMsg>, ()> {
    let Some(deadline) = deadline else {
        return rx.recv().map(Some).map_err(|_| ());
    };
    let now = Instant::now();
    if now >= deadline {
        return Ok(None);
    }
    match rx.recv_timeout(deadline - now) {
        Ok(msg) => Ok(Some(msg)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(()),
    }
}

/// Largest fractional change one recalibration window may apply to the
/// machine model's bandwidths. A real sustained slowdown converges over a
/// few windows; a single noisy window cannot slam the model far enough to
/// destabilise the balance-point fixpoint.
const MAX_RECAL_STEP: f64 = 0.3;

/// The master's self-healing patrol: dead-worker detection plus
/// degradation-aware recalibration, run on quiet ticks of the message loop.
struct Patrol {
    grace: u32,
    band: f64,
    min_requests: u64,
    /// The machine model the policy currently believes; rebased on every
    /// recalibration (the configured model is only the starting point).
    model: MachineConfig,
    /// Last seen heartbeat and consecutive-stale tick count per
    /// `(fragment, slot)`.
    beats: HashMap<(usize, usize), (u64, u32)>,
    /// Slots already declared dead (never declared twice).
    dead: HashSet<(usize, usize)>,
    /// Per-class `(requests, busy)` at the start of the current window.
    io_baseline: [(u64, f64); 3],
    recoveries: u64,
    recalibrations: u64,
}

impl Patrol {
    fn new(cfg: &ExecConfig, io_baseline: [(u64, f64); 3]) -> Self {
        Patrol {
            grace: cfg.patrol_grace.max(1),
            band: cfg.recal_band,
            min_requests: cfg.recal_min_requests.max(1),
            model: cfg.machine.clone(),
            beats: HashMap::new(),
            dead: HashSet::new(),
            io_baseline,
            recoveries: 0,
            recalibrations: 0,
        }
    }

    /// Declare dead every slot whose heartbeat has been frozen for `grace`
    /// consecutive ticks while its fragment still has unfinished units and
    /// the slot never registered a voluntary exit. Each dead slot's
    /// remaining share is reclaimed by [`StealPartition::fail_slot`] and a
    /// replacement slot is staffed.
    ///
    /// A false positive — a live worker stalled mid-unit — is safe: its
    /// revoked slot hands out no further units, so it completes the one
    /// unit it holds and retires; the replacement's cursor already sits
    /// past that unit, keeping every unit exactly-once.
    fn reap(
        &mut self,
        frags: &[FragSlot],
        backends: &Backends<'_>,
        machine: &Arc<Machine>,
        catalog: &Arc<Catalog>,
    ) {
        for (gid, f) in frags.iter().enumerate() {
            let FragStatus::Running(ctx) = &f.status else { continue };
            if ctx.units_done.load(Ordering::SeqCst) >= ctx.total_units
                || ctx.aborted.load(Ordering::Relaxed)
                // Cancelled workers exit voluntarily at the next unit
                // boundary; their frozen heartbeats must not read as
                // deaths (a "replacement" would immediately exit, but the
                // staffing churn would distort the recovery counters).
                || ctx.cancelled.load(Ordering::Relaxed)
            {
                continue;
            }
            let snapshot: Vec<u64> =
                lock(&ctx.heartbeats).iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let exited: Vec<usize> = lock(&ctx.exited_slots).clone();
            for (slot, &beat) in snapshot.iter().enumerate() {
                let key = (gid, slot);
                if self.dead.contains(&key) || exited.contains(&slot) {
                    self.beats.remove(&key);
                    continue;
                }
                let entry = self.beats.entry(key).or_insert((beat, 0));
                if entry.0 == beat {
                    entry.1 += 1;
                } else {
                    *entry = (beat, 0);
                }
                if entry.1 >= self.grace {
                    self.dead.insert(key);
                    backends.staff(ctx, ctx.part.fail_slot(slot), machine, catalog);
                    self.recoveries += 1;
                }
            }
        }
    }

    /// Compare the window's observed I/O service rate against the current
    /// model. When the dominant class has drifted outside the tolerance
    /// band, return a corrected machine model with every rate rescaled by
    /// the observed ratio; the caller rebases the policy on it.
    fn recalibrate(&mut self, machine: &Machine) -> Option<MachineConfig> {
        if self.band <= 0.0 {
            return None;
        }
        let obs = machine.observed_service();
        let window: Vec<(u64, f64)> = (0..3)
            .map(|i| (obs[i].0 - self.io_baseline[i].0, obs[i].1 - self.io_baseline[i].1))
            .collect();
        if window.iter().map(|w| w.0).sum::<u64>() < self.min_requests {
            return None; // too little traffic to trust; keep accumulating
        }
        self.io_baseline = obs;
        let (class, (count, busy)) =
            window.into_iter().enumerate().max_by_key(|(_, (c, _))| *c)?;
        if count == 0 || busy <= 0.0 {
            return None;
        }
        let observed = count as f64 / busy;
        let nominal = [self.model.seq_bw, self.model.almost_seq_bw, self.model.random_bw][class];
        let raw = observed / nominal;
        if !raw.is_finite() {
            return None;
        }
        // Attribute cross-run contention before testing for drift: with k
        // runs interleaving their streams on the shared disks, each
        // request's busy time can stretch by up to the interference
        // factor, so the true machine rate lies in `[raw, raw·k]`.
        // Contention only ever *slows* a run, so the attribution is
        // one-sided: blame co-runners for as much of a shortfall as the
        // factor can explain (never pushing past nominal, and never
        // inflating a healthy reading) and treat only the unexplained
        // remainder as drift. Without this, every tenant of a shared
        // session "measures" a slow machine, rescales the model downward,
        // and the next window swings it back — the §15.4 wedge.
        let runs = machine.active_runs().min(u32::MAX as u64) as u32;
        let factor = xprs_scheduler::estimate::interference_factor(runs.max(1));
        let ratio = if raw < 1.0 { (raw * factor).min(1.0) } else { raw };
        if (ratio - 1.0).abs() <= self.band {
            return None;
        }
        // Clamp the per-step correction: a sustained real slowdown still
        // converges (each window moves the model up to MAX_RECAL_STEP
        // closer), but one noisy window can no longer slam the rates by an
        // order of magnitude — which is what drove the balance-point
        // fixpoint into `SchedError::FixpointDiverged` when consecutive
        // windows disagreed.
        let step = ratio.clamp(1.0 - MAX_RECAL_STEP, 1.0 + MAX_RECAL_STEP);
        let mut corrected = self.model.clone();
        corrected.seq_bw *= step;
        corrected.almost_seq_bw *= step;
        corrected.random_bw *= step;
        Some(corrected)
    }
}

/// Transition a fragment to `Done` and hand back its running context.
///
/// A completion message for a fragment that is not running is a protocol
/// violation: `Done` means a duplicate completion (the same fragment
/// finished twice), anything else means a completion for a fragment that
/// never started. The status is left untouched on error.
fn take_running(status: &mut FragStatus, task: TaskId) -> Result<Arc<FragCtx>, SchedError> {
    match std::mem::replace(status, FragStatus::Done) {
        FragStatus::Running(ctx) => Ok(ctx),
        FragStatus::Done => Err(SchedError::DuplicateCompletion { task }),
        other => {
            *status = other;
            Err(SchedError::NotRunning { task })
        }
    }
}

/// A run with unfinished fragments but nothing running will never receive
/// another completion message: the policy has wedged, and blocking on the
/// channel would hang forever. Detect it right after each decision round.
fn wedge_check(
    policy: &dyn SchedulePolicy,
    frags: &[FragSlot],
    completed: usize,
) -> Result<(), SchedError> {
    if completed < frags.len()
        && !frags.iter().any(|f| matches!(f.status, FragStatus::Running(_)))
    {
        return Err(SchedError::Wedged {
            policy: policy.name(),
            unfinished: frags.len() - completed,
        });
    }
    Ok(())
}

/// Snapshot the machine's cumulative counters plus the set of running
/// fragments at a scheduling decision. Consecutive samples bracket a
/// *pairing window* — the interval over which a fixed task mix ran — so
/// the [`crate::obs`] auditor can compare measured disk bandwidth and
/// utilization against the §2.2–2.3 predictions for that mix.
fn util_sample(now: f64, frags: &[FragSlot], machine: &Machine) -> UtilSample {
    let running = frags
        .iter()
        .filter_map(|f| match &f.status {
            FragStatus::Running(ctx) => Some(RunningInfo {
                task: f.profile.id,
                workers: ctx.target_parallelism.load(Ordering::Relaxed),
                backends: ctx.backends.load(Ordering::Relaxed),
                profile: f.profile.clone(),
            }),
            _ => None,
        })
        .collect();
    UtilSample {
        now,
        running,
        disk: machine.disk_class_total(),
        cpu_busy: machine.cpu_busy_secs(),
        reads: machine.reads(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Stop the run: tell every running fragment's workers to drain, release
/// every grant still held, then run the backends down so no thread
/// outlives the error.
///
/// Grant release here is load-bearing: a [`xprs_storage::ShardReservation`]
/// has no `Drop`, so an error path that abandoned the slot would shrink
/// the — possibly shared, possibly service-lifetime — pool forever.
fn drain(
    frags: &mut [FragSlot],
    backends: &Backends<'_>,
    machine: &Machine,
    admission: &mut Admission,
) {
    for f in frags.iter_mut() {
        if let FragStatus::Running(ctx) = &f.status {
            ctx.aborted.store(true, Ordering::Relaxed);
        }
        if let Some(grant) = f.grant.take() {
            admission.released_pages += grant.pages();
            if let Some(pool) = machine.pool() {
                pool.release(grant);
            }
        }
    }
    backends.shutdown(frags);
}

/// A fragment's unit space before it is wrapped in a partition: heap pages
/// or an inclusive key interval.
enum UnitSpace {
    Pages(u64),
    Keys { lo: i64, hi: i64 },
}

impl UnitSpace {
    fn total(&self) -> u64 {
        match *self {
            UnitSpace::Pages(n) => n,
            UnitSpace::Keys { lo, hi } => {
                if hi < lo {
                    0
                } else {
                    (hi - lo + 1) as u64
                }
            }
        }
    }

    /// Key that unit offset 0 maps to (0 for page scans).
    fn base(&self) -> i64 {
        match *self {
            UnitSpace::Pages(_) => 0,
            UnitSpace::Keys { lo, .. } => lo,
        }
    }
}

/// Backends that realize the rate the policy planned for `x` processors.
///
/// The policy's `C_i·x` arithmetic takes each processor to sustain the
/// rate `C_i` the fragment was profiled at — one backend, solo reads at
/// `1/seq_bw`. A read of a parallel scan is served at `1/almost_seq_bw`
/// instead, so a page spends `1/C_i + δ` in a backend's hands with
/// `δ = 1/almost_seq_bw − 1/seq_bw`, and by Little's law holding the
/// planned `λ = C_i·x` takes `λ·(1/C_i + δ) = x·(1 + C_i·δ)` pages in
/// flight. A backend keeps one page of read-ahead (`worker.rs`), so it
/// carries up to two requests and the formula is a *lower bound* on the
/// requests in flight, not their count: the second request only hides the
/// page's CPU behind its read, it does not shorten the read, and an
/// IO-bound page is nearly all read. Measured with read-ahead on
/// (`disk_mix`, seed 104, alternating, `latency_p50_ms`): `backends = x`
/// for every fragment 2182 / 2196 ms, this staffing 1979 / 1966 ms (the
/// prototype that sized the change: 2271 / 2181 vs 2107 / 2007) — it still
/// buys 7–10 %, so it stays (`docs/results/readahead.md` §5). A
/// backend blocked on a disk holds no processor, and the CPU gate admits
/// `n_procs` computing backends however many exist, so the surplus costs
/// threads, not processors.
///
/// `x = 1` keeps its solo stream, and `Random` fragments are profiled at
/// the service time they run at (`δ = 0`). No backend is staffed without a
/// whole morsel of `morsel_units` to itself — a fragment of a few dozen
/// pages finishes before extra backends have woken — but never fewer than
/// `x`. `C_i` is taken at most `seq_bw`: no backend issues faster than a
/// solo stream.
fn staff_backends(
    x: u32,
    profile: &TaskProfile,
    machine: &MachineConfig,
    units: u64,
    morsel_units: u64,
) -> u32 {
    if x < 2 || profile.io_kind != IoKind::Sequential {
        return x;
    }
    let delta = 1.0 / machine.almost_seq_bw - 1.0 / machine.seq_bw;
    let by_rate = (f64::from(x) * (1.0 + profile.io_rate.min(machine.seq_bw) * delta)).ceil();
    let whole_morsels = u32::try_from(units.div_ceil(morsel_units.max(1))).unwrap_or(u32::MAX);
    x.max((by_rate as u32).min(whole_morsels))
}

/// Rows one backend may buffer before cutting a spill run, so that
/// `backends` of them together stay inside the fragment's grant.
fn spill_threshold(grant_bytes: u64, backends: u32, row_bytes: usize) -> usize {
    (grant_bytes / (u64::from(backends.max(1)) * row_bytes.max(1) as u64)).max(1) as usize
}

/// Compute the withheld heavy-hitter output of a key-domain merge fragment
/// on the worker pool.
///
/// For each hot key the *outer* (first `MergeWith`) side's matching rows
/// split into up to `ways` contiguous chunks; every chunk becomes one
/// scatter-gather task that crosses its rows with the replicated inner
/// sides (shared `Arc`s — replication in shared memory, no copy). A task
/// emits rows in exactly the worker pipeline's nesting order (outer
/// position, then inner positions), and chunks are returned in (key, chunk)
/// order, so concatenating them reproduces byte-for-byte what the single
/// worker owning the key's unit would have emitted.
fn hot_key_fanout(
    ctx: &FragCtx,
    backends: &Backends<'_>,
    ways: usize,
) -> Vec<Vec<(i32, Tuple)>> {
    let deps: Vec<Arc<Materialized>> = ctx
        .program
        .ops
        .iter()
        .map(|op| ctx.inputs[&op.dep().expect("hot fan-out over MergeWith ops")].clone())
        .collect();
    let (outer, inners) = deps.split_first().expect("hot fan-out needs at least one dep");
    let mut tasks: Vec<MergeTask> = Vec::new();
    for &key in &ctx.hot_keys {
        let rows: Vec<Tuple> = outer.matches(key).cloned().collect();
        if rows.is_empty() {
            continue;
        }
        let chunk_rows = rows.len().div_ceil(ways.max(1));
        let mut rows = rows.into_iter().peekable();
        while rows.peek().is_some() {
            let chunk: Vec<Tuple> = rows.by_ref().take(chunk_rows).collect();
            let inners = inners.to_vec();
            tasks.push(Box::new(move || {
                let mut out = Vec::new();
                for t in &chunk {
                    hot_cross(key, Tuple::from_values(vec![]).join(t), &inners, &mut out);
                }
                out
            }) as MergeTask);
        }
    }
    if tasks.is_empty() {
        return Vec::new();
    }
    backends.pool.scatter_gather(tasks)
}

/// Inner loops of the hot-key cross product, mirroring the worker
/// pipeline's `MergeWith` recursion: one nested loop per remaining input,
/// joining in input order, emitting at the leaves.
fn hot_cross(key: i32, row: Tuple, inners: &[Arc<Materialized>], out: &mut Vec<(i32, Tuple)>) {
    match inners.split_first() {
        None => out.push((key, row)),
        Some((next, rest)) => {
            for m in next.matches(key) {
                hot_cross(key, row.join(m), rest, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The patrol-starvation regression: a sender flooding the channel
    /// faster than the patrol interval must NOT postpone the patrol tick.
    /// The old `recv_timeout(patrol_ms)` restarted its timer on every
    /// message, so `Ok(None)` never surfaced under continuous load; the
    /// deadline form returns it as soon as the deadline passes.
    #[test]
    fn patrol_deadline_fires_under_a_continuous_message_flood() {
        let (tx, rx) = channel::<MasterMsg>();
        let stop = Arc::new(AtomicU32::new(0));
        let flooder = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    if tx.send(MasterMsg::FragmentDone(usize::MAX)).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let mut messages = 0u64;
        let mut patrolled = false;
        // Far more iterations than messages can arrive in 20ms; the loop
        // exits via the deadline, not by draining the flood.
        for _ in 0..200_000 {
            match next_msg(&rx, deadline) {
                Ok(Some(_)) => messages += 1,
                Ok(None) => {
                    patrolled = true;
                    break;
                }
                Err(()) => panic!("flooder hung up early"),
            }
        }
        stop.store(1, Ordering::Relaxed);
        flooder.join().unwrap();
        assert!(patrolled, "patrol deadline starved by a chatty channel");
        assert!(messages >= 1, "flood never actually reached the master");
    }

    #[test]
    fn backends_follow_littles_law_within_their_bounds() {
        let m = MachineConfig::paper_default();
        let scan = |c: f64| TaskProfile::new(TaskId(1), 10.0, c, IoKind::Sequential);
        let big = 4_000; // pages: whole morsels for any staffing below
        // (x, profile, units) → backends.
        let table = [
            // δ = 1/60 − 1/97: an IO-bound scan at C = 83 needs 2·1.53 → 4
            // backends to hold 166 io/s; a CPU-bound one at C = 11, 8·1.07 → 9.
            (2, scan(83.0), big, 4),
            (8, scan(11.0), big, 9),
            (3, scan(70.0), big, 5),
            // One processor keeps its solo sequential stream.
            (1, scan(83.0), big, 1),
            // Random fragments are profiled at the service time they run at.
            (4, TaskProfile::new(TaskId(1), 10.0, 30.0, IoKind::Random), big, 4),
            // 24 pages are two 16-page morsels: no third backend.
            (2, scan(83.0), 24, 2),
            // The cap never takes a backend away from the policy's x.
            (8, scan(11.0), 24, 8),
            (2, scan(83.0), 0, 2),
            // A rate no solo stream can issue counts as the solo rate.
            (2, scan(5_000.0), big, 4),
        ];
        for (x, profile, units, want) in table {
            let got = staff_backends(x, &profile, &m, units, 16);
            assert_eq!(got, want, "x={x} C={} units={units}", profile.io_rate);
            assert!(got >= x, "never below the policy's processors");
        }
        // A machine whose parallel reads cost what solo reads do has δ = 0.
        let flat = MachineConfig { almost_seq_bw: 97.0, random_bw: 35.0, ..m };
        assert_eq!(staff_backends(4, &scan(83.0), &flat, big, 16), 4);
    }

    #[test]
    fn spill_threshold_keeps_all_backends_inside_the_grant() {
        for (grant, backends, row) in [(24 * 8192u64, 4u32, 100usize), (8192, 13, 812), (1, 3, 64)] {
            let rows = spill_threshold(grant, backends, row) as u64;
            assert!(rows >= 1);
            assert!(rows == 1 || rows * u64::from(backends) * row as u64 <= grant);
        }
    }

    #[test]
    fn duplicate_completion_is_a_typed_error_not_a_panic() {
        // A second FragmentDone for an already-finalized fragment used to
        // panic the master; now it is SchedError::DuplicateCompletion.
        let mut status = FragStatus::Done;
        let err = take_running(&mut status, TaskId(3)).err().expect("dup must surface");
        assert_eq!(err, SchedError::DuplicateCompletion { task: TaskId(3) });
        assert!(matches!(status, FragStatus::Done), "status must stay Done");
    }

    #[test]
    fn completion_for_a_never_started_fragment_is_not_running() {
        let mut status = FragStatus::Ready;
        let err = take_running(&mut status, TaskId(4)).err().expect("must surface");
        assert_eq!(err, SchedError::NotRunning { task: TaskId(4) });
        assert!(matches!(status, FragStatus::Ready), "status must be restored");
    }
}

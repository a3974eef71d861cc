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


use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use xprs_scheduler::error::SchedError;
use xprs_scheduler::policy::{
    decide_fixpoint, round_parallelism, Action, RunningTask, SchedulePolicy,
};
use xprs_scheduler::trace::{emit, SharedSink, TraceRecord};
use xprs_scheduler::{FragTable, Phase, TaskId, TaskProfile};
use xprs_storage::{Catalog, PAGE_SIZE};

use crate::admission::Admission;
use crate::cancel::CancelToken;
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::io::{lock, Machine};
use crate::obs::{ExecMetrics, FragmentProfile, MergeProfile, QueryProfile, RunningInfo, UtilSample};
use crate::patrol::{next_msg, Patrol};
use crate::pool::WorkerPool;
use crate::program::{compile, FragmentProgram, Materialized};
pub use crate::report::{ExecReport, QueryResult, QueryRun};
pub use crate::session::ExecSession;
use crate::session::Backends;
use crate::staffing::spill_threshold;
use crate::worker::{FragCtx, RelBinding};

/// A control-path failure from the decide path, before it is annotated
/// with the run's completion progress.
pub(crate) enum ControlFail {
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
    /// All units of the fragment (by global index) are done and every
    /// worker has flushed.
    FragmentDone(usize),
    /// A worker hit something no run survives: it panicked, a read failed
    /// after every bounded retry, or a merge-indexed probe found no index.
    Fatal(ExecError),
}

/// What the master keeps per fragment beside its lifecycle state (which is
/// the [`FragTable`]'s): the compiled program, the profiles, and the
/// completion-time captures for the report.
pub(crate) struct FragSlot {
    pub profile: TaskProfile,
    pub program: FragmentProgram,
    pub bindings: Vec<RelBinding>,
    /// Global indices of producer fragments.
    pub deps: Vec<usize>,
    /// Per-query-local index of each producer (pipeline ops refer to these).
    pub local_deps: Vec<usize>,
    pub output: Option<Arc<Materialized>>,
    /// Which query's fragment this is, its start and finish times, and the
    /// completion-time captures — the report's per-fragment profile, filled
    /// in as the fragment goes (`declared_pages` at the very end: a
    /// prediction may still replace `profile`).
    pub prof: FragmentProfile,
    /// Completion-time spill captures.
    spill_chunks: u64,
    spill_rows: u64,
    /// The optimizer's profile as declared, before any predictor
    /// substitution — the cold-start prior and the baseline every
    /// observation is normalized against. `profile` above is what the
    /// policy and admission actually consume (predicted, when a warm
    /// model exists).
    pub declared: TaskProfile,
    /// Fragments running when this one was announced — the interference
    /// regressor, captured at the same point the prediction was queried so
    /// training and inference see the same covariate.
    pub co_runners: u32,
    /// Patrol recovery count when the fragment was announced; a delta at
    /// completion means a worker died mid-run and the measured profile is
    /// truncated/distorted — it must not train the predictor.
    recoveries_at_start: u64,
}

impl FragSlot {
    /// Pages the fragment holds while it runs, as the policy saw them.
    pub fn declared_pages(&self) -> u64 {
        (self.profile.memory / PAGE_SIZE as f64).ceil() as u64
    }
}

/// The multi-threaded XPRS executor.
pub struct Executor {
    pub(crate) cfg: ExecConfig,
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) sink: Option<SharedSink>,
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
    /// Returns [`ExecError`] if the configuration is refused
    /// ([`ExecError::InvalidConfig`]), a worker panics, the completion
    /// channel dies, a fragment references an unknown relation, a compiled
    /// program disagrees with the optimizer's fragment decomposition
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
    ///
    /// This cannot fail, so a configuration [`Executor::run`] would refuse
    /// yields a session that refuses every run with that same
    /// [`ExecError::InvalidConfig`] (over a stand-in machine nobody runs on).
    pub fn session(&self) -> ExecSession {
        let invalid = self.cfg.validate().err();
        let stand_in = ExecConfig::unthrottled();
        let cfg = if invalid.is_none() { &self.cfg } else { &stand_in };
        let mut machine = Machine::with_sharded_pool(
            &cfg.machine,
            cfg.scale,
            cfg.bufpool_pages,
            cfg.bufpool_shards.max(1),
        );
        if let Some(plan) = &cfg.faults {
            machine = machine.with_faults(plan.clone());
        }
        let metrics =
            (cfg.obs || cfg.metrics_out.is_some()).then(|| Arc::new(ExecMetrics::default()));
        if let Some(m) = &metrics {
            machine = machine.with_metrics(m.clone());
        }
        ExecSession {
            machine: Arc::new(machine),
            pool: WorkerPool::new(cfg.machine.n_procs as usize),
            metrics,
            invalid,
        }
    }

    fn run_inner(
        &self,
        queries: &[QueryRun],
        policy: &mut dyn SchedulePolicy,
        tokens: &[CancelToken],
        session: Option<&ExecSession>,
    ) -> Result<ExecReport, ExecError> {
        self.cfg.validate()?;
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
        if let Some(refused) = &session.invalid {
            return Err(refused.clone());
        }
        let mut run = MasterRun::new(self, session, shared, tokens, queries.len());
        run.build(queries)?;
        emit(&self.sink, || TraceRecord::RunStart {
            driver: "executor".to_string(),
            policy: policy.name().to_string(),
            machine: self.cfg.machine.clone(),
        });
        // Nothing is running yet, so the prediction's interference
        // covariate is zero for every root.
        for gid in run.table.release_roots() {
            run.announce(policy, gid, 0);
        }
        run.settle(policy)?;
        while !run.table.all_done() {
            run.poll_cancels(policy);
            if run.table.all_done() {
                break;
            }
            match run.next_msg() {
                Ok(Some(MasterMsg::FragmentDone(gid))) => run.on_done(policy, gid)?,
                Ok(Some(MasterMsg::Fatal(e))) => return Err(run.abort(e)),
                Ok(None) => run.on_tick(policy)?,
                Err(()) => {
                    let (completed, total) = (run.table.count(Phase::Done), run.table.len());
                    return Err(run.abort(ExecError::ChannelClosed { completed, total }));
                }
            }
        }
        run.report()
    }
}

/// Counts a run against the machine for the patrol's cross-run contention
/// attribution; the decrement happens on *every* exit path (a leak would
/// permanently inflate a shared session's interference factor).
struct RunGuard(Arc<Machine>);

impl RunGuard {
    fn new(machine: Arc<Machine>) -> Self {
        machine.run_started();
        RunGuard(machine)
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.0.run_finished();
    }
}

/// One run of the master loop: everything `run_inner` used to thread
/// through its helpers. The policy alone stays outside — the decide
/// fixpoint borrows it beside this state.
struct MasterRun<'a> {
    exec: &'a Executor,
    tokens: &'a [CancelToken],
    machine: Arc<Machine>,
    metrics: Option<Arc<ExecMetrics>>,
    backends: Backends<'a>,
    tx: Sender<MasterMsg>,
    rx: Receiver<MasterMsg>,
    t0: Instant,
    /// `slots[gid]` and the table's fragment `gid` are the same fragment.
    slots: Vec<FragSlot>,
    /// The lifecycle of every fragment; a running one holds its context.
    table: FragTable<Arc<FragCtx>>,
    /// Which running fragments hold a memory grant and which are parked
    /// waiting for one (Running in the table, unstaffed).
    admission: Admission<'a>,
    cancelled_q: Vec<bool>,
    /// A token is "spent" once observed fired; it is polled no further.
    token_spent: Vec<bool>,
    /// Utilization samples bracket every window during which the set of
    /// running fragments — the pairing — was constant: one sample after
    /// each applied decision, one at run end.
    samples: Vec<UtilSample>,
    patrol: Patrol,
    footprint_overruns: u64,
    footprint_warnings: Vec<String>,
    _guard: RunGuard,
}

impl<'a> MasterRun<'a> {
    fn new(
        exec: &'a Executor,
        session: &'a ExecSession,
        shared: bool,
        tokens: &'a [CancelToken],
        n_queries: usize,
    ) -> Self {
        let machine = session.machine.clone();
        let (tx, rx) = channel::<MasterMsg>();
        MasterRun {
            exec,
            tokens,
            metrics: session.metrics.clone(),
            backends: Backends::new(&session.pool, shared),
            tx,
            rx,
            t0: Instant::now(),
            slots: Vec::new(),
            table: FragTable::new(),
            admission: Admission::new(session.machine.pool()),
            cancelled_q: vec![false; n_queries],
            token_spent: vec![false; tokens.len()],
            samples: Vec::new(),
            patrol: Patrol::new(&exec.cfg, machine.observed_service()),
            footprint_overruns: 0,
            footprint_warnings: Vec::new(),
            _guard: RunGuard::new(machine.clone()),
            machine,
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Build the global fragment table: every query's compiled programs,
    /// with dependencies re-based onto the run-wide index space.
    fn build(&mut self, queries: &[QueryRun]) -> Result<(), ExecError> {
        for (qi, q) in queries.iter().enumerate() {
            let ps = compile(&q.optimized.plan);
            let fs = &q.optimized.fragments;
            // Compiler/optimizer agreement is checked up front: the same
            // sorted per-fragment dependency lists on both sides. A
            // mismatched plan arrives from outside this crate (hand-built
            // OptimizedQuery, version skew), so it is a typed refusal, not
            // a master panic.
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
                emit(&self.exec.sink, || TraceRecord::Error { now: 0.0, message: err.to_string() });
                self.backends.shutdown(&self.table);
                return Err(err);
            }
            let base = self.slots.len();
            let n = ps.programs.len();
            for (fi, program) in ps.programs.into_iter().enumerate() {
                let mut profile = fs.fragments[fi].profile.clone();
                profile.id = TaskId((qi as u64) << 32 | fi as u64);
                let deps: Vec<usize> = program.deps.iter().map(|d| base + d).collect();
                self.table.add(profile.id, &deps);
                self.slots.push(FragSlot {
                    prof: FragmentProfile {
                        task: profile.id,
                        query: qi,
                        is_root: fi == n - 1,
                        ..FragmentProfile::default()
                    },
                    declared: profile.clone(),
                    profile,
                    local_deps: program.deps.clone(),
                    deps,
                    program,
                    bindings: q.bindings.clone(),
                    output: None,
                    spill_chunks: 0,
                    spill_rows: 0,
                    co_runners: 0,
                    recoveries_at_start: 0,
                });
            }
        }
        Ok(())
    }

    /// Fragment `gid` just became `Ready`: substitute its predicted profile
    /// and tell the policy it arrived.
    fn announce(&mut self, policy: &mut dyn SchedulePolicy, gid: usize, co_runners: u32) {
        let t = self.now();
        let slot = &mut self.slots[gid];
        slot.recoveries_at_start = self.patrol.recoveries;
        self.exec.apply_prediction(slot, t, co_runners, &self.metrics);
        let profile = slot.profile.clone();
        emit(&self.exec.sink, || TraceRecord::Arrival { now: t, profile: profile.clone() });
        policy.on_arrival(t, profile);
    }

    /// A control-path failure: record it, drain every worker, release every
    /// held grant, and hand back the typed error with the completion
    /// progress attached.
    fn fail(&mut self, e: ControlFail) -> ExecError {
        let exec = e.into_exec(self.table.count(Phase::Done), self.table.len());
        let now = self.now();
        emit(&self.exec.sink, || TraceRecord::Error { now, message: exec.to_string() });
        self.drain();
        exec
    }

    /// Stop the run on a failure the policy had no part in.
    fn abort(&mut self, fatal: ExecError) -> ExecError {
        self.drain();
        fatal
    }

    /// Stop the run: tell every running fragment's workers to drain,
    /// release every grant still held, then run the backends down so no
    /// thread outlives the error.
    fn drain(&mut self) {
        for (_, ctx) in self.table.iter_running() {
            ctx.aborted.store(true, Ordering::Relaxed);
        }
        self.admission.release_all();
        self.backends.shutdown(&self.table);
    }

    /// Let the policy decide to a fixpoint, make sure something still runs,
    /// and close the utilization window the decision ended.
    fn settle(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), ExecError> {
        let settled = self
            .decide(policy)
            .and_then(|()| Ok(self.table.wedge_check(policy.name())?));
        match settled {
            Ok(()) => {
                self.samples.push(self.util_sample());
                Ok(())
            }
            Err(e) => Err(self.fail(e)),
        }
    }

    fn decide(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), ControlFail> {
        let (exec, now) = (self.exec, self.now());
        decide_fixpoint(policy, &exec.sink, now, self, |run| run.snapshot(), |run, a| run.apply(a))
    }

    fn snapshot(&self) -> Vec<RunningTask> {
        self.table
            .iter_running()
            .map(|(gid, ctx)| {
                let profile = self.slots[gid].profile.clone();
                let total = ctx.total_units.max(1) as f64;
                let done = ctx.units_done.load(Ordering::Relaxed) as f64;
                RunningTask {
                    parallelism: ctx.target_parallelism.load(Ordering::Relaxed) as f64,
                    remaining_seq_time: profile.seq_time * (1.0 - done / total).max(0.0),
                    profile,
                }
            })
            .collect()
    }

    fn apply(&mut self, a: &Action) -> Result<bool, ControlFail> {
        let gid = self.table.lookup(a.task())?;
        // Actions aimed at a cancelled query are stale by construction —
        // the policy decided before digesting its finish events — so they
        // are dropped, not indicted.
        if self.cancelled_q[self.slots[gid].prof.query] {
            return Ok(false);
        }
        match a {
            Action::Start { .. } => self.start_fragment(gid, a.parallelism())?,
            Action::Adjust { .. } => self.adjust_fragment(gid, a.parallelism())?,
        }
        Ok(true)
    }

    fn staff(&self, ctx: &Arc<FragCtx>, slot: usize) {
        self.backends.staff(ctx, slot, &self.machine, &self.exec.catalog);
    }

    /// Staff every backend of a fragment that was just admitted.
    fn staff_all(&self, ctx: &Arc<FragCtx>) {
        for slot in 0..ctx.backends.load(Ordering::Relaxed) as usize {
            self.staff(ctx, slot);
        }
    }

    fn start_fragment(&mut self, gid: usize, parallelism: f64) -> Result<(), ControlFail> {
        let x = round_parallelism(parallelism, self.exec.cfg.machine.n_procs) as u32;
        let (exec, slots, machine, tx) = (self.exec, &self.slots, &self.machine, &self.tx);
        self.table.start(gid, || exec.fragment_ctx(slots, gid, x, machine, tx))?;
        let ctx = self.table.running(gid)?.clone();
        self.slots[gid].prof.started_at = self.now();

        if ctx.total_units == 0 {
            // Nothing to scan (empty relation or empty key intersection):
            // complete immediately through the normal channel.
            if !ctx.done.swap(true, Ordering::SeqCst) {
                let _ = self.tx.send(MasterMsg::FragmentDone(gid));
            }
            return Ok(());
        }
        // Memory admission: the fragment must be granted the pages it
        // holds before it is staffed. Over-committed, it stays Running (so
        // the policy and the wedge detector account for it) and unstaffed
        // until `retry_admission`.
        if self.admission.admit(gid, ctx.demand_pages) {
            self.staff_all(&ctx);
        }
        Ok(())
    }

    /// Capacity may have been released: staff every parked fragment the
    /// ledger can now admit — the one place a parked fragment is staffed.
    fn retry_admission(&mut self) {
        for gid in self.admission.retry() {
            // Parked means Running: a cancel `forget`s the fragment, a drain
            // empties the queue, and no worker exists to report it done.
            let ctx = self.table.running(gid).expect("a parked fragment is Running").clone();
            // The profile clock starts at staffing: the queue wait is
            // admission latency (counted in `mem_grant_waits`), not run
            // time.
            self.slots[gid].prof.started_at = self.now();
            self.staff_all(&ctx);
        }
    }

    fn adjust_fragment(&mut self, gid: usize, parallelism: f64) -> Result<(), SchedError> {
        let ctx = self.table.running(gid)?.clone();
        // Parked in the admission FIFO: nothing is staffed, and staffing
        // `new_slots` here would run the fragment without a grant (and then
        // a second time when its reservation lands). Drop the adjustment;
        // the policy re-decides once the fragment actually runs.
        if self.admission.is_parked(gid) {
            return Ok(());
        }
        self.slots[gid].prof.adjusts += 1;
        let x = round_parallelism(parallelism, self.exec.cfg.machine.n_procs) as u32;
        let n = self.exec.backends_for(x, &self.slots[gid].profile, ctx.total_units);
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
            self.staff(&ctx, slot);
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
            self.staff(&ctx, slot);
        }
        Ok(())
    }

    /// Poll cancellation tokens: each fired token cancels every fragment of
    /// its query exactly once, then the admission FIFO is retried (a
    /// cancelled entry may have been blocking its head).
    fn poll_cancels(&mut self, policy: &mut dyn SchedulePolicy) {
        let mut any_fired = false;
        for qi in 0..self.tokens.len() {
            if !self.token_spent[qi] && self.tokens[qi].is_cancelled() {
                self.token_spent[qi] = true;
                // A token that fires after its query already finished
                // changes nothing: the results stand and the query is not
                // reported cancelled.
                if self.cancel_query(policy, qi) {
                    self.cancelled_q[qi] = true;
                    any_fired = true;
                }
            }
        }
        if any_fired {
            self.retry_admission();
        }
    }

    /// Cancel every fragment of query `qi`.
    ///
    /// Fragments retire according to how far they got: `Blocked` ones were
    /// never announced to the policy and disappear silently; `Ready` and
    /// parked ones retire through the policy's finish protocol (so it
    /// never waits on them); staffed ones have their workers
    /// stopped cooperatively — the flag is observed at unit and morsel
    /// boundaries, every steal slot is revoked so mid-morsel remainders
    /// are never redealt, and the ordinary completion protocol then
    /// releases the grant, pins and partition shares exactly once.
    ///
    /// Returns whether any fragment was actually cut short — `false`
    /// means the query had already finished and its results stand.
    fn cancel_query(&mut self, policy: &mut dyn SchedulePolicy, qi: usize) -> bool {
        let t = self.now();
        let mut affected = false;
        for gid in 0..self.slots.len() {
            if self.slots[gid].prof.query != qi {
                continue;
            }
            if let (Ok(ctx), false) = (self.table.running(gid), self.admission.is_parked(gid)) {
                affected = true;
                // Workers observe the flag at the next unit or morsel
                // boundary; revoking every steal slot stops mid-morsel
                // claims too (the forfeited remainder is never redealt).
                // Finalization then arrives through the ordinary
                // FragmentDone.
                ctx.cancelled.store(true, Ordering::SeqCst);
                ctx.part.revoke_all();
                // The death window: between a worker death and the patrol's
                // replacement, `outstanding` can be 0 with units unfinished
                // — no worker is left to fire the completion. Fire it from
                // here through the same `done` latch; whichever side swaps
                // first sends, so it is exactly-once.
                if ctx.outstanding.load(Ordering::SeqCst) == 0
                    && !ctx.done.swap(true, Ordering::SeqCst)
                {
                    let _ = self.tx.send(MasterMsg::FragmentDone(gid));
                }
                continue;
            }
            // Not staffed — still blocked, announced but unstarted, or
            // parked in the admission FIFO (Running in the policy's eyes,
            // but no worker and no grant): retire it here and now.
            let Some(announce) = self.table.retire(gid) else { continue };
            affected = true;
            self.admission.forget(gid);
            let slot = &mut self.slots[gid];
            slot.prof.finished_at = t;
            if announce {
                let finished = slot.profile.id;
                emit(&self.exec.sink, || TraceRecord::Finish { now: t, task: finished });
                policy.on_finish(t, finished);
            }
        }
        affected
    }

    /// Sleep until the next message, the patrol deadline, or the earliest
    /// pending per-query deadline — whichever comes first. `Ok(None)` is a
    /// deadline wake-up.
    fn next_msg(&self) -> Result<Option<MasterMsg>, ()> {
        let token_deadline = self
            .tokens
            .iter()
            .zip(&self.token_spent)
            .filter(|&(_, &spent)| !spent)
            .filter_map(|(t, _)| t.deadline_instant())
            .min();
        let wake = match (self.patrol.deadline(), token_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        next_msg(&self.rx, wake)
    }

    /// Woken by a deadline. Fired tokens are picked up by `poll_cancels`;
    /// the patrol sweeps only when its own deadline has actually passed:
    /// reap dead workers, then check whether the observed I/O rate has
    /// drifted out of the model's band.
    fn on_tick(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), ExecError> {
        if !self.patrol.tick_due() {
            return Ok(());
        }
        self.patrol.reap(&self.table, &self.backends, &self.machine, &self.exec.catalog);
        // With a shared session, capacity freed by *other* runs sends this
        // run no completion message: retry the admission FIFO on every tick
        // so a parked fragment is never stranded.
        self.retry_admission();
        let Some(corrected) = self.patrol.recalibrate(&self.machine) else { return Ok(()) };
        let t = self.now();
        emit(&self.exec.sink, || TraceRecord::Recalibrate {
            now: t,
            observed_b: corrected.total_bandwidth(),
            modeled_b: self.patrol.model.total_bandwidth(),
            machine: corrected.clone(),
        });
        self.patrol.model = corrected.clone();
        self.patrol.recalibrations += 1;
        policy.recalibrate(t, corrected);
        // The corrected rates may change the balance point: re-enter the
        // policy so running fragments can be adjusted and queued work
        // re-planned.
        self.settle(policy)
    }

    /// Fragment `gid` completed: harvest its context, release its grant,
    /// materialize its output, tell the policy, announce the consumers it
    /// unblocked and re-decide.
    fn on_done(&mut self, policy: &mut dyn SchedulePolicy, gid: usize) -> Result<(), ExecError> {
        let t_done = self.now();
        let (ctx, ready) = match self.table.finish(gid) {
            Ok(done) => done,
            Err(e) => return Err(self.fail(e.into())),
        };
        let was_cancelled = ctx.cancelled.load(Ordering::SeqCst);
        let slot = &mut self.slots[gid];
        slot.prof.units = ctx.units_done.load(Ordering::SeqCst);
        slot.prof.staffed = ctx.staffed.load(Ordering::Relaxed);
        slot.prof.parallelism = ctx.target_parallelism.load(Ordering::Relaxed);
        slot.prof.backends = ctx.backends.load(Ordering::Relaxed);
        slot.prof.heartbeats =
            lock(&ctx.heartbeats).iter().map(|b| b.load(Ordering::Relaxed)).sum();
        if let Some(spec) = &ctx.spill {
            slot.spill_chunks = spec.chunks.load(Ordering::Relaxed);
            slot.spill_rows = spec.rows.load(Ordering::Relaxed);
        }
        slot.prof.observed_pages = ctx.pages_read.load(Ordering::Relaxed);
        let truncated = was_cancelled || self.patrol.recoveries > slot.recoveries_at_start;
        self.exec.observe_completion(slot, &ctx, t_done, truncated);
        // Observed-vs-declared footprint: detection only. The observed
        // count includes pool hits and re-reads after eviction, so it is an
        // upper bound that disk-resident scans overrun routinely; the
        // counter and warning make the drift visible without failing
        // anyone's run.
        let declared = slot.declared_pages();
        if declared > 0 && slot.prof.observed_pages > declared {
            self.footprint_overruns += 1;
            if let Some(m) = &self.metrics {
                m.mem_overruns.inc();
            }
            self.footprint_warnings.push(format!(
                "fragment {}: observed {} pages exceeds declared {} pages",
                slot.profile.id.0, slot.prof.observed_pages, declared
            ));
        }
        // Release the completed fragment's grant, then hand the freed
        // capacity to the admission queue — the deferred fragments are
        // already Running in the policy's eyes, they only lack workers.
        self.admission.release(gid);
        self.retry_admission();
        // A cancelled fragment's partial output is never observable: the
        // query's contract is all rows or none.
        let (rows, merge) = if was_cancelled {
            (Materialized::default(), MergeProfile::default())
        } else {
            self.exec.materialize(&ctx, self.backends.pool, &self.machine)
        };
        let slot = &mut self.slots[gid];
        slot.prof.merge = merge;
        slot.output = Some(Arc::new(rows));
        slot.prof.finished_at = t_done;
        let finished = slot.profile.id;
        emit(&self.exec.sink, || TraceRecord::Finish { now: t_done, task: finished });
        policy.on_finish(t_done, finished);

        let running_now = self.table.count(Phase::Running) as u32;
        for consumer in ready {
            self.announce(policy, consumer, running_now);
        }
        self.settle(policy)
    }

    /// Snapshot the machine's cumulative counters plus the set of running
    /// fragments at a scheduling decision. Consecutive samples bracket a
    /// *pairing window* — the interval over which a fixed task mix ran — so
    /// the [`crate::obs`] auditor can compare measured disk bandwidth and
    /// utilization against the §2.2–2.3 predictions for that mix.
    fn util_sample(&self) -> UtilSample {
        let running = self
            .table
            .iter_running()
            .map(|(gid, ctx)| RunningInfo {
                task: self.slots[gid].profile.id,
                workers: ctx.target_parallelism.load(Ordering::Relaxed),
                backends: ctx.backends.load(Ordering::Relaxed),
                profile: self.slots[gid].profile.clone(),
            })
            .collect();
        UtilSample {
            now: self.now(),
            running,
            disk: self.machine.disk_class_total(),
            cpu_busy: self.machine.cpu_busy_secs(),
            reads: self.machine.reads(),
        }
    }

    /// Every fragment is done: run the backends down and assemble the
    /// report.
    fn report(mut self) -> Result<ExecReport, ExecError> {
        self.backends.shutdown(&self.table);
        let wall = self.now();
        self.samples.push(self.util_sample());
        let (frags, cancelled_q) = (&self.slots, &self.cancelled_q);
        let mut results = Vec::with_capacity(cancelled_q.len());
        for (qi, &was_cancelled) in cancelled_q.iter().enumerate() {
            let root = frags
                .iter()
                .find(|f| f.prof.query == qi && f.prof.is_root)
                .ok_or(ExecError::RootMissing { query: qi })?;
            let rows = match root.output.clone() {
                Some(rows) => rows,
                // A cancelled root retired from Blocked/Ready never
                // materialized anything; its contracted result is empty.
                None if was_cancelled => Arc::new(Materialized::default()),
                None => return Err(ExecError::OutputMissing { query: qi }),
            };
            results.push(QueryResult { rows, finished_at: root.prof.finished_at });
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
                    .filter(|f| f.prof.query == qi)
                    .map(|f| FragmentProfile { declared_pages: f.declared_pages(), ..f.prof.clone() })
                    .collect(),
            })
            .collect();
        let (machine, grants) = (&self.machine, self.admission.totals());
        let report = ExecReport {
            results,
            stats: machine.stats(),
            pool_shards: machine.pool_shard_stats(),
            pool_pinned_at_exit: machine.pool_pinned(),
            wall,
            fragment_times: frags
                .iter()
                .map(|f| (f.profile.id, f.prof.started_at, f.prof.finished_at))
                .collect(),
            pool_threads: self.backends.pool.threads_spawned(),
            pool_jobs: self.backends.staffed.load(Ordering::Relaxed),
            worker_recoveries: self.patrol.recoveries,
            recalibrations: self.patrol.recalibrations,
            machine: self.exec.cfg.machine.clone(),
            scale: self.exec.cfg.scale,
            disk_classes: machine.disk_class_stats(),
            cpu_busy: machine.cpu_busy_secs(),
            adjusts: frags.iter().map(|f| f.prof.adjusts).sum(),
            heartbeats: frags.iter().map(|f| f.prof.heartbeats).sum(),
            patrol_ticks: self.patrol.ticks,
            mem_granted_pages: grants.granted_pages,
            mem_released_pages: grants.released_pages,
            mem_grant_waits: grants.waits,
            spill_chunks: frags.iter().map(|f| f.spill_chunks).sum(),
            spill_rows: frags.iter().map(|f| f.spill_rows).sum(),
            profiles,
            samples: self.samples,
            metrics: self.metrics,
            cancelled: self.cancelled_q,
            footprint_overruns: self.footprint_overruns,
            footprint_warnings: self.footprint_warnings,
        };
        if let Some(path) = &self.exec.cfg.metrics_out {
            std::fs::write(path, report.metrics_json()).map_err(|e| {
                ExecError::MetricsDump { path: path.display().to_string(), error: e.to_string() }
            })?;
        }
        Ok(report)
    }
}

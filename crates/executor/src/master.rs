//! The master backend: runs queries under a scheduling policy.
//!
//! The master owns the clock and the policy. For every optimized query it
//! takes the fragment programs the optimizer cut, announces runnable
//! fragments to the policy as they become ready (roots first, consumers as
//! their producers finish), applies `Start` actions by staffing slave-backend
//! worker slots on the persistent [`WorkerPool`], and applies `Adjust`
//! actions by adjusting the fragment's shared
//! [`StealPartition`](crate::StealPartition) (the Section 2.4 protocols'
//! contract) and staffing any newly created worker slots. Staffing is a queue
//! push that unparks a long-lived pool thread — no OS thread is spawned or
//! joined per slot.
//!
//! A fragment ends in two steps. When its last worker is out, the master
//! materializes its output at once. It marks the fragment done — finish
//! time, predictor observation, grant release, lifecycle transition, the
//! policy's finish event and the re-decide — only once the modelled end the
//! leaving backends reserved has passed. Until then the fragment waits in
//! the master loop's deadline, beside the patrol tick, so the master still
//! serves other fragments, deaths and cancels.


use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_optimizer::program::{Driver, FragmentProgram, PipelineOp};
use xprs_scheduler::error::SchedError;
use xprs_scheduler::policy::{
    decide_fixpoint, round_parallelism, Action, RunningTask, SchedulePolicy,
};
use xprs_scheduler::trace::{emit, SharedSink, TraceRecord};
use xprs_scheduler::{FragTable, Phase, TaskId, TaskProfile};
use xprs_storage::{lock, Catalog, PAGE_SIZE};

use crate::admission::Admission;
use crate::cancel::CancelToken;
use crate::config::ExecConfig;
use crate::error::ExecError;
use crate::io::Machine;
use crate::obs::{FragmentProfile, MergeProfile, QueryProfile, RunningInfo, UtilSample};
use crate::patrol::{next_msg, Patrol};
use crate::pool::WorkerPool;
use crate::program::Materialized;
pub use crate::report::{ExecReport, QueryResult, QueryRun};
pub use crate::session::ExecSession;
use crate::session::staff;
use crate::staffing::spill_threshold;
use crate::worker::{FragCtx, RelBinding};

/// How long a run's quiesce waits for its last job to leave the pool
/// before it gives up on a wedged worker.
const QUIESCE_CAP: Duration = Duration::from_secs(30);

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
    /// worker has flushed; its modelled end may still lie ahead.
    FragmentDone(usize),
    /// A worker hit something no run survives: it panicked, a read failed
    /// after every bounded retry, or a merge-indexed probe found no index.
    Fatal(ExecError),
    /// A worker of fragment `gid` died; its job moved the unclaimed work to
    /// the `replacement` slot, if any. The job left the fragment's
    /// completion count to the master (see `MasterRun::on_lost`).
    WorkerLost { gid: usize, replacement: Option<usize> },
}

/// What the master keeps per fragment beside its lifecycle state (which is
/// the [`FragTable`]'s): the optimizer's program, the profiles, and the
/// completion-time captures for the report.
pub(crate) struct FragSlot {
    pub profile: TaskProfile,
    pub program: FragmentProgram,
    pub bindings: Vec<RelBinding>,
    /// Global indices of producer fragments, in the order the program's
    /// ops read them (the ops name their query-local indices).
    pub deps: Vec<usize>,
    pub output: Option<Arc<Materialized>>,
    /// Which query's fragment this is, its start and finish times, and the
    /// completion-time captures — the report's per-fragment profile, filled
    /// in as the fragment goes (`declared_pages` at the very end: a
    /// prediction may still replace `profile`).
    pub prof: FragmentProfile,
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
}

impl FragSlot {
    /// Pages the fragment holds while it runs, as the policy saw them.
    pub fn declared_pages(&self) -> u64 {
        (self.profile.memory / PAGE_SIZE as f64).ceil() as u64
    }
}

/// Whether fragment `fi` of a query that binds `n_rels` relations reads
/// only fragments emitted before it and only relations the query binds. A
/// key-domain walk must read at least one fragment: its domain is their key
/// ranges' intersection.
fn well_formed(program: &FragmentProgram, fi: usize, n_rels: usize) -> bool {
    let driver = match program.driver {
        Driver::PageScan { rel } | Driver::KeyScan { rel } => rel < n_rels,
        Driver::KeyDomain => program.deps().next().is_some(),
    };
    driver
        && program.ops.iter().all(|op| match *op {
            PipelineOp::MergeIndexed { rel } => rel < n_rels,
            PipelineOp::ProbeHash { dep }
            | PipelineOp::MergeWith { dep }
            | PipelineOp::NestInner { dep } => dep < fi,
        })
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
    /// ([`ExecError::InvalidConfig`]), a worker panics, a fragment
    /// references a relation the catalog lacks, a fragment
    /// program is malformed ([`ExecError::MalformedFragment`] — the run
    /// refuses to start), or the policy misbehaves (wedges, diverges,
    /// double-starts or double-completes a fragment, references an unknown
    /// task). Remaining
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
    /// `queries[i]` (an empty slice means no query is cancellable). A run
    /// with tokens ticks its patrol, so the master polls them on every tick
    /// as well as between messages: a fired or expired token is seen at the
    /// next message or patrol tick. Its fragments stop at the next unit
    /// boundary, release their grant, pins and partition shares exactly
    /// once through the ordinary completion protocol, and the query reports
    /// an empty result with `report.profiles[i].cancelled` set.
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
        ExecSession {
            machine: Arc::new(machine),
            pool: WorkerPool::new(cfg.machine.n_procs as usize),
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
        policy.set_trace_sink(self.sink.clone());
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
            // The master wakes for one of two reasons: a worker message,
            // or a deadline — its patrol tick or a fragment's modelled end.
            match next_msg(&run.rx, run.deadline(), &**run.machine.clock()) {
                Some(MasterMsg::FragmentDone(gid)) => run.on_done(policy, gid)?,
                Some(MasterMsg::WorkerLost { gid, replacement }) => run.on_lost(gid, replacement)?,
                Some(MasterMsg::Fatal(e)) => {
                    // A failure the policy had no part in.
                    run.drain();
                    return Err(e);
                }
                None => run.on_deadline(policy)?,
            }
        }
        run.report()
    }
}

/// One run of the master loop: everything `run_inner` used to thread
/// through its helpers. The policy alone stays outside — the decide
/// fixpoint borrows it beside this state.
struct MasterRun<'a> {
    exec: &'a Executor,
    tokens: &'a [CancelToken],
    machine: Arc<Machine>,
    /// The worker pool slots are staffed onto: the run's own, or a shared
    /// session's.
    pool: &'a WorkerPool,
    /// The master's own sender: it keeps the channel open for the whole
    /// loop, so a receive never disconnects. [`MasterRun::quiesce`] drops
    /// it.
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
    /// Fragments whose last worker is out and whose output is
    /// materialized, each with the modelled end it waits for: still
    /// Running, holding their grants, until the end has passed.
    ending: Vec<(Instant, usize)>,
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
        // The one tick rule: the master wakes on a timer only when the run
        // can change without a message reaching it — a fault plan may slow
        // the disks (recalibration), another run may free the shared pool (a
        // session), or a client may fire a token.
        let ticking = exec.cfg.faults.is_some() || shared || !tokens.is_empty();
        let start = ticking.then(|| machine.clock().now());
        MasterRun {
            exec,
            tokens,
            pool: &session.pool,
            tx,
            rx,
            t0: machine.clock().now(),
            slots: Vec::new(),
            table: FragTable::new(),
            admission: Admission::new(session.machine.pool()),
            cancelled_q: vec![false; n_queries],
            token_spent: vec![false; tokens.len()],
            samples: Vec::new(),
            patrol: Patrol::new(&exec.cfg.machine, start, machine.disk_class_total()),
            ending: Vec::new(),
            machine,
        }
    }

    /// When the master must wake with no message: the earlier of the patrol
    /// tick and the earliest modelled end a fragment waits for.
    fn deadline(&self) -> Option<Instant> {
        self.patrol.deadline().into_iter().chain(self.ending.iter().map(|&(end, _)| end)).min()
    }

    fn now(&self) -> f64 {
        self.machine.clock().now().saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Build the global fragment table: every query's fragment programs as
    /// the optimizer cut them, with dependencies re-based onto the run-wide
    /// index space.
    fn build(&mut self, queries: &[QueryRun]) -> Result<(), ExecError> {
        for (qi, q) in queries.iter().enumerate() {
            let fragments = &q.optimized.fragments.fragments;
            // A hand-built `OptimizedQuery` arrives from outside this crate:
            // refuse it before anything runs, not with a master panic.
            if let Some(fragment) = (0..fragments.len())
                .find(|&fi| !well_formed(&fragments[fi].program, fi, q.bindings.len()))
            {
                let err = ExecError::MalformedFragment { query: qi, fragment };
                emit(&self.exec.sink, || TraceRecord::Error { now: 0.0, message: err.to_string() });
                return Err(err);
            }
            let base = self.slots.len();
            for (fi, fragment) in fragments.iter().enumerate() {
                let mut profile = fragment.profile.clone();
                profile.id = TaskId((qi as u64) << 32 | fi as u64);
                let deps: Vec<usize> = fragment.program.deps().map(|d| base + d).collect();
                self.table.add(profile.id, &deps);
                self.slots.push(FragSlot {
                    prof: FragmentProfile {
                        task: profile.id,
                        query: qi,
                        is_root: fi == fragments.len() - 1,
                        ..FragmentProfile::default()
                    },
                    declared: profile.clone(),
                    profile,
                    deps,
                    program: fragment.program.clone(),
                    bindings: q.bindings.clone(),
                    output: None,
                    co_runners: 0,
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
        self.exec.apply_prediction(slot, t, co_runners);
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

    /// Stop the run: tell every running fragment's workers to drain,
    /// release every grant still held, then quiesce so no job of this run
    /// outlives the error.
    fn drain(&mut self) {
        for (_, ctx) in self.table.iter_running() {
            ctx.stop.store(true, Ordering::Relaxed);
        }
        self.admission.release_all();
        self.quiesce();
    }

    /// End the run, private or shared, on success and on every error: drop
    /// the master's own sender and every running fragment's context, then
    /// receive until the channel closes. Every pool job holds its
    /// fragment's context and every context a sender, so the channel closes
    /// exactly when this run's last job has left the pool; a shared
    /// session's threads and other runs' jobs are left alone. The cap turns
    /// a wedged worker on a shared session into a leaked thread instead of
    /// a hung caller (a private run's pool still joins it on drop).
    fn quiesce(&mut self) {
        // Swapping in a sender whose receiver is already gone drops ours.
        self.tx = channel().0;
        self.table = FragTable::new();
        let cap = Some(self.machine.clock().now() + QUIESCE_CAP);
        while next_msg(&self.rx, cap, &**self.machine.clock()).is_some() {}
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
                let done = ctx.part.claimed() as f64;
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

    fn staff(&self, ctx: &Arc<FragCtx>, slot: usize, at: Instant) {
        staff(self.pool, ctx, slot, at, &self.machine, &self.exec.catalog);
    }

    /// Staff every backend of a fragment that was just admitted, all from
    /// one instant.
    fn staff_all(&self, ctx: &Arc<FragCtx>) {
        let at = self.machine.clock().now();
        for slot in 0..ctx.backends.load(Ordering::Relaxed) as usize {
            self.staff(ctx, slot, at);
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
            ctx.complete();
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
        // the policy re-decides once the fragment actually runs. A fragment
        // waiting for its modelled end has every unit claimed (a cancelled
        // one gets no actions), so `adjust` below re-staffs nothing.
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
        let at = self.machine.clock().now();
        for slot in ctx.part.adjust(n).new_slots {
            self.staff(&ctx, slot, at);
        }
        Ok(())
    }

    /// Poll cancellation tokens: each fired token cancels every fragment of
    /// its query exactly once, then the admission FIFO is retried (a
    /// cancelled entry may have been blocking its head).
    fn poll_cancels(&mut self, policy: &mut dyn SchedulePolicy) {
        let mut any_fired = false;
        let now = self.machine.clock().now();
        for qi in 0..self.tokens.len() {
            if !self.token_spent[qi] && self.tokens[qi].is_cancelled(now) {
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
                ctx.stop.store(true, Ordering::SeqCst);
                ctx.part.revoke_all();
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

    /// A deadline passed: finish every fragment whose modelled end is
    /// behind us, then run the patrol if its tick is due.
    fn on_deadline(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), ExecError> {
        let now = self.machine.clock().now();
        while let Some(i) = self.ending.iter().position(|&(end, _)| end <= now) {
            let (_, gid) = self.ending.swap_remove(i);
            self.finish(policy, gid)?;
        }
        if self.patrol.deadline().is_some_and(|tick| tick <= now) {
            self.on_tick(policy)?;
        }
        Ok(())
    }

    /// The patrol's deadline passed: retry admission, then check whether
    /// the observed I/O rate has drifted out of the model's band. Fired
    /// tokens are picked up by `poll_cancels` on the loop's next turn.
    fn on_tick(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), ExecError> {
        self.patrol.tick(self.machine.clock().now());
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

    /// A worker of fragment `gid` died, and its job moved the unclaimed
    /// work to `replacement`: staff it now, then count the lost job's exit.
    /// In that order, a fragment with unclaimed units never sees its last
    /// worker out while a loss is unhandled.
    fn on_lost(&mut self, gid: usize, replacement: Option<usize>) -> Result<(), ExecError> {
        let ctx = match self.table.running(gid) {
            Ok(ctx) => ctx.clone(),
            Err(e) => return Err(self.fail(e.into())),
        };
        if let Some(replacement) = replacement {
            self.staff(&ctx, replacement, self.machine.clock().now());
        }
        ctx.worker_exit();
        Ok(())
    }

    /// Fragment `gid`'s last worker is out: capture its profile and
    /// materialize its output now, then finish it — at once if its modelled
    /// end has passed, else once the loop's deadline reaches that end.
    fn on_done(&mut self, policy: &mut dyn SchedulePolicy, gid: usize) -> Result<(), ExecError> {
        let ctx = match self.table.running(gid) {
            Ok(ctx) => ctx.clone(),
            Err(e) => return Err(self.fail(e.into())),
        };
        let end = self.harvest(gid, &ctx);
        // The clone holds a sender on the run's channel; `finish` re-decides.
        drop(ctx);
        match end.filter(|&end| end > self.machine.clock().now()) {
            Some(end) => {
                self.ending.push((end, gid));
                Ok(())
            }
            None => self.finish(policy, gid),
        }
    }

    /// Capture a fragment's profile once its last worker is out, and
    /// materialize its output — unless its query is cancelled: a cancelled
    /// fragment's partial output is never observable, the query's contract
    /// is all rows or none. Returns the modelled end its backends reserved.
    fn harvest(&mut self, gid: usize, ctx: &FragCtx) -> Option<Instant> {
        let end = *lock(&ctx.model_end);
        let slot = &mut self.slots[gid];
        let was_cancelled = self.cancelled_q[slot.prof.query];
        slot.prof.model_end =
            end.map_or(0.0, |end| end.saturating_duration_since(self.t0).as_secs_f64());
        slot.prof.units = ctx.part.claimed();
        slot.prof.staffed = ctx.staffed.load(Ordering::Relaxed);
        slot.prof.parallelism = ctx.target_parallelism.load(Ordering::Relaxed);
        slot.prof.backends = ctx.backends.load(Ordering::Relaxed);
        slot.prof.heartbeats = slot.prof.staffed + slot.prof.units;
        // A fragment with nothing to scan staffed no backend to count.
        slot.prof.idle_slots = if slot.prof.staffed > 0 { ctx.part.idle_slots() } else { 0 };
        slot.prof.recoveries = ctx.part.recoveries();
        if let Some(spec) = &ctx.spill {
            slot.prof.spill_chunks = spec.chunks.load(Ordering::Relaxed);
            slot.prof.spill_rows = spec.rows.load(Ordering::Relaxed);
        }
        slot.prof.observed_pages = ctx.pages_read.load(Ordering::Relaxed);
        let (rows, merge) = if was_cancelled {
            (Materialized::default(), MergeProfile::default())
        } else {
            self.exec.materialize(ctx, self.pool, &self.machine)
        };
        let slot = &mut self.slots[gid];
        slot.prof.merge = merge;
        slot.output = Some(Arc::new(rows));
        end
    }

    /// Fragment `gid`'s modelled end has passed: mark it done, release its
    /// grant, tell the policy, announce the consumers it unblocked and
    /// re-decide. The context leaves the table here, and with it a sender
    /// on the run's channel: it must be gone before the master re-decides —
    /// a failure there quiesces until every sender is.
    fn finish(&mut self, policy: &mut dyn SchedulePolicy, gid: usize) -> Result<(), ExecError> {
        let t_done = self.now();
        let (ctx, ready) = match self.table.finish(gid) {
            Ok(finished) => finished,
            Err(e) => return Err(self.fail(e.into())),
        };
        let slot = &mut self.slots[gid];
        let was_cancelled = self.cancelled_q[slot.prof.query];
        if was_cancelled {
            // The cancel may have landed after the output was materialized.
            slot.output = Some(Arc::new(Materialized::default()));
        }
        let truncated = was_cancelled || slot.prof.recoveries > 0;
        self.exec.observe_completion(slot, &ctx, t_done, truncated);
        slot.prof.finished_at = t_done;
        drop(ctx);
        // Release the completed fragment's grant, then hand the freed
        // capacity to the admission queue — the deferred fragments are
        // already Running in the policy's eyes, they only lack workers.
        self.admission.release(gid);
        self.retry_admission();
        let finished = self.slots[gid].profile.id;
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

    /// Every fragment is done: quiesce and assemble the report.
    fn report(mut self) -> Result<ExecReport, ExecError> {
        self.quiesce();
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
        let profiles: Vec<QueryProfile> = cancelled_q
            .iter()
            .enumerate()
            .map(|(qi, &cancelled)| QueryProfile {
                cancelled,
                fragments: frags
                    .iter()
                    .filter(|f| f.prof.query == qi)
                    .map(|f| FragmentProfile { declared_pages: f.declared_pages(), ..f.prof.clone() })
                    .collect(),
            })
            .collect();
        let (machine, grants) = (&self.machine, self.admission.totals());
        Ok(ExecReport {
            results,
            stats: machine.stats(),
            pool_shards: machine.pool_shard_stats(),
            pool_pinned_at_exit: machine.pool_pinned(),
            wall,
            pool_threads: self.pool.threads_spawned(),
            pool_jobs: frags.iter().map(|f| f.prof.staffed).sum(),
            worker_recoveries: frags.iter().map(|f| f.prof.recoveries).sum(),
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
            spill_chunks: frags.iter().map(|f| f.prof.spill_chunks).sum(),
            spill_rows: frags.iter().map(|f| f.prof.spill_rows).sum(),
            profiles,
            samples: self.samples,
            metrics: Some(machine.metrics().clone()),
        })
    }
}

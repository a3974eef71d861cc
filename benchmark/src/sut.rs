//! The system under test: every call into the `xprs-*` crates goes through
//! this file, and nothing else in the benchmark names them.
//!
//! The surface is kept narrow on purpose: plain `ExecConfig::unthrottled()`
//! / `ExecConfig::scaled(s)` plus `bufpool_pages`, `ServiceConfig::quick()`
//! with scale, pool, queue and deadlines overridden, and the public report
//! structs. No data-path or morsel-mode switch, no predictor, no merge
//! threshold and no effective-value override is named here, so a later
//! change that deletes those or splits `ExecConfig` either compiles against
//! this file unchanged or fails in this file alone.

use std::sync::Arc;
use std::time::Duration;

use xprs::{PolicyKind, XprsSystem};
use xprs_disk::{DiskParams, DiskState, IoRequest, RelId, ServiceClass, StripedLayout, WorkerId};
use xprs_executor::{
    ExecConfig, ExecError, ExecReport, ExecSession, Executor, Machine, QueryRun, RelBinding,
    StealPartition, WorkerPool,
};
use xprs_optimizer::cost::{CostModel, RelInfo};
use xprs_optimizer::{decompose, Costing, OptimizedQuery, Plan, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::{
    balance_point, Action, MachineConfig, RunningTask, SchedulePolicy, TaskId, TaskProfile,
};
use xprs_service::{QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError, Ticket};
use xprs_storage::{
    merge_runs, split_runs_stats, Catalog, CsrIndex, Datum, Schema, ShardedBufferPool, Tuple,
};
use xprs_workload::{
    generate_arrivals, ArrivalSpec, QueryClass, TenantLoad, WorkloadConfig, WorkloadGenerator,
};

use crate::host::process_cpu_s;

pub use xprs_obs::json::{fnum, jstr, parse as json_parse, JsonValue};
pub use xprs_workload::WorkloadKind;

/// Processors of the modelled machine (the paper's 8-CPU / 4-disk testbed).
pub fn machine_procs() -> u32 {
    MachineConfig::paper_default().n_procs
}

/// Disks of the modelled machine.
pub fn machine_disks() -> u32 {
    MachineConfig::paper_default().n_disks
}

// ---------------------------------------------------------------------------
// Catalog building
// ---------------------------------------------------------------------------

/// A catalog under construction; [`CatalogBuilder::finish`] freezes it.
pub struct CatalogBuilder {
    cat: Catalog,
}

impl CatalogBuilder {
    /// An empty catalog striped over the paper's four disks.
    pub fn new() -> Self {
        CatalogBuilder {
            cat: Catalog::new(StripedLayout::new(machine_disks())),
        }
    }

    /// Create `name(a int4, b text)` and bulk-load `(a, len(b))` rows.
    pub fn load(&mut self, name: &str, rows: impl Iterator<Item = (i32, usize)>) {
        self.cat.create(name, Schema::paper_rel());
        self.cat.load(
            name,
            rows.map(|(a, blen)| {
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            }),
        );
    }

    /// Build the unclustered B-tree on `a`.
    pub fn index(&mut self, name: &str) {
        self.cat.build_index(name, false);
    }

    /// Generate one paper §3 task set and load its ten relations.
    pub fn load_task_set(&mut self, set: &TaskSet) {
        set.generated.load_into(&mut self.cat);
    }

    /// Freeze the catalog for execution.
    pub fn finish(self) -> Db {
        Db {
            cat: Arc::new(self.cat),
        }
    }
}

/// A loaded, immutable catalog.
#[derive(Clone)]
pub struct Db {
    cat: Arc<Catalog>,
}

impl Db {
    /// Heap pages of `name`.
    pub fn n_pages(&self, name: &str) -> u64 {
        self.rel(name).heap.n_blocks()
    }

    /// Tuples of `name`.
    pub fn n_tuples(&self, name: &str) -> u64 {
        self.rel(name).heap.n_tuples()
    }

    fn rel(&self, name: &str) -> &xprs_storage::Relation {
        self.cat
            .get(name)
            .unwrap_or_else(|| panic!("relation {name} not loaded"))
    }

    /// The oracle's view of a relation: every `a` value by direct heap-page
    /// iteration, no executor, pool or partitioning involved.
    pub fn keys(&self, name: &str) -> Vec<i32> {
        let heap = &self.rel(name).heap;
        let mut out = Vec::with_capacity(heap.n_tuples() as usize);
        for b in 0..heap.n_blocks() {
            out.extend(heap.page(b).iter().filter_map(|(_, t)| t.get(0).as_int()));
        }
        out
    }

    /// Heap-scan probe: iterate every page of `name` and count the tuples
    /// whose `a` lies in `[lo, hi]` — the floor under any scan's CPU cost.
    pub fn scan_count(&self, name: &str, lo: i32, hi: i32) -> u64 {
        let heap = &self.rel(name).heap;
        let mut n = 0u64;
        for b in 0..heap.n_blocks() {
            for (_, t) in heap.page(b).iter() {
                if let Some(k) = t.get(0).as_int() {
                    n += u64::from(k >= lo && k <= hi);
                }
            }
        }
        n
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

/// One planned query with its selection ranges.
#[derive(Clone)]
pub struct Planned {
    run: QueryRun,
}

fn bind(name: &str, pred: (i32, i32)) -> RelBinding {
    RelBinding {
        name: name.to_string(),
        pred,
    }
}

/// A two-relation join that keeps every tuple of both sides.
fn unfiltered_join(optimized: OptimizedQuery, build: &str, probe: &str) -> Planned {
    let all = (i32::MIN, i32::MAX);
    Planned {
        run: QueryRun {
            optimized,
            bindings: vec![bind(build, all), bind(probe, all)],
        },
    }
}

/// A full heap scan of `rel` keeping `a ∈ [lo, hi]`.
pub fn plan_selection(db: &Db, rel: &str, pred: (i32, i32)) -> Planned {
    let q = Query::selection(rel, 1.0);
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(&db.cat, &q, Costing::SeqCost)
        .expect("a one-relation selection always has a plan");
    Planned {
        run: QueryRun {
            optimized,
            bindings: vec![bind(rel, pred)],
        },
    }
}

/// `build ⋈ probe` on `a`, planned by the optimizer.
pub fn plan_join(db: &Db, build: &str, probe: &str) -> Planned {
    let q = Query::join()
        .rel(build, 1.0)
        .rel(probe, 1.0)
        .on(0, 1)
        .build();
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(&db.cat, &q, Costing::SeqCost)
        .expect("a connected two-relation join always has a plan");
    unfiltered_join(optimized, build, probe)
}

/// `build ⋈ probe` as a hash join with the build side pinned, so the
/// optimizer cannot move the materialization load off the larger relation.
pub fn plan_hash_join_pinned(db: &Db, build: &str, probe: &str) -> Planned {
    let plan = Plan::HashJoin {
        build: Box::new(Plan::SeqScan { rel: 0 }),
        probe: Box::new(Plan::SeqScan { rel: 1 }),
    };
    let rels: Vec<RelInfo> = [build, probe]
        .iter()
        .map(|n| {
            let s = db.rel(n).stats();
            RelInfo {
                n_tuples: s.n_tuples as f64,
                n_blocks: s.n_blocks as f64,
                n_distinct: s.n_distinct_a as f64,
                selectivity: 1.0,
                has_index: false,
                clustered: false,
            }
        })
        .collect();
    let costed = CostModel::paper_default().cost_plan(&plan, &rels);
    let fragments = decompose(&plan, &costed, 0);
    let optimized = OptimizedQuery {
        seqcost: costed.cost.total_cost,
        parcost: 0.0,
        plan,
        fragments,
    };
    unfiltered_join(optimized, build, probe)
}

/// A chain join over `rels` for the planning workload.
pub struct PlanningQuery {
    query: Query,
    rels: Vec<RelInfo>,
    optimizer: TwoPhaseOptimizer,
}

/// What one `optimize` call chose.
pub struct PlanChoice {
    pub seqcost: f64,
    pub parcost: f64,
    pub fragments: usize,
}

impl PlanningQuery {
    /// `rels[0] ⋈ rels[1] ⋈ …` on `a`, statistics taken from `db`.
    pub fn chain(db: &Db, rels: &[&str]) -> Self {
        let mut b = Query::join();
        for r in rels {
            b = b.rel(r, 1.0);
        }
        for i in 1..rels.len() {
            b = b.on(i - 1, i);
        }
        let query = b.build();
        let optimizer = TwoPhaseOptimizer::paper_default();
        let rels = optimizer.rel_infos(&db.cat, &query);
        PlanningQuery {
            query,
            rels,
            optimizer,
        }
    }

    /// Bushy enumeration ranked by `parcost(p, n) = T_n(F(p))` (paper §4).
    pub fn optimize_parcost(&self) -> PlanChoice {
        self.optimize(Costing::ParCost)
    }

    /// Bushy enumeration ranked by sequential cost.
    pub fn optimize_seqcost(&self) -> PlanChoice {
        self.optimize(Costing::SeqCost)
    }

    fn optimize(&self, costing: Costing) -> PlanChoice {
        let o = self
            .optimizer
            .optimize(&self.query, &self.rels, costing)
            .expect("a connected chain join always has a plan");
        PlanChoice {
            seqcost: o.seqcost,
            parcost: o.parcost,
            fragments: o.fragments.fragments.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// Which scheduling policy drives a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    /// Bench-local: fragments one at a time with a fixed worker count, so
    /// the cached workloads hold parallelism constant across hosts.
    Fixed(u32),
    /// Paper §3 INTRA-ONLY.
    IntraOnly,
    /// Paper §3 INTER-WITHOUT-ADJ.
    InterWithoutAdj,
    /// Paper §3 INTER-WITH-ADJ.
    InterWithAdj,
}

impl Policy {
    fn kind(self) -> PolicyKind {
        match self {
            Policy::IntraOnly => PolicyKind::IntraOnly,
            Policy::InterWithoutAdj => PolicyKind::InterWithoutAdj,
            Policy::InterWithAdj => PolicyKind::InterWithAdj,
            Policy::Fixed(_) => unreachable!("the fixed policy is bench-local"),
        }
    }

    fn build(self) -> Box<dyn SchedulePolicy> {
        let m = MachineConfig::paper_default();
        match self {
            Policy::Fixed(workers) => Box::new(FixedParallelism {
                machine: m,
                workers,
                pending: Vec::new(),
            }),
            p => p.kind().build(&m, true),
        }
    }
}

struct FixedParallelism {
    machine: MachineConfig,
    workers: u32,
    pending: Vec<TaskProfile>,
}

impl SchedulePolicy for FixedParallelism {
    fn name(&self) -> &'static str {
        "fixed-parallelism"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.pending.push(task);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        if !running.is_empty() || self.pending.is_empty() {
            return Vec::new();
        }
        let t = self.pending.remove(0);
        vec![Action::Start {
            id: t.id,
            parallelism: f64::from(self.workers),
        }]
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// How fast the modelled machine runs against the wall clock.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Speed {
    /// `scale = 0`: no sleeps, real CPU only.
    Unthrottled,
    /// Disk and CPU service times sleep `1/speedup` of their modelled length.
    Scaled(f64),
}

impl Speed {
    /// Wall seconds per simulated second, as the machine takes it.
    fn scale(self) -> f64 {
        match self {
            Speed::Unthrottled => 0.0,
            Speed::Scaled(s) => 1.0 / s,
        }
    }
}

fn exec_config(speed: Speed, bufpool_pages: Option<usize>, obs: bool) -> ExecConfig {
    let mut cfg = match speed {
        Speed::Unthrottled => ExecConfig::unthrottled(),
        Speed::Scaled(s) => ExecConfig::scaled(s),
    };
    if let Some(p) = bufpool_pages {
        cfg.bufpool_pages = p;
    }
    if obs {
        cfg = cfg.with_obs();
    }
    cfg
}

/// What one executor run reported, reduced to what the benchmark reads.
pub struct RunOutcome {
    /// Result rows per query, in submission order.
    pub rows: Vec<u64>,
    /// Wall seconds from run start to each query's completion.
    pub finished_at: Vec<f64>,
    /// Wall seconds of the whole run.
    pub wall: f64,
    /// Process CPU seconds the run call took (all threads).
    pub cpu_s: f64,
    /// Order-insensitive digest of every result row, per query.
    pub digests: Vec<u64>,
    pub pool_hit_rate: f64,
    pub pool_jobs: u64,
    pub adjusts: u64,
    pub heartbeats: u64,
    pub units: u64,
    /// Simulated CPU seconds charged.
    pub cpu_busy_sim_s: f64,
    /// Disk requests by class: sequential, almost sequential, random.
    pub disk_counts: [u64; 3],
    /// Simulated disk-busy seconds summed over the array.
    pub disk_busy_sim_s: f64,
    pub steals: u64,
    pub steal_fails: u64,
    /// Processor-gate acquisitions that had to wait.
    pub gate_waits: u64,
    pub pinned_at_exit: u64,
    pub grant_waits: u64,
    pub spill_chunks: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hash of one joined row `(key, a₁, len(b₁), a₂, len(b₂), …)`; rows are
/// combined by wrapping addition so tie order among equal keys (which
/// depends on which worker scanned which page) does not matter.
pub fn row_hash(key: i32, cols: impl Iterator<Item = (i32, usize)>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv(&mut h, &key.to_le_bytes());
    for (a, blen) in cols {
        fnv(&mut h, &a.to_le_bytes());
        fnv(&mut h, &(blen as u64).to_le_bytes());
    }
    h
}

fn digest_rows(rows: &[(i32, Tuple)]) -> u64 {
    let mut sum = 0u64;
    for (key, t) in rows {
        let vals = t.values();
        let cols = vals.chunks(2).map(|c| {
            (
                c[0].as_int().unwrap_or(i32::MIN),
                c.get(1).and_then(Datum::as_text).map_or(0, str::len),
            )
        });
        sum = sum.wrapping_add(row_hash(*key, cols));
    }
    sum
}

fn outcome(report: &ExecReport, cpu_s: f64, want_digest: bool) -> RunOutcome {
    let total = report
        .disk_classes
        .iter()
        .fold(xprs_disk::ClassStats::default(), |acc, c| acc.merged(c));
    let classes = [
        ServiceClass::Sequential,
        ServiceClass::AlmostSequential,
        ServiceClass::Random,
    ];
    let (steals, steal_fails, gate_waits) = report.metrics.as_ref().map_or((0, 0, 0), |m| {
        (
            m.steals.get(),
            m.steal_fails.get(),
            m.gate_wait_ns.snapshot().count,
        )
    });
    RunOutcome {
        rows: report
            .results
            .iter()
            .map(|r| r.rows.rows.len() as u64)
            .collect(),
        finished_at: report.results.iter().map(|r| r.finished_at).collect(),
        wall: report.wall,
        cpu_s,
        digests: if want_digest {
            report
                .results
                .iter()
                .map(|r| digest_rows(&r.rows.rows))
                .collect()
        } else {
            Vec::new()
        },
        pool_hit_rate: report.stats.pool.hit_rate(),
        pool_jobs: report.pool_jobs,
        adjusts: report.adjusts,
        heartbeats: report.heartbeats,
        units: report
            .profiles
            .iter()
            .flat_map(|q| &q.fragments)
            .map(|f| f.units)
            .sum(),
        cpu_busy_sim_s: report.cpu_busy,
        disk_counts: classes.map(|c| total.count_of(c)),
        disk_busy_sim_s: total.total_busy(),
        steals,
        steal_fails,
        gate_waits,
        pinned_at_exit: report.pool_pinned_at_exit,
        grant_waits: report.mem_grant_waits,
        spill_chunks: report.spill_chunks,
    }
}

/// Run `queries` under `policy` through `run`, with the process CPU the
/// call took measured tightly around it.
fn execute(
    queries: &[Planned],
    policy: Policy,
    want_digest: bool,
    run: impl FnOnce(&[QueryRun], &mut dyn SchedulePolicy) -> Result<ExecReport, ExecError>,
) -> Result<RunOutcome, String> {
    let runs: Vec<QueryRun> = queries.iter().map(|p| p.run.clone()).collect();
    let mut pol = policy.build();
    let cpu0 = process_cpu_s();
    let report = run(&runs, pol.as_mut());
    let cpu_s = process_cpu_s() - cpu0;
    report
        .map(|r| outcome(&r, cpu_s, want_digest))
        .map_err(|e| e.to_string())
}

/// A long-lived machine + worker pool, so the buffer pool stays warm across
/// the trials of a cached workload.
pub struct Session {
    exec: Executor,
    session: ExecSession,
}

impl Session {
    pub fn open(db: &Db, speed: Speed, bufpool_pages: usize, obs: bool) -> Self {
        let exec = Executor::new(exec_config(speed, Some(bufpool_pages), obs), db.cat.clone());
        let session = exec.session();
        Session { exec, session }
    }

    /// Run `queries` to completion under `policy` on the shared machine.
    pub fn run(
        &self,
        queries: &[Planned],
        policy: Policy,
        want_digest: bool,
    ) -> Result<RunOutcome, String> {
        execute(queries, policy, want_digest, |runs, pol| {
            self.exec.run_shared(&self.session, runs, pol, &[])
        })
    }

    pub fn threads_spawned(&self) -> u64 {
        self.session.threads_spawned()
    }

    pub fn close(self) {
        self.session.shutdown();
    }
}

/// One private-machine run (cold pool, own threads): the path `disk_mix`
/// and the no-op query probe take.
pub fn run_once(
    db: &Db,
    queries: &[Planned],
    policy: Policy,
    speed: Speed,
    obs: bool,
) -> Result<RunOutcome, String> {
    let exec = Executor::new(exec_config(speed, None, obs), db.cat.clone());
    execute(queries, policy, false, |runs, pol| exec.run(runs, pol))
}

// ---------------------------------------------------------------------------
// Paper §3 task sets, DES and fluid drivers
// ---------------------------------------------------------------------------

/// One generated ten-task set: scheduler profiles plus relation specs.
pub struct TaskSet {
    pub kind: WorkloadKind,
    generated: xprs_workload::GeneratedWorkload,
}

impl TaskSet {
    pub fn generate(kind: WorkloadKind, seed: u64) -> Self {
        let generated = WorkloadGenerator::new().generate(&WorkloadConfig::paper(kind, seed));
        TaskSet { kind, generated }
    }

    /// Σ D_i: pages the set's scans read.
    pub fn pages(&self) -> u64 {
        self.generated.tasks.iter().map(|t| t.n_pages).sum()
    }

    /// `(relation, pages)` per task, in task order.
    pub fn relations(&self) -> Vec<(String, u64)> {
        self.generated
            .tasks
            .iter()
            .map(|t| (t.relation.clone(), t.n_pages))
            .collect()
    }

    fn profiles(&self) -> Vec<TaskProfile> {
        self.generated.profiles()
    }
}

/// Simulated outcome of one task set on the DES or the fluid model.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    pub makespan: f64,
    pub mean_response: f64,
    pub events: u64,
}

impl SimOutcome {
    /// Every task is released at time 0, so its response is its finish.
    fn new(makespan: f64, task_times: &[(TaskId, f64, f64)], events: u64) -> Self {
        let n = task_times.len().max(1) as f64;
        SimOutcome {
            makespan,
            mean_response: task_times.iter().map(|&(_, _, f)| f).sum::<f64>() / n,
            events,
        }
    }
}

/// The modelled machine with both model drivers attached.
pub struct Models {
    sys: XprsSystem,
}

impl Models {
    pub fn paper() -> Self {
        Models {
            sys: XprsSystem::paper_default(),
        }
    }

    /// Discrete-event simulation of `set` under `policy`.
    pub fn des(&self, set: &TaskSet, policy: Policy) -> Result<SimOutcome, String> {
        let r = self
            .sys
            .simulate(&set.profiles(), policy.kind())
            .map_err(|e| e.to_string())?;
        Ok(SimOutcome::new(r.elapsed, &r.task_times, r.n_events))
    }

    /// Fluid (analytic) estimate of `set` under `policy`.
    pub fn fluid(&self, set: &TaskSet, policy: Policy) -> Result<SimOutcome, String> {
        let r = self
            .sys
            .estimate(&set.profiles(), policy.kind())
            .map_err(|e| e.to_string())?;
        Ok(SimOutcome::new(r.elapsed, &r.task_times, 0))
    }
}

// ---------------------------------------------------------------------------
// Query service
// ---------------------------------------------------------------------------

/// The two request kinds of the open-loop schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Interactive,
    Batch,
}

/// One scheduled submission.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    pub at: f64,
    pub tenant: u32,
    pub class: Class,
}

/// Seeded Poisson arrivals: `tenants` tenants sharing `interactive_qps` and
/// `batch_qps` equally, for `horizon` seconds.
pub fn arrivals(
    seed: u64,
    horizon: f64,
    tenants: u32,
    interactive_qps: f64,
    batch_qps: f64,
) -> Vec<Arrival> {
    let n = f64::from(tenants);
    let spec = ArrivalSpec {
        seed,
        horizon,
        tenants: (0..tenants)
            .map(|_| TenantLoad {
                interactive_qps: interactive_qps / n,
                batch_qps: batch_qps / n,
            })
            .collect(),
    };
    generate_arrivals(&spec)
        .into_iter()
        .map(|a| Arrival {
            at: a.at,
            tenant: a.tenant,
            class: match a.class {
                QueryClass::Interactive => Class::Interactive,
                QueryClass::Batch => Class::Batch,
            },
        })
        .collect()
}

/// How one admitted request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Settled {
    Completed { rows: u64 },
    Cancelled,
    Failed(String),
}

/// The settled outcome of one request.
pub struct Reply {
    pub status: Settled,
    /// Submit → outcome, as the service measured it.
    pub latency: Duration,
    pub queue_wait: Duration,
}

/// Claim check for an admitted request.
pub struct Pending(Ticket);

impl Pending {
    pub fn wait(self) -> Reply {
        let o = self.0.wait();
        Reply {
            status: match o.status {
                QueryStatus::Completed { rows } => Settled::Completed { rows },
                QueryStatus::DeadlineCancelled => Settled::Cancelled,
                QueryStatus::Failed { error } => Settled::Failed(error),
            },
            latency: o.latency,
            queue_wait: o.queue_wait,
        }
    }
}

/// Service sizing: everything else is `ServiceConfig::quick()`.
pub struct ServiceSizing {
    pub speed: Speed,
    pub runners: usize,
    pub bufpool_pages: usize,
    pub queue_cap: usize,
    pub interactive_deadline: Duration,
    pub batch_deadline: Duration,
}

pub struct Service {
    svc: QueryService,
}

fn service_config(sizing: &ServiceSizing, obs: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig::quick();
    cfg.queue_cap = sizing.queue_cap;
    cfg.max_concurrent = sizing.runners;
    cfg.interactive_deadline = sizing.interactive_deadline;
    cfg.batch_deadline = sizing.batch_deadline;
    cfg.exec.scale = sizing.speed.scale();
    cfg.exec.bufpool_pages = sizing.bufpool_pages;
    if obs {
        cfg.exec = cfg.exec.with_obs();
    }
    cfg
}

/// `queries` submitted at once to a private executor configured exactly as
/// the service configures its own, under the policy the service uses.
pub fn run_once_like_service(
    db: &Db,
    queries: &[Planned],
    sizing: &ServiceSizing,
) -> Result<RunOutcome, String> {
    let exec = Executor::new(service_config(sizing, false).exec, db.cat.clone());
    execute(queries, Policy::InterWithAdj, false, |runs, pol| {
        exec.run(runs, pol)
    })
}

impl Service {
    pub fn start(db: &Db, sizing: &ServiceSizing, obs: bool) -> Self {
        Service {
            svc: QueryService::start(service_config(sizing, obs), db.cat.clone()),
        }
    }

    /// Submit one request; `Err` is a typed shed.
    pub fn submit(&self, tenant: u32, class: Class, q: &Planned) -> Result<Pending, String> {
        let class = match class {
            Class::Interactive => QueryClass::Interactive,
            Class::Batch => QueryClass::Batch,
        };
        match self.svc.submit(QueryRequest {
            tenant,
            class,
            run: q.run.clone(),
        }) {
            Ok(t) => Ok(Pending(t)),
            Err(e @ (ServiceError::Overloaded { .. } | ServiceError::ShuttingDown)) => {
                Err(e.to_string())
            }
        }
    }

    /// Admitted requests whose outcome is not recorded yet, both classes.
    pub fn in_flight(&self) -> u64 {
        let stats = self.svc.stats();
        stats.interactive.in_flight() + stats.batch.in_flight()
    }

    pub fn reserved_pages(&self) -> u64 {
        self.svc.reserved_pages()
    }

    pub fn pinned_pages(&self) -> u64 {
        self.svc.pinned_pages()
    }

    pub fn shutdown(self) {
        self.svc.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Single-layer probes
// ---------------------------------------------------------------------------

/// `xprs-disk`: one disk head serving a stream of requests.
pub struct DiskProbe {
    state: DiskState,
}

impl DiskProbe {
    pub fn new() -> Self {
        let m = MachineConfig::paper_default();
        DiskProbe {
            state: DiskState::new(DiskParams::from_rates(
                m.seq_bw,
                m.almost_seq_bw,
                m.random_bw,
            )),
        }
    }

    /// Serve `(rel, local_block, worker)`; returns modelled service seconds.
    pub fn serve(&mut self, rel: u64, local_block: u64, worker: u64) -> f64 {
        self.state
            .serve(&IoRequest {
                rel: RelId(rel),
                local_block,
                worker: WorkerId(worker),
                solo: false,
            })
            .1
    }
}

/// `storage::shardpool`: the sharded buffer pool on its own.
pub struct PoolProbe {
    pool: ShardedBufferPool,
}

impl PoolProbe {
    pub fn new(pages: usize) -> Self {
        PoolProbe {
            pool: ShardedBufferPool::new(pages, ExecConfig::unthrottled().bufpool_shards),
        }
    }

    /// `access` + (on a miss) `finish_read`; returns whether it hit.
    pub fn touch(&self, rel: u64, block: u64) -> bool {
        use xprs_storage::bufpool::FetchOutcome;
        match self.pool.access(RelId(rel), block) {
            Ok(FetchOutcome::Hit) => true,
            Ok(FetchOutcome::Miss) => {
                let _ = self.pool.finish_read(RelId(rel), block);
                false
            }
            Err(_) => false,
        }
    }

    /// `try_reserve` + `release` of a `pages`-page grant.
    pub fn reserve_release(&self, pages: u64) -> bool {
        match self.pool.try_reserve(pages) {
            Some(r) => {
                self.pool.release(r);
                true
            }
            None => false,
        }
    }
}

/// `executor::io`: the machine throttle on its own.
pub struct MachineProbe {
    machine: Machine,
    worker: WorkerId,
}

impl MachineProbe {
    pub fn new(speed: Speed, pool_pages: usize) -> Self {
        let cfg = ExecConfig::unthrottled();
        let machine =
            Machine::with_sharded_pool(&cfg.machine, speed.scale(), pool_pages, cfg.bufpool_shards);
        let worker = machine.new_worker_id();
        MachineProbe { machine, worker }
    }

    /// One page read; `true` when it went to a disk.
    pub fn read(&self, rel: u64, block: u64) -> bool {
        matches!(
            self.machine.try_read(RelId(rel), block, self.worker, true),
            Ok(Some(_))
        )
    }

    pub fn compute(&self, sim_seconds: f64) {
        self.machine.compute(sim_seconds);
    }

    /// Simulated seconds the disks were busy so far.
    pub fn disk_busy_sim_s(&self) -> f64 {
        self.machine.stats().disk.busy_time
    }
}

/// `executor::steal`: claim every unit of a fragment through `slots` slots.
pub struct StealProbe {
    part: Arc<StealPartition>,
}

impl StealProbe {
    pub fn new(units: u64, slots: u32, seed: u64) -> Self {
        let part = StealPartition::new(units, xprs_executor::DEFAULT_MORSEL_UNITS, slots, seed)
            .with_disks(machine_disks());
        StealProbe {
            part: Arc::new(part),
        }
    }

    /// Drain slot `slot` the way a worker does: `next_morsel`, then
    /// `claim_unit` until the morsel is exhausted. Returns units claimed.
    pub fn drain(&self, slot: usize) -> u64 {
        let claim = self.part.claim_of(slot);
        let mut n = 0u64;
        while self.part.next_morsel(slot).is_some() {
            while StealPartition::claim_unit(&claim).is_some() {
                n += 1;
            }
        }
        n
    }

    pub fn handle(&self) -> StealProbe {
        StealProbe {
            part: self.part.clone(),
        }
    }
}

/// `executor::pool`: scatter-gather of no-op tasks.
pub struct PoolDispatchProbe {
    pool: WorkerPool,
}

impl PoolDispatchProbe {
    pub fn new() -> Self {
        PoolDispatchProbe {
            pool: WorkerPool::new(machine_procs() as usize),
        }
    }

    pub fn dispatch(&self, tasks: usize) -> usize {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..tasks)
            .map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        self.pool.scatter_gather(jobs).len()
    }

    pub fn close(self) {
        self.pool.shutdown();
    }
}

/// `storage::runs` on `(key, payload)` rows.
pub mod runs {
    use super::{merge_runs, split_runs_stats, CsrIndex};

    pub type Run = Vec<(i32, u64)>;

    pub fn merge(runs: Vec<Run>) -> Run {
        merge_runs(runs)
    }

    /// Split into `ways` groups; returns the group count.
    pub fn split(runs: Vec<Run>, ways: usize) -> usize {
        split_runs_stats(runs, ways).0.len()
    }

    pub struct Csr(CsrIndex);

    pub fn csr_build(rows: &Run) -> Csr {
        Csr(CsrIndex::from_sorted(rows))
    }

    impl Csr {
        pub fn lookup(&self, key: i32) -> usize {
            self.0.lookup(key).len()
        }
    }
}

/// `scheduler`: the adaptive policy and the balance-point solver alone.
pub struct SchedulerProbe {
    profiles: Vec<TaskProfile>,
    machine: MachineConfig,
}

impl SchedulerProbe {
    pub fn new(set: &TaskSet) -> Self {
        SchedulerProbe {
            profiles: set.profiles(),
            machine: MachineConfig::paper_default(),
        }
    }

    /// Drive INTER-WITH-ADJ through one whole task set by hand — arrivals,
    /// then decide / finish-one until empty. Returns policy calls made.
    pub fn drive_adaptive(&self) -> u64 {
        let mut pol = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(self.machine.clone()));
        let mut calls = 0u64;
        for p in &self.profiles {
            pol.on_arrival(0.0, p.clone());
            calls += 1;
        }
        let mut running: Vec<RunningTask> = Vec::new();
        let mut now = 0.0;
        loop {
            for a in pol.decide(now, &running) {
                match a {
                    Action::Start { id, parallelism } => {
                        let profile = self
                            .profiles
                            .iter()
                            .find(|p| p.id == id)
                            .expect("policy starts only tasks it was given")
                            .clone();
                        running.push(RunningTask {
                            remaining_seq_time: profile.seq_time,
                            profile,
                            parallelism,
                        });
                    }
                    Action::Adjust { id, parallelism } => {
                        if let Some(r) = running.iter_mut().find(|r| r.profile.id == id) {
                            r.parallelism = parallelism;
                        }
                    }
                }
            }
            calls += 1;
            if running.is_empty() {
                return calls;
            }
            // Finish whichever running task ends first at its current rate.
            let (i, dt) = running
                .iter()
                .enumerate()
                .map(|(i, r)| (i, r.remaining_seq_time / r.parallelism.max(1e-9)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("running is non-empty");
            now += dt;
            for r in &mut running {
                r.remaining_seq_time = (r.remaining_seq_time - dt * r.parallelism).max(0.0);
            }
            let done = running.swap_remove(i);
            pol.on_finish(now, done.profile.id);
            calls += 1;
        }
    }

    /// Solve the balance point of the set's most IO-bound against its most
    /// CPU-bound task; returns `x_io`.
    pub fn balance(&self) -> f64 {
        let by_rate = |a: &&TaskProfile, b: &&TaskProfile| a.io_rate.total_cmp(&b.io_rate);
        let io = self.profiles.iter().max_by(by_rate).expect("ten tasks");
        let cpu = self.profiles.iter().min_by(by_rate).expect("ten tasks");
        balance_point(io, cpu, &self.machine).map_or(0.0, |bp| bp.x_io)
    }
}

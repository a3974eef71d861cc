//! Emit `BENCH_service.json`: the continuous query service under a
//! replayed open-loop arrival schedule, with and without injected faults.
//!
//! Three scenarios — `no_fault`, `worker_death`, `disk_slowdown` — each
//! run two phases over the same seeded multi-tenant arrival schedule:
//!
//! * **uncontended** — offered load well inside capacity: the gate is
//!   *zero* shed and clean ledgers.
//! * **overload** — offered load several times capacity against a small
//!   queue: the gate is that overload surfaces as typed
//!   `ServiceError::Overloaded` shedding (never unbounded growth), while
//!   every admitted query still settles and the ledgers still balance.
//!
//! Per phase and class the report carries sustained completion QPS and
//! p50/p99/p999 end-to-end latency; per tenant, completion counts and
//! worst-case latency (the graceful-degradation bound under faults).
//!
//! Usage: `bench_service [BENCH_service.json]`. Exit status 1 if a gate
//! fails, 2 if the output cannot be written.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_bench::{bench_doc, finish, Gates};
use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_obs::json::JsonValue;
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_service::{
    QueryOutcome, QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError,
};
use xprs_storage::{Catalog, Schema, Tuple};
use xprs_workload::{generate_arrivals, ArrivalSpec, QueryClass, TenantLoad};

/// Wall seconds per simulated second: runs are throttle-dominated, so the
/// service times (and the visible effect of a disk slowdown) are set by
/// the machine model, not by host speed.
const SCALE: f64 = 1.0 / 40.0;
const N_TENANTS: u32 = 4;
const SEED: u64 = 0x5E41_11CE;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xBE5C_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 240u64, 80u64, 800usize), // ~10 tuples per page: IO-heavy
        ("thin", 1600, 120, 16),          // many tuples per page: CPU-heavy
    ] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| Tuple::paper((lcg(&mut seed) % key_mod) as i32, blen))
            .collect();
        cat.load(name, rows);
        cat.build_index(name, false);
    }
    Arc::new(cat)
}

fn lookup(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::selection("thin", 1.0);
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: "thin".into(), pred: (0, 15) }],
    }
}

fn scan_join(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan"),
        bindings: vec![
            RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
        ],
    }
}

#[derive(Clone, Copy)]
enum Fault {
    None,
    WorkerDeath,
    DiskSlowdown,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::None => "no_fault",
            Fault::WorkerDeath => "worker_death",
            Fault::DiskSlowdown => "disk_slowdown",
        }
    }
    fn plan(self) -> Option<Arc<FaultPlan>> {
        match self {
            Fault::None => None,
            // A worker dies three units into fragment 0 of a run — its
            // master must reclaim its share and staff a spare.
            Fault::WorkerDeath => Some(Arc::new(FaultPlan::new().with_worker_death(0, 0, 3))),
            // Disk 0 serves 4x slower from its 30th request on, sustained.
            Fault::DiskSlowdown => Some(Arc::new(FaultPlan::new().with_slowdown(0, 30, 4.0))),
        }
    }
}

struct ClassPhase {
    class: QueryClass,
    submitted: u64,
    completed: u64,
    shed: u64,
    deadline_cancelled: u64,
    failed: u64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    mean_us: f64,
}

struct PhaseResult {
    phase: &'static str,
    wall: f64,
    classes: Vec<ClassPhase>,
    /// Per tenant: settled and completed queries, worst latency.
    tenants: Vec<JsonValue>,
    reserved_pages: u64,
    pinned_pages: u64,
    retry_after_hints_us: Vec<u64>,
}

impl PhaseResult {
    fn mean_retry_after_us(&self) -> u64 {
        let hints = &self.retry_after_hints_us;
        hints.iter().sum::<u64>() / (hints.len() as u64).max(1)
    }

    /// The gates every phase holds: no admitted query may leak — both
    /// ledgers zero once idle, every admitted query settled (typed failure
    /// included) — and faults must degrade, never fail, a query.
    fn check(&self, scenario: &str, gates: &mut Gates) {
        let at = format!("{scenario}/{}", self.phase);
        gates.check(
            self.reserved_pages == 0 && self.pinned_pages == 0,
            format_args!(
                "{at}: leaked {} reserved / {} pinned pages at idle",
                self.reserved_pages, self.pinned_pages
            ),
        );
        for c in &self.classes {
            let (class, settled) = (c.class.label(), c.completed + c.deadline_cancelled + c.failed);
            gates.check(
                settled == c.submitted,
                format_args!("{at}/{class}: {} admitted, {settled} settled", c.submitted),
            );
            gates.check(c.failed == 0, format_args!("{at}/{class}: {} queries failed", c.failed));
        }
        // Interactive latency must stay distribution-shaped, not collapse
        // into a hung tail: p99 within a fixed multiple of p50. The multiple
        // is generous (an interactive lookup can queue behind a few
        // throttled batch joins); the gate exists to catch a p99 in whole
        // seconds against a p50 in milliseconds — a stuck queue, not noise.
        let inter = self
            .classes
            .iter()
            .find(|c| c.class == QueryClass::Interactive)
            .expect("both classes recorded");
        gates.check(inter.completed > 0, format_args!("{at}: no interactive query completed"));
        gates.check(
            inter.p99_us <= 96 * inter.p50_us.max(1),
            format_args!(
                "{at}: interactive p99 {}us over 96x p50 {}us",
                inter.p99_us, inter.p50_us
            ),
        );
    }
}

/// Replay `spec` against a fresh service and collect per-class and
/// per-tenant results. Open loop: submissions happen on schedule no
/// matter how the service is doing; a full queue produces typed shed
/// errors, which are counted, not retried.
fn run_phase(
    cat: &Arc<Catalog>,
    phase: &'static str,
    cfg: ServiceConfig,
    spec: &ArrivalSpec,
) -> PhaseResult {
    let svc = QueryService::start(cfg, cat.clone());
    let schedule = generate_arrivals(spec);
    let mut tickets = Vec::new();
    let mut retry_after_hints_us = Vec::new();
    let t0 = Instant::now();
    for a in &schedule {
        let due = t0 + Duration::from_secs_f64(a.at);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        let run = match a.class {
            QueryClass::Interactive => lookup(cat),
            QueryClass::Batch => scan_join(cat),
        };
        match svc.submit(QueryRequest { tenant: a.tenant, class: a.class, run }) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { retry_after }) => {
                retry_after_hints_us.push(retry_after.as_micros() as u64);
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let outcomes: Vec<QueryOutcome> = tickets.into_iter().map(|t| t.wait()).collect();
    let wall = t0.elapsed().as_secs_f64();
    for o in &outcomes {
        if let QueryStatus::Failed { error } = &o.status {
            eprintln!("  [failed] tenant={} class={}: {error}", o.tenant, o.class.label());
        }
    }

    let classes = [QueryClass::Interactive, QueryClass::Batch]
        .into_iter()
        .map(|class| {
            let s = svc.stats().class(class);
            let snap = s.latency_us.snapshot();
            ClassPhase {
                class,
                submitted: s.submitted.get(),
                completed: s.completed.get(),
                shed: s.shed.get(),
                deadline_cancelled: s.deadline_cancelled.get(),
                failed: s.failed.get(),
                qps: s.completed.get() as f64 / wall,
                p50_us: snap.quantile(0.50),
                p99_us: snap.quantile(0.99),
                p999_us: snap.quantile(0.999),
                mean_us: snap.mean(),
            }
        })
        .collect();
    let tenants = (0..N_TENANTS)
        .map(|tenant| {
            let mine: Vec<&QueryOutcome> =
                outcomes.iter().filter(|o| o.tenant == tenant).collect();
            let completed =
                mine.iter().filter(|o| matches!(o.status, QueryStatus::Completed { .. }));
            let max_latency_us = mine.iter().map(|o| o.latency.as_micros() as u64).max();
            JsonValue::obj()
                .with("tenant", tenant)
                .with("settled", mine.len())
                .with("completed", completed.count())
                .with("max_latency_us", max_latency_us.unwrap_or(0))
        })
        .collect();
    let result = PhaseResult {
        phase,
        wall,
        classes,
        tenants,
        reserved_pages: svc.reserved_pages(),
        pinned_pages: svc.pinned_pages(),
        retry_after_hints_us,
    };
    svc.shutdown();
    result
}

fn exec_cfg() -> ExecConfig {
    let mut cfg = ExecConfig::scaled(1.0 / SCALE);
    // Far smaller than the relations' footprint: the scans stay
    // disk-resident, so the disks actually see sustained traffic (a pool
    // that caches the working set would make the slowdown scenario
    // vacuous).
    cfg.bufpool_pages = 24;
    cfg
}

/// Uncontended: well inside the service rate of `max_concurrent` runners.
fn uncontended_spec() -> ArrivalSpec {
    ArrivalSpec {
        seed: SEED,
        horizon: 2.0,
        tenants: (0..N_TENANTS)
            .map(|_| TenantLoad { interactive_qps: 4.0, batch_qps: 0.25 })
            .collect(),
    }
}

/// Overload: about three times capacity against a small queue. Three
/// runners complete ≈ 600 queries a second of this mix (a lookup takes
/// ≈ 2 ms, a join that runs in memory ≈ 9 ms at this scale); the rates were
/// 12× lower while every join cut spill runs inside its own grant and took
/// ≈ 137 ms (DESIGN.md §14.3).
fn overload_spec() -> ArrivalSpec {
    ArrivalSpec {
        seed: SEED ^ 0xFF,
        horizon: 1.5,
        tenants: (0..N_TENANTS)
            .map(|_| TenantLoad { interactive_qps: 360.0, batch_qps: 72.0 })
            .collect(),
    }
}

fn class_json(c: &ClassPhase) -> JsonValue {
    JsonValue::obj()
        .with("class", c.class.label())
        .with("submitted", c.submitted)
        .with("completed", c.completed)
        .with("shed", c.shed)
        .with("deadline_cancelled", c.deadline_cancelled)
        .with("failed", c.failed)
        .with("qps", c.qps)
        .with("p50_us", c.p50_us)
        .with("p99_us", c.p99_us)
        .with("p999_us", c.p999_us)
        .with("mean_us", c.mean_us)
}

fn phase_json(p: &PhaseResult) -> JsonValue {
    JsonValue::obj()
        .with("phase", p.phase)
        .with("wall", p.wall)
        .with("reserved_pages_at_idle", p.reserved_pages)
        .with("pinned_pages_at_idle", p.pinned_pages)
        .with("mean_retry_after_us", p.mean_retry_after_us())
        .with("classes", p.classes.iter().map(class_json).collect::<Vec<_>>())
        .with("tenants", p.tenants.clone())
}

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_service.json".to_string());
    let mut gates = Gates::default();
    let cat = catalog();
    let mut scenarios = Vec::new();

    for fault in [Fault::None, Fault::WorkerDeath, Fault::DiskSlowdown] {
        let plan = fault.plan();
        let mk_cfg = |queue_cap: usize| {
            let mut exec = exec_cfg();
            // One shared plan instance per scenario so engagement counters
            // aggregate across both phases.
            if let Some(p) = &plan {
                exec = exec.with_faults(p.clone());
            }
            ServiceConfig {
                queue_cap,
                max_concurrent: 3,
                interactive_deadline: Duration::from_secs(8),
                batch_deadline: Duration::from_secs(20),
                exec,
            }
        };

        // Uncontended: roomy queue, load inside capacity.
        let un = run_phase(&cat, "uncontended", mk_cfg(64), &uncontended_spec());
        // Overload: small queue, several times capacity.
        let over = run_phase(&cat, "overload", mk_cfg(8), &overload_spec());

        let (deaths, slow) =
            plan.as_ref().map_or((0, 0), |p| (p.stats().deaths_fired(), p.stats().slow_requests()));
        for p in [&un, &over] {
            eprintln!("{} {}", fault.name(), phase_json(p));
        }
        eprintln!("{}: deaths_fired={} slow_requests={}", fault.name(), deaths, slow);
        un.check(fault.name(), &mut gates);
        over.check(fault.name(), &mut gates);
        // Uncontended load must never shed; overload must shed typed errors
        // with a sane retry hint, never buffer without bound.
        let shed = |p: &PhaseResult| p.classes.iter().map(|c| c.shed).sum::<u64>();
        gates.check(
            shed(&un) == 0,
            format_args!("{}: {} shed in the uncontended phase", fault.name(), shed(&un)),
        );
        gates.check(shed(&over) > 0, format_args!("{}: overload phase never shed", fault.name()));
        gates.check(
            over.mean_retry_after_us() > 0,
            format_args!("{}: shed responses carried no retry_after hint", fault.name()),
        );
        // The fault scenarios must actually engage their faults.
        match fault {
            Fault::None => {}
            Fault::WorkerDeath => gates.check(deaths >= 1, "worker_death: the death never fired"),
            Fault::DiskSlowdown => {
                gates.check(slow > 0, "disk_slowdown: the slowdown never engaged")
            }
        }
        scenarios.push(
            JsonValue::obj()
                .with("scenario", fault.name())
                .with("deaths_fired", deaths)
                .with("slow_requests", slow)
                .with("phases", vec![phase_json(&un), phase_json(&over)]),
        );
    }

    let doc = bench_doc("service")
        .with("scale", SCALE)
        .with("tenants", N_TENANTS)
        .with("seed", SEED)
        .with("scenarios", scenarios);
    finish(&out_path, &doc, gates)
}

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
//! Usage: `bench_service [BENCH_service.json]`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_bench::host_header_json;
use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_service::{
    QueryOutcome, QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError,
};
use xprs_storage::{Catalog, Datum, Schema, Tuple};
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
            .map(|_| {
                let a = (lcg(&mut seed) % key_mod) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
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
            // A worker dies three units into fragment 0 of a run — the
            // heartbeat patrol must reclaim its share and staff a spare.
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

struct TenantPhase {
    tenant: u32,
    settled: u64,
    completed: u64,
    max_latency_us: u64,
}

struct PhaseResult {
    phase: &'static str,
    wall: f64,
    classes: Vec<ClassPhase>,
    tenants: Vec<TenantPhase>,
    reserved_pages: u64,
    pinned_pages: u64,
    retry_after_hints_us: Vec<u64>,
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
            TenantPhase {
                tenant,
                settled: mine.len() as u64,
                completed: mine
                    .iter()
                    .filter(|o| matches!(o.status, QueryStatus::Completed { .. }))
                    .count() as u64,
                max_latency_us: mine
                    .iter()
                    .map(|o| o.latency.as_micros() as u64)
                    .max()
                    .unwrap_or(0),
            }
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

fn exec_cfg(fault: Fault) -> ExecConfig {
    let mut cfg = ExecConfig::scaled(1.0 / SCALE).with_patrol(2, 3);
    // Far smaller than the relations' footprint: the scans stay
    // disk-resident, so the disks actually see sustained traffic (a pool
    // that caches the working set would make the slowdown scenario
    // vacuous).
    cfg.bufpool_pages = 24;
    // Per-run recalibration is off in the shared-session regime: each run
    // observes only its slice of the shared disks, so the "observed" rate
    // is dominated by cross-run contention, and recalibrating on it hands
    // the policy a skewed machine (seen as FixpointDiverged under the
    // slowdown). The service handles degradation with deadlines and
    // shedding instead.
    cfg.recal_band = 0.0;
    if let Some(plan) = fault.plan() {
        cfg = cfg.with_faults(plan);
    }
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

fn class_json(c: &ClassPhase) -> String {
    format!(
        "{{\"class\": \"{}\", \"submitted\": {}, \"completed\": {}, \"shed\": {}, \
         \"deadline_cancelled\": {}, \"failed\": {}, \"qps\": {:.2}, \
         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"mean_us\": {:.1}}}",
        c.class.label(),
        c.submitted,
        c.completed,
        c.shed,
        c.deadline_cancelled,
        c.failed,
        c.qps,
        c.p50_us,
        c.p99_us,
        c.p999_us,
        c.mean_us,
    )
}

fn phase_json(p: &PhaseResult) -> String {
    let classes: Vec<String> = p.classes.iter().map(class_json).collect();
    let tenants: Vec<String> = p
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": {}, \"settled\": {}, \"completed\": {}, \"max_latency_us\": {}}}",
                t.tenant, t.settled, t.completed, t.max_latency_us
            )
        })
        .collect();
    let hint = if p.retry_after_hints_us.is_empty() {
        0
    } else {
        p.retry_after_hints_us.iter().sum::<u64>() / p.retry_after_hints_us.len() as u64
    };
    format!(
        "{{\"phase\": \"{}\", \"wall\": {:.3}, \"reserved_pages_at_idle\": {}, \
         \"pinned_pages_at_idle\": {}, \"mean_retry_after_us\": {},\n        \
         \"classes\": [{}],\n        \"tenants\": [{}]}}",
        p.phase,
        p.wall,
        p.reserved_pages,
        p.pinned_pages,
        hint,
        classes.join(", "),
        tenants.join(", "),
    )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_service.json".to_string());
    let cat = catalog();
    let mut scenario_blocks = Vec::new();

    for fault in [Fault::None, Fault::WorkerDeath, Fault::DiskSlowdown] {
        let plan = fault.plan();
        let mk_cfg = |queue_cap: usize| {
            let mut exec = exec_cfg(fault);
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
            for c in &p.classes {
                eprintln!(
                    "{} {} {}: submitted={} completed={} shed={} cancelled={} failed={} \
                     qps={:.1} p50={}us p99={}us p999={}us",
                    fault.name(),
                    p.phase,
                    c.class.label(),
                    c.submitted,
                    c.completed,
                    c.shed,
                    c.deadline_cancelled,
                    c.failed,
                    c.qps,
                    c.p50_us,
                    c.p99_us,
                    c.p999_us,
                );
            }
        }
        eprintln!("{}: deaths_fired={} slow_requests={}", fault.name(), deaths, slow);
        scenario_blocks.push(format!(
            "    {{\"scenario\": \"{}\", \"deaths_fired\": {}, \"slow_requests\": {},\n      \
             \"phases\": [\n        {},\n        {}\n      ]}}",
            fault.name(),
            deaths,
            slow,
            phase_json(&un),
            phase_json(&over),
        ));
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str(&format!("  \"scale\": {SCALE},\n"));
    json.push_str(&format!("  \"tenants\": {N_TENANTS},\n"));
    json.push_str(&format!("  \"seed\": {SEED},\n"));
    json.push_str("  \"scenarios\": [\n");
    json.push_str(&scenario_blocks.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}

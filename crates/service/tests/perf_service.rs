//! The query service's latency claim, as a release-mode test: under a
//! replayed open-loop multi-tenant arrival schedule, an interactive
//! lookup's p99 stays within 96× its p50, in every scenario (no fault, a
//! worker death, a disk slowdown) and in both phases (load well inside
//! capacity, then about three times capacity against a small queue).
//!
//! The bound is generous: a lookup may queue behind a few throttled batch
//! joins. It exists to catch a p99 in whole seconds against a p50 in
//! milliseconds: a stuck queue, not noise. Each phase also holds the
//! soak's functional facts: both ledgers zero at idle, every admitted
//! query settled and none failed, no shed inside capacity, typed sheds
//! with retry hints under overload, and each fault engaged.
//!
//! The runs are paced in wall time at 40×, so a debug build would time its
//! own overhead and the file compiles to nothing there; it holds one test,
//! so no other test shares the host with the replay.
#![cfg(not(debug_assertions))]

use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_service::{QueryRequest, QueryService, ServiceConfig, ServiceError};
use xprs_storage::{Catalog, Schema, Tuple};
use xprs_workload::{generate_arrivals, ArrivalSpec, QueryClass, TenantLoad};

const N_TENANTS: u32 = 4;
const SEED: u64 = 0x5E41_11CE;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// `fat` (240 rows, ~10 a page: IO-heavy) and `thin` (1 600 rows: CPU-heavy),
/// both indexed on `a`. `fat`'s 24 pages fit the soak's 24-frame pool, so a
/// join runs in memory; `service_robustness`'s 300-row `fat` would spill
/// every join and put the overload phase in another regime (a lookup's p50
/// ≈ 262 ms, not ≈ 16 ms).
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xBE5C_u64;
    for (name, n, key_mod, blen) in [("fat", 240u64, 80u64, 800usize), ("thin", 1600, 120, 16)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> =
            (0..n).map(|_| Tuple::paper((lcg(&mut seed) % key_mod) as i32, blen)).collect();
        cat.load(name, rows);
        cat.build_index(name, false);
    }
    Arc::new(cat)
}

/// An interactive lookup on `thin`, or a batch `fat ⋈ thin`.
fn request(cat: &Arc<Catalog>, tenant: u32, class: QueryClass) -> QueryRequest {
    let (q, bindings) = match class {
        QueryClass::Interactive => {
            (Query::selection("thin", 1.0), vec![RelBinding { name: "thin".into(), pred: (0, 15) }])
        }
        QueryClass::Batch => (
            Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build(),
            ["fat", "thin"]
                .map(|name| RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) })
                .to_vec(),
        ),
    };
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    QueryRequest { tenant, class, run: QueryRun { optimized, bindings } }
}

/// What one phase's replay left behind.
struct Phase {
    /// Interactive queries completed, and their p50 and p99 latency (µs).
    interactive: (u64, u64, u64),
    /// Submits shed, and the sum of their `retry_after` hints (µs).
    shed: (u64, u128),
    /// Admitted queries not settled, and queries failed, over both classes.
    unsettled: u64,
    failed: u64,
    /// Reserved and pinned pages once the service is idle.
    leaked: (u64, u64),
}

/// Replay `spec` against a fresh service: submissions happen on schedule
/// whatever the service is doing, and a shed is counted, not retried.
fn replay(cat: &Arc<Catalog>, cfg: ServiceConfig, spec: &ArrivalSpec) -> Phase {
    let svc = QueryService::start(cfg, cat.clone());
    let (mut tickets, mut shed) = (Vec::new(), (0, 0));
    let t0 = Instant::now();
    for a in &generate_arrivals(spec) {
        let due = t0 + Duration::from_secs_f64(a.at);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(gap);
        }
        match svc.submit(request(cat, a.tenant, a.class)) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::Overloaded { retry_after }) => {
                shed = (shed.0 + 1, shed.1 + retry_after.as_micros());
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    for t in tickets {
        t.wait();
    }
    let stats = svc.stats();
    let (mut unsettled, mut failed) = (0, 0);
    for class in [QueryClass::Interactive, QueryClass::Batch] {
        let c = stats.class(class);
        let settled = c.completed.get() + c.deadline_cancelled.get() + c.failed.get();
        unsettled += c.submitted.get() - settled;
        failed += c.failed.get();
    }
    let inter = stats.class(QueryClass::Interactive);
    let latency = inter.latency_us.snapshot();
    let phase = Phase {
        interactive: (inter.completed.get(), latency.quantile(0.50), latency.quantile(0.99)),
        shed,
        unsettled,
        failed,
        leaked: (svc.reserved_pages(), svc.pinned_pages()),
    };
    svc.shutdown();
    phase
}

#[test]
fn interactive_p99_stays_within_96x_p50_in_every_scenario_and_phase() {
    let cat = catalog();
    // Uncontended: well inside three runners' capacity.
    let uncontended = ArrivalSpec {
        seed: SEED,
        horizon: 2.0,
        tenants: (0..N_TENANTS)
            .map(|_| TenantLoad { interactive_qps: 4.0, batch_qps: 0.25 })
            .collect(),
    };
    // Overload: three runners complete ≈ 600 queries a second of this mix
    // (a lookup ≈ 2 ms, a join ≈ 9 ms at 40×); this offers about three times
    // that.
    let overload = ArrivalSpec {
        seed: SEED ^ 0xFF,
        horizon: 1.5,
        tenants: (0..N_TENANTS)
            .map(|_| TenantLoad { interactive_qps: 360.0, batch_qps: 72.0 })
            .collect(),
    };
    let scenarios = [
        ("no_fault", None),
        // A worker dies three units into fragment 0 of a run.
        ("worker_death", Some(FaultPlan::new().with_worker_death(0, 0, 3))),
        // Disk 0 serves 4× slower from its 30th request on.
        ("disk_slowdown", Some(FaultPlan::new().with_slowdown(0, 30, 4.0))),
    ];
    let mut failed = Vec::new();
    for (scenario, plan) in scenarios {
        // One plan per scenario, shared by both phases.
        let plan = plan.map(Arc::new);
        for (phase, spec, queue_cap) in
            [("uncontended", &uncontended, 64), ("overload", &overload, 8)]
        {
            let mut exec = ExecConfig { bufpool_pages: 24, ..ExecConfig::scaled(40.0) };
            if let Some(p) = &plan {
                exec = exec.with_faults(p.clone());
            }
            let cfg = ServiceConfig {
                queue_cap,
                max_concurrent: 3,
                interactive_deadline: Duration::from_secs(8),
                batch_deadline: Duration::from_secs(20),
                exec,
            };
            let r = replay(&cat, cfg, spec);
            let (completed, p50, p99) = r.interactive;
            eprintln!("{scenario}/{phase}: {completed} interactive, p50 {p50}us, p99 {p99}us");
            let mut check = |ok: bool, what: String| {
                if !ok {
                    failed.push(format!("{scenario}/{phase}: {what}"));
                }
            };
            check(completed > 0 && p99 <= 96 * p50.max(1), format!("p99 {p99}us, p50 {p50}us"));
            check(r.leaked == (0, 0), format!("{:?} reserved/pinned pages at idle", r.leaked));
            check(r.unsettled == 0, format!("{} admitted queries unsettled", r.unsettled));
            check(r.failed == 0, format!("{} queries failed", r.failed));
            let sheds =
                if phase == "overload" { r.shed.0 > 0 && r.shed.1 > 0 } else { r.shed.0 == 0 };
            check(sheds, format!("{} shed, {}us of retry hints", r.shed.0, r.shed.1));
        }
        let engaged =
            plan.as_ref().is_none_or(|p| p.stats().deaths_fired() + p.stats().slow_requests() > 0);
        if !engaged {
            failed.push(format!("{scenario}: the fault never engaged"));
        }
    }
    assert!(failed.is_empty(), "{failed:?}");
}

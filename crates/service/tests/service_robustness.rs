//! Robustness tests for the continuous query service: uncontended traffic
//! completes without shedding, overload sheds with a typed error, mass
//! deadline cancellation leaks nothing, and injected faults degrade the
//! service gracefully instead of hanging it.

use std::sync::Arc;
use std::time::Duration;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_service::{QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError};
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_workload::QueryClass;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x5E2F_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 300u64, 100u64, 800usize), // ~10 tuples per page: IO-heavy
        ("thin", 2000, 150, 16),           // many tuples per page: CPU-heavy
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

/// Interactive template: narrow-predicate lookup on the CPU-light relation.
fn lookup(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::selection("thin", 1.0);
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: "thin".into(), pred: (0, 20) }],
    }
}

/// Batch template: full two-way join (build + probe fragments).
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

fn req(cat: &Arc<Catalog>, tenant: u32, class: QueryClass) -> QueryRequest {
    QueryRequest {
        tenant,
        class,
        run: match class {
            QueryClass::Interactive => lookup(cat),
            QueryClass::Batch => scan_join(cat),
        },
    }
}

#[test]
fn uncontended_traffic_completes_with_zero_shed_and_clean_ledgers() {
    let cat = catalog();
    let svc = QueryService::start(ServiceConfig::quick(), cat.clone());

    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let class =
                if i % 3 == 0 { QueryClass::Batch } else { QueryClass::Interactive };
            svc.submit(req(&cat, i % 4, class)).expect("uncontended submit must admit")
        })
        .collect();
    for t in tickets {
        let out = t.wait();
        match out.status {
            QueryStatus::Completed { rows } => {
                assert!(rows > 0, "templates select real tuples");
            }
            other => panic!("uncontended query must complete, got {other:?}"),
        }
        assert!(out.latency >= out.queue_wait);
    }

    let stats = svc.stats();
    assert_eq!(stats.total_shed(), 0, "uncontended phase must not shed");
    assert_eq!(stats.interactive.completed.get() + stats.batch.completed.get(), 12);
    assert_eq!(stats.interactive.in_flight(), 0);
    assert_eq!(stats.batch.in_flight(), 0);
    assert_eq!(svc.reserved_pages(), 0, "grant ledger must balance at idle");
    assert_eq!(svc.pinned_pages(), 0, "pin ledger must balance at idle");
    svc.shutdown();
}

#[test]
fn full_queue_sheds_typed_overload_with_backoff_hint() {
    let cat = catalog();
    // One runner, a two-slot queue, and throttled execution (~25x real
    // time) so runs take long enough for the flood to pile up.
    let cfg = ServiceConfig {
        queue_cap: 2,
        max_concurrent: 1,
        interactive_deadline: Duration::from_secs(30),
        batch_deadline: Duration::from_secs(30),
        exec: ExecConfig::scaled(25.0).with_patrol(2, 3),
    };
    let svc = QueryService::start(cfg, cat.clone());

    let mut admitted = Vec::new();
    let mut shed = 0u32;
    for i in 0..20 {
        match svc.submit(req(&cat, i % 4, QueryClass::Batch)) {
            Ok(t) => admitted.push(t),
            Err(ServiceError::Overloaded { retry_after }) => {
                shed += 1;
                assert!(
                    retry_after >= Duration::from_millis(1)
                        && retry_after <= Duration::from_secs(5),
                    "retry_after hint out of band: {retry_after:?}"
                );
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(shed > 0, "a 2-slot queue flooded with 20 jobs must shed");
    assert_eq!(svc.stats().batch.shed.get(), shed as u64);
    assert_eq!(svc.stats().batch.submitted.get() + shed as u64, 20);

    // Every admitted job still settles — shedding never strands a ticket.
    for t in admitted {
        let out = t.wait();
        assert!(
            matches!(out.status, QueryStatus::Completed { .. }),
            "admitted job must complete, got {:?}",
            out.status
        );
    }
    assert_eq!(svc.reserved_pages(), 0);
    assert_eq!(svc.pinned_pages(), 0);
    svc.shutdown();
}

#[test]
fn deadlines_cancel_queued_and_running_without_leaking() {
    let cat = catalog();
    // Throttled runs with a deadline far shorter than a join's runtime:
    // the head-of-line jobs are cancelled mid-run, the tail is cancelled
    // while still queued (queue wait counts against the deadline).
    let cfg = ServiceConfig {
        queue_cap: 16,
        max_concurrent: 2,
        interactive_deadline: Duration::from_millis(40),
        batch_deadline: Duration::from_secs(30),
        exec: ExecConfig::scaled(25.0).with_patrol(2, 3),
    };
    let svc = QueryService::start(cfg, cat.clone());

    let tickets: Vec<_> = (0..8)
        .map(|i| {
            // Batch-weight work submitted under the interactive deadline.
            let mut r = req(&cat, i % 4, QueryClass::Batch);
            r.class = QueryClass::Interactive;
            svc.submit(r).expect("queue has room")
        })
        .collect();
    let mut cancelled = 0;
    for t in tickets {
        match t.wait().status {
            QueryStatus::DeadlineCancelled => cancelled += 1,
            QueryStatus::Completed { .. } => {}
            QueryStatus::Failed { error } => panic!("deadline must cancel, not fail: {error}"),
        }
    }
    assert!(cancelled > 0, "a 40 ms deadline on throttled joins must fire");
    assert_eq!(svc.stats().interactive.deadline_cancelled.get(), cancelled);

    // Mass cancellation must leave the ledgers balanced and the service
    // alive: a fresh, generously-deadlined query still completes.
    assert_eq!(svc.reserved_pages(), 0, "cancellation leaked a memory grant");
    assert_eq!(svc.pinned_pages(), 0, "cancellation leaked a buffer pin");
    let out = svc.submit(req(&cat, 0, QueryClass::Batch)).expect("service still admits").wait();
    assert!(
        matches!(out.status, QueryStatus::Completed { .. }),
        "service must keep serving after mass cancellation, got {:?}",
        out.status
    );
    svc.shutdown();
}

#[test]
fn client_cancel_rides_the_same_path_as_deadlines() {
    let cat = catalog();
    let svc = QueryService::start(ServiceConfig::quick(), cat.clone());
    let t = svc.submit(req(&cat, 0, QueryClass::Batch)).expect("admit");
    t.cancel();
    // Cancel is cooperative: the job settles as cancelled (if caught
    // before/mid-run) or completed (if it already finished) — never hangs.
    let out = t.wait();
    assert!(
        matches!(out.status, QueryStatus::DeadlineCancelled | QueryStatus::Completed { .. }),
        "client cancel must settle cleanly, got {:?}",
        out.status
    );
    assert_eq!(svc.reserved_pages(), 0);
    assert_eq!(svc.pinned_pages(), 0);
    svc.shutdown();
}

#[test]
fn shutdown_rejects_new_work_and_drains_admitted_jobs() {
    let cat = catalog();
    let svc = QueryService::start(ServiceConfig::quick(), cat.clone());
    let t = svc.submit(req(&cat, 0, QueryClass::Interactive)).expect("admit");
    let out = t.wait();
    assert!(matches!(out.status, QueryStatus::Completed { .. }));
    svc.shutdown();
}

#[test]
fn service_degrades_gracefully_under_worker_death_and_disk_slowdown() {
    let cat = catalog();
    // A worker death early in every run's fragment 0 plus a sustained 4x
    // slowdown on disk 0: traffic keeps flowing, every job settles, and
    // the ledgers still balance. The slowdown starts at disk 0's 5th
    // request: `fat` alone has about 8 pages there and each is read cold at
    // least once, so engagement does not depend on how often the
    // concurrent runs happen to miss the same page (a threshold of 20 did,
    // and failed "the slowdown must engage" on ~4% of runs).
    let plan = Arc::new(
        FaultPlan::new().with_worker_death(0, 0, 3).with_slowdown(0, 4, 4.0),
    );
    let exec = ExecConfig::unthrottled()
        .with_faults(plan.clone())
        .with_patrol(2, 3)
        // Recalibration stays ON under the shared session: the patrol now
        // divides the observed slowdown by the cross-run interference
        // factor and clamps each correction step, so concurrent runs must
        // not wedge the policy into FixpointDiverged (every Failed
        // outcome below is a regression of that fix).
        .with_recalibration(0.5);
    let cfg = ServiceConfig {
        queue_cap: 32,
        max_concurrent: 2,
        interactive_deadline: Duration::from_secs(30),
        batch_deadline: Duration::from_secs(30),
        exec,
    };
    let svc = QueryService::start(cfg, cat.clone());

    let tickets: Vec<_> = (0..10)
        .map(|i| {
            let class =
                if i % 2 == 0 { QueryClass::Batch } else { QueryClass::Interactive };
            svc.submit(req(&cat, i % 4, class)).expect("queue has room")
        })
        .collect();
    let mut completed = 0;
    for t in tickets {
        match t.wait().status {
            QueryStatus::Completed { rows } => {
                assert!(rows > 0);
                completed += 1;
            }
            QueryStatus::DeadlineCancelled => panic!("30 s deadline must not fire here"),
            QueryStatus::Failed { error } => panic!("faults must be absorbed, not fatal: {error}"),
        }
    }
    assert_eq!(completed, 10, "every admitted job must settle under faults");
    assert!(plan.stats().deaths_fired() >= 1, "the worker death must engage");
    assert!(plan.stats().slow_requests() > 0, "the slowdown must engage");
    assert_eq!(svc.reserved_pages(), 0, "fault recovery leaked a grant");
    assert_eq!(svc.pinned_pages(), 0, "fault recovery leaked a pin");
    svc.shutdown();
}

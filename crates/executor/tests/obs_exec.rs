//! Observability regression tests: the blind spots `xprs-obs` exposed.
//!
//! * Patrol starvation — a dead worker must be reclaimed even while a
//!   chatty sibling stream floods the master channel (the old quiet-tick
//!   patrol only ran on `recv_timeout` timeouts, which a continuous
//!   message stream suppresses forever).
//! * Bypass accounting — a pool too small for the scan's pin pressure
//!   serves reads *around* the pool; those must be counted, so that
//!   `hits + misses + bypasses == reads` holds even under exhaustion.
//! * `metrics.json` — the dumped document must parse with the crate's own
//!   parser and its counters must balance.
//! * Plan mismatch — a hand-tampered decomposition is a typed refusal,
//!   not a master panic.

use std::collections::HashMap;
use std::sync::Arc;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, QueryRun, RelBinding};
use xprs_obs::json::{parse, JsonValue};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::{
    Action, FragmentDag, MachineConfig, RunningTask, SchedulePolicy, TaskId, TaskProfile,
};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x0B5_u64;
    for (name, n, key_mod, blen) in [
        ("fat", 400u64, 100u64, 800usize), // IO-heavy: ~10 tuples per page
        ("thin", 3000, 150, 16),           // CPU-heavy: many tuples per page
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

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

fn optimizer() -> TwoPhaseOptimizer {
    TwoPhaseOptimizer::paper_default()
}

fn selection_run(cat: &Arc<Catalog>, name: &str, pred: (i32, i32)) -> QueryRun {
    let q = Query::selection(name, 1.0);
    let optimized = optimizer().optimize_catalog(cat, &q, Costing::SeqCost).expect("plan");
    QueryRun { optimized, bindings: vec![RelBinding { name: name.into(), pred }] }
}

fn join_run(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    let optimized = optimizer().optimize_catalog(cat, &q, Costing::SeqCost).expect("plan");
    QueryRun {
        optimized,
        bindings: vec![
            RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
        ],
    }
}

fn ref_selection(cat: &Catalog, name: &str, pred: (i32, i32)) -> HashMap<i32, usize> {
    let mut out = HashMap::new();
    for (_, t) in cat.get(name).unwrap().heap.scan() {
        let a = t.get(0).as_int().unwrap();
        if a >= pred.0 && a <= pred.1 {
            *out.entry(a).or_insert(0) += 1;
        }
    }
    out
}

fn result_multiset(rows: &xprs_executor::Materialized) -> HashMap<i32, usize> {
    let mut out = HashMap::new();
    for (k, _) in &rows.rows {
        *out.entry(*k).or_insert(0) += 1;
    }
    out
}

/// Starts the flood-victim query (task id 0) immediately and keeps up to
/// three of the chatty queries running at all times, so FragmentDone
/// messages hit the master channel continuously for the whole run.
struct FloodPolicy {
    machine: MachineConfig,
    pending: Vec<TaskId>,
}

impl SchedulePolicy for FloodPolicy {
    fn name(&self) -> &'static str {
        "flood"
    }
    fn machine(&self) -> &MachineConfig {
        &self.machine
    }
    fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
        self.pending.push(task.id);
    }
    fn on_finish(&mut self, _now: f64, _id: TaskId) {}
    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        let mut chatty = running.iter().filter(|r| r.profile.id.0 != 0).count();
        let mut out = Vec::new();
        self.pending.retain(|&id| {
            if id.0 == 0 {
                out.push(Action::Start { id, parallelism: 1.0 });
                false
            } else if chatty < 3 {
                chatty += 1;
                out.push(Action::Start { id, parallelism: 1.0 });
                false
            } else {
                true
            }
        });
        out
    }
}

/// The patrol-starvation regression, end to end: the victim query's only
/// worker dies two pages into its scan while 600 sibling queries keep the
/// master channel busy. The deadline-based patrol must reap the dead slot
/// and staff a replacement *during* the flood — under the old quiet-tick
/// patrol the victim could only finish after the last chatty query
/// drained the channel.
#[test]
fn dead_worker_is_reclaimed_while_siblings_flood_the_master() {
    let cat = catalog();
    let mut runs = vec![selection_run(&cat, "fat", (i32::MIN, i32::MAX))];
    for _ in 0..600 {
        runs.push(selection_run(&cat, "thin", (0, 9)));
    }
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 0, 2));
    let mut cfg = ExecConfig::unthrottled().with_faults(plan.clone());
    cfg.patrol_ms = 3;
    cfg.patrol_grace = 2;
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = FloodPolicy { machine: m(), pending: Vec::new() };
    let report = exec.run(&runs, &mut policy).expect("flooded run must complete");

    assert_eq!(plan.stats().deaths_fired(), 1, "the worker death must fire");
    assert!(report.worker_recoveries >= 1, "patrol must replace the dead worker");
    assert!(report.patrol_ticks >= 3, "patrol must keep ticking under continuous load");
    assert_eq!(
        result_multiset(&report.results[0].rows),
        ref_selection(&cat, "fat", (i32::MIN, i32::MAX)),
        "recovered scan must still return every row exactly once"
    );
    // Detection within the patrol deadlines, not after the flood: the
    // victim (death at ~0, reaped after `grace + 1` ticks of 3 ms, then a
    // few ms of rescanning) finishes while chatty queries are still
    // completing behind it.
    let victim_done = report.results[0].finished_at;
    let flood_done = report.results.last().unwrap().finished_at;
    assert!(
        victim_done < flood_done,
        "victim finished at {victim_done:.3}s, after the whole flood ({flood_done:.3}s): \
         the patrol starved until the channel went quiet"
    );
}

/// The read ledger under shard pressure: a one-frame-per-shard pool under
/// an 8-worker join may serve reads around the pool whenever a shard's
/// only frame is pinned, and the ledger must balance regardless:
/// `hits + misses + bypasses == reads`. (Forcing a *guaranteed* bypass
/// needs a scaled service time and lives in the `io` unit tests; here the
/// invariant must hold whatever mix the timing produced.)
#[test]
fn exhausted_shards_account_every_read() {
    let cat = catalog();
    let mut cfg = ExecConfig::unthrottled();
    cfg.bufpool_pages = 4; // one frame per shard, far below pin demand
    cfg.bufpool_shards = 4;
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let report = exec.run(&[join_run(&cat)], &mut policy).expect("run failed");

    let p = report.stats.pool;
    assert_eq!(
        p.hits + p.misses + p.bypasses,
        report.stats.reads,
        "every read must be a hit, a miss, or a bypass"
    );
    // The per-shard ledgers sum to the same totals.
    let shard_sum: u64 =
        report.pool_shards.iter().map(|s| s.hits + s.misses + s.bypasses).sum();
    assert_eq!(shard_sum, report.stats.reads);
    // A bypass is not a hit: the rate must price it into the denominator.
    assert!(p.hit_rate() <= p.hits as f64 / (p.hits + p.misses).max(1) as f64);
}

/// The `metrics.json` dump parses with the crate's own parser, balances
/// its pool ledger, splits per-disk busy time by service class, and
/// carries one profile per query.
#[test]
fn metrics_json_parses_and_balances() {
    let cat = catalog();
    let path = std::env::temp_dir().join(format!("xprs-metrics-{}.json", std::process::id()));
    let cfg = ExecConfig::unthrottled().with_metrics_out(&path);
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let runs =
        vec![join_run(&cat), selection_run(&cat, "thin", (0, 49)), selection_run(&cat, "fat", (0, 9))];
    let report = exec.run(&runs, &mut policy).expect("run failed");
    let text = std::fs::read_to_string(&path).expect("metrics.json must be written");
    std::fs::remove_file(&path).ok();

    let doc = parse(&text).expect("metrics.json must parse");
    let num = |v: &JsonValue, key: &str| {
        v.get(key).and_then(JsonValue::num).unwrap_or_else(|| panic!("missing {key}"))
    };

    // The pool ledger balances against the read count.
    let pool = doc.get("pool").expect("pool section");
    let ledger = num(pool, "hits") + num(pool, "misses") + num(pool, "bypasses");
    assert_eq!(ledger as u64, num(&doc, "reads") as u64);
    assert_eq!(num(&doc, "reads") as u64, report.stats.reads);

    // Per-disk request counts and busy time, split by service class.
    let disks = doc.get("disks").and_then(JsonValue::arr).expect("disks array");
    assert_eq!(disks.len(), 4);
    let mut count = 0.0;
    let mut busy = 0.0;
    for d in disks {
        for class in ["sequential", "almost_sequential", "random"] {
            let c = d.get(class).expect("class split");
            count += num(c, "count");
            busy += num(c, "busy");
        }
    }
    assert_eq!(count as u64, report.stats.disk.total());
    assert!(busy > 0.0, "busy time must be attributed to classes");

    // Metrics were enabled, so the hot-path sections are real histograms.
    // The gate histogram records only contended acquisitions — an
    // unthrottled run may legitimately never wait, so presence (not a
    // sample count) is what metrics-on guarantees.
    let gate = doc.get("gate_wait_ns").expect("gate_wait_ns");
    assert!(!matches!(gate, JsonValue::Null), "gate histogram must be present");
    assert!(num(gate, "count") >= 0.0);

    // One profile per query; every fragment did real units and the root
    // carries the merge shape.
    let queries = doc.get("queries").and_then(JsonValue::arr).expect("queries array");
    assert_eq!(queries.len(), 3);
    for q in queries {
        let frags = q.get("fragments").and_then(JsonValue::arr).expect("fragments");
        assert!(!frags.is_empty());
        for f in frags {
            assert!(num(f, "units") >= 1.0, "fragment did no units");
            assert!(num(f, "staffed") >= 1.0, "fragment never staffed a worker");
            assert!(num(f, "parallelism") >= 1.0, "fragment never given a processor");
            assert!(num(f, "backends") >= num(f, "parallelism"), "fewer backends than x");
        }
    }

    // The audit section exists and echoes the §2.3 band [Br, Bs].
    let audit = doc.get("utilization_audit").expect("audit section");
    let band = audit.get("band").and_then(JsonValue::arr).expect("band");
    assert_eq!(band[0].num().unwrap(), m().total_random_bandwidth());
    assert_eq!(band[1].num().unwrap(), m().total_bandwidth());
    // Unthrottled: no simulated clock, so no windows — but the solo figure
    // is part of the schema either way.
    assert_eq!(num(audit, "solo_io_disk_util"), 0.0);
    assert_eq!(num(audit, "solo_io_requests"), 0.0);
}

/// A hand-tampered decomposition — the optimizer's DAG disagrees with
/// what the compiler derives from the plan — is refused up front with
/// [`ExecError::PlanMismatch`] carrying both sides, instead of the
/// former master panic.
#[test]
fn mismatched_decomposition_is_a_typed_refusal() {
    let cat = catalog();
    let mut run = join_run(&cat);
    // Same fragments, but every dependency edge dropped: both fragments
    // now claim to be roots, which the compiled plan contradicts.
    let mut dag = FragmentDag::new();
    for t in run.optimized.fragments.dag.tasks() {
        dag.add(t.clone(), &[]);
    }
    run.optimized.fragments.dag = dag;

    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let err = exec.run(&[run], &mut policy).expect_err("mismatch must be refused");
    match err {
        ExecError::PlanMismatch { query, compiled, optimized } => {
            assert_eq!(query, 0);
            assert_ne!(compiled, optimized, "both decompositions ride on the error");
            assert!(optimized.iter().all(Vec::is_empty), "tampered side must be dep-free");
        }
        other => panic!("expected PlanMismatch, got {other:?}"),
    }
}

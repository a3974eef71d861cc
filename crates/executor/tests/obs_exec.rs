//! Observability regression tests: the blind spots `xprs-obs` exposed.
//!
//! * Patrol starvation — a dead worker must be reclaimed even while a
//!   chatty sibling stream floods the master channel (the old quiet-tick
//!   patrol only ran on `recv_timeout` timeouts, which a continuous
//!   message stream suppresses forever).
//! * Bypass accounting — a pool too small for the scan's pin pressure
//!   serves reads *around* the pool; those must be counted, so that
//!   `hits + misses + bypasses == reads` holds even under exhaustion.
//! * `metrics.json` — the rendered document must parse with the crate's own
//!   parser and its counters must balance; a scaled-time co-run must also
//!   carry the utilization audit's windows; its key paths are pinned.
//! * Malformed fragments — a hand-tampered fragment set (a forward edge,
//!   a relation without a binding) is a typed refusal, not a master panic,
//!   and so is a relation the catalog lacks, not a worker panic.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, QueryRun, RelBinding, READ_ATTEMPTS};
use xprs_obs::json::{parse, JsonValue};
use xprs_optimizer::program::PipelineOp;
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::{
    Action, MachineConfig, RunningTask, SchedulePolicy, TaskId, TaskProfile,
};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "common/policies.rs"]
mod policies;
use policies::StartAll;

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

/// A death reported in a flood: the victim query's only worker dies two
/// pages into its scan while 600 sibling queries keep the master channel
/// busy. The master must replace the dead slot when the death's report
/// reaches it, *during* the flood, and the deadline-based patrol must keep
/// ticking under the load — under the old quiet-tick patrol a tick came
/// only after the last chatty query drained the channel.
#[test]
fn dead_worker_is_reclaimed_while_siblings_flood_the_master() {
    let cat = catalog();
    let mut runs = vec![selection_run(&cat, "fat", (i32::MIN, i32::MAX))];
    for _ in 0..600 {
        runs.push(selection_run(&cat, "thin", (0, 9)));
    }
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 0, 2));
    let exec = Executor::new(ExecConfig::unthrottled().with_faults(plan.clone()), cat.clone());
    let mut policy = FloodPolicy { machine: m(), pending: Vec::new() };
    let report = exec.run(&runs, &mut policy).expect("flooded run must complete");

    assert_eq!(plan.stats().deaths_fired(), 1, "the worker death must fire");
    assert_eq!(report.worker_recoveries, plan.stats().deaths_fired(), "one replacement per death");
    assert!(report.patrol_ticks >= 3, "patrol must keep ticking under continuous load");
    assert_eq!(
        result_multiset(&report.results[0].rows),
        ref_selection(&cat, "fat", (i32::MIN, i32::MAX)),
        "recovered scan must still return every row exactly once"
    );
    // Replacement on the report, not after the flood: the victim (death at
    // ~0, then a few ms of rescanning) finishes while chatty queries are
    // still completing behind it.
    let victim_done = report.results[0].finished_at;
    let flood_done = report.results.last().unwrap().finished_at;
    assert!(
        victim_done < flood_done,
        "victim finished at {victim_done:.3}s, after the whole flood ({flood_done:.3}s): \
         the replacement waited until the channel went quiet"
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
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let runs =
        vec![join_run(&cat), selection_run(&cat, "thin", (0, 49)), selection_run(&cat, "fat", (0, 9))];
    let report = exec.run(&runs, &mut policy).expect("run failed");

    let doc = parse(&report.metrics_json()).expect("metrics.json must parse");
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

    // Every run collects its hot-path metrics, so the sections are real
    // histograms. The gate histogram records only contended acquisitions —
    // an unthrottled run may legitimately never wait, so presence (not a
    // sample count) is what is guaranteed.
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

/// Every key path of an unthrottled run's `metrics.json`, with the type of its value, as rendered before the document was built as one
/// `JsonValue` tree. `[]` is an array of objects (its first element's keys
/// stand for all); other arrays are not descended.
const METRICS_KEY_PATHS: &str = "\
    :obj schema:str machine:obj machine.n_procs:num machine.n_disks:num machine.seq_bw:num \
    machine.almost_seq_bw:num machine.random_bw:num scale:num wall:num reads:num cpu_busy:num \
    pool:obj pool.hits:num pool.misses:num pool.evictions:num pool.bypasses:num pool.fetches:num \
    pool.hit_rate:num pool.shards:arr pool.shards[]:obj pool.shards[].hits:num \
    pool.shards[].misses:num pool.shards[].evictions:num pool.shards[].bypasses:num disks:arr \
    disks[]:obj disks[].sequential:obj disks[].sequential.count:num disks[].sequential.busy:num \
    disks[].almost_sequential:obj disks[].almost_sequential.count:num \
    disks[].almost_sequential.busy:num disks[].random:obj disks[].random.count:num \
    disks[].random.busy:num disks[].queue_wait:num events:obj events.staffed:num \
    events.adjusts:num events.heartbeats:num events.patrol_ticks:num events.recoveries:num \
    events.recalibrations:num events.pool_threads:num memory:obj memory.granted_pages:num \
    memory.released_pages:num memory.grant_waits:num memory.spill_chunks:num \
    memory.spill_rows:num memory.pinned_at_exit:num memory.footprint_overruns:num predict:obj \
    predict.substitutions:num predict.fallbacks:num gate_wait_ns:obj gate_wait_ns.count:num \
    gate_wait_ns.sum:num gate_wait_ns.mean:num gate_wait_ns.max:num gate_wait_ns.p50:num \
    gate_wait_ns.p99:num gate_wait_ns.buckets:arr io:obj io.retries:num io.faults:num \
    io.unpin_anomalies:num merge:obj merge.fanout:obj merge.fanout.count:num \
    merge.fanout.sum:num merge.fanout.mean:num merge.fanout.max:num merge.fanout.p50:num \
    merge.fanout.p99:num merge.fanout.buckets:arr merge.runs:obj merge.runs.count:num \
    merge.runs.sum:num merge.runs.mean:num merge.runs.max:num merge.runs.p50:num \
    merge.runs.p99:num merge.runs.buckets:arr merge.run_rows:obj merge.run_rows.count:num \
    merge.run_rows.sum:num merge.run_rows.mean:num merge.run_rows.max:num merge.run_rows.p50:num \
    merge.run_rows.p99:num merge.run_rows.buckets:arr merge.hot_keys:num merge.way_rows:obj \
    merge.way_rows.count:num merge.way_rows.sum:num merge.way_rows.mean:num \
    merge.way_rows.max:num merge.way_rows.p50:num merge.way_rows.p99:num \
    merge.way_rows.buckets:arr morsel:obj morsel.steals:num morsel.steal_fails:num \
    morsel.morsel_ns:obj morsel.morsel_ns.count:num morsel.morsel_ns.sum:num \
    morsel.morsel_ns.mean:num morsel.morsel_ns.max:num morsel.morsel_ns.p50:num \
    morsel.morsel_ns.p99:num morsel.morsel_ns.buckets:arr morsel.steal_idle_ns:obj \
    morsel.steal_idle_ns.count:num morsel.steal_idle_ns.sum:num morsel.steal_idle_ns.mean:num \
    morsel.steal_idle_ns.max:num morsel.steal_idle_ns.p50:num morsel.steal_idle_ns.p99:num \
    morsel.steal_idle_ns.buckets:arr queries:arr queries[]:obj queries[].query:num \
    queries[].finished_at:num queries[].rows:num queries[].cancelled:bool \
    queries[].fragments:arr queries[].fragments[]:obj queries[].fragments[].task:num \
    queries[].fragments[].is_root:bool queries[].fragments[].started_at:num \
    queries[].fragments[].finished_at:num queries[].fragments[].units:num \
    queries[].fragments[].staffed:num queries[].fragments[].parallelism:num \
    queries[].fragments[].backends:num queries[].fragments[].adjusts:num \
    queries[].fragments[].heartbeats:num queries[].fragments[].merge:obj \
    queries[].fragments[].merge.runs:num queries[].fragments[].merge.rows:num \
    queries[].fragments[].merge.ways:num queries[].fragments[].merge.parallel:bool \
    queries[].fragments[].merge.hot_keys:num queries[].fragments[].merge.way_rows_max:num \
    queries[].fragments[].merge.way_rows_mean:num queries[].fragments[].observed_pages:num \
    queries[].fragments[].declared_pages:num utilization_audit:obj utilization_audit.band:arr \
    utilization_audit.paired_bw:num utilization_audit.paired_requests:num \
    utilization_audit.paired_disk_util:num utilization_audit.paired_cpu_util:num \
    utilization_audit.paired_in_band:bool utilization_audit.solo_io_requests:num \
    utilization_audit.solo_io_disk_util:num utilization_audit.windows:arr";

/// `path:type` for `v` and everything under it, in document order.
fn key_paths(v: &JsonValue, path: &str, out: &mut Vec<String>) {
    let kind = match v {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "bool",
        JsonValue::Num(_) | JsonValue::UInt(_) => "num",
        JsonValue::Str(_) => "str",
        JsonValue::Arr(_) => "arr",
        JsonValue::Obj(_) => "obj",
    };
    out.push(format!("{path}:{kind}"));
    match v {
        JsonValue::Obj(fields) => {
            for (k, x) in fields {
                key_paths(x, &if path.is_empty() { k.clone() } else { format!("{path}.{k}") }, out);
            }
        }
        JsonValue::Arr(items) => {
            if let Some(first @ JsonValue::Obj(_)) = items.first() {
                key_paths(first, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

/// `metrics.json` keeps its key paths, their order and their value types.
#[test]
fn metrics_json_key_paths_are_pinned() {
    let cat = catalog();
    let pinned: Vec<String> = METRICS_KEY_PATHS.split_whitespace().map(str::to_string).collect();
    let runs = [join_run(&cat), selection_run(&cat, "thin", (0, 49))];
    let report = Executor::new(ExecConfig::unthrottled(), cat.clone())
        .run(&runs, &mut IntraOnly::new(m(), true))
        .expect("run failed");
    let mut got = Vec::new();
    key_paths(&parse(&report.metrics_json()).expect("metrics.json must parse"), "", &mut got);
    assert_eq!(got, pinned);
}

/// A default-configuration run records its hot-path metrics: every
/// injected transient read error that a retry absorbed shows up as one
/// `io.retries` in `metrics.json`, and nothing escalated to a fault.
#[test]
fn a_default_run_counts_its_read_retries() {
    let cat = catalog();
    let fat = cat.get("fat").expect("fat").heap.rel();
    let plan = Arc::new(FaultPlan::new().with_read_error(fat, 3, READ_ATTEMPTS - 1));
    let cfg = ExecConfig::unthrottled().with_faults(plan.clone());
    let report = Executor::new(cfg, cat.clone())
        .run(&[selection_run(&cat, "fat", (0, 9))], &mut IntraOnly::new(m(), true))
        .expect("a retried read must not fail the run");
    assert!(report.metrics.is_some(), "every run carries its registry");

    let doc = parse(&report.metrics_json()).expect("metrics.json must parse");
    let io = doc.get("io").expect("io section");
    let field = |k: &str| io.get(k).and_then(JsonValue::num).unwrap_or_else(|| panic!("io.{k}"));
    let fired = plan.stats().read_errors_fired();
    assert_eq!(fired, u64::from(READ_ATTEMPTS - 1), "every scheduled error must fire");
    assert_eq!(field("retries") as u64, fired);
    assert_eq!(field("faults"), 0.0);
}

/// The parts of `metrics.json` only a scaled-time run fills: two co-running
/// scans leave audit windows, each carrying the planned bandwidth, the disk
/// queue and `[task, x, backends]` per running fragment; every disk reports
/// its queue wait, and the per-shard pool ledgers sum to the read count. The
/// band itself is a timing figure, asserted by the release-mode
/// `perf_gates::paired_scans_at_8_workers_run_in_the_disk_band`, not here.
#[test]
fn scaled_co_run_dump_carries_the_audit_windows() {
    let cat = catalog();
    let exec = Executor::new(ExecConfig::scaled(50.0), cat.clone());
    let mut policy = StartAll::new(m(), 2);
    let runs = [
        selection_run(&cat, "fat", (i32::MIN, i32::MAX)),
        selection_run(&cat, "thin", (i32::MIN, i32::MAX)),
    ];
    let report = exec.run(&runs, &mut policy).expect("run failed");

    let doc = parse(&report.metrics_json()).expect("metrics.json must parse");
    let num = |v: &JsonValue, key: &str| {
        v.get(key).and_then(JsonValue::num).unwrap_or_else(|| panic!("missing {key}"))
    };
    let shards = doc.get("pool").and_then(|p| p.get("shards")).and_then(JsonValue::arr);
    let shard_reads: f64 = shards
        .expect("per-shard pool ledgers")
        .iter()
        .map(|s| num(s, "hits") + num(s, "misses") + num(s, "bypasses"))
        .sum();
    assert_eq!(shard_reads, num(&doc, "reads"), "per-shard ledgers must sum to the reads");

    for d in doc.get("disks").and_then(JsonValue::arr).expect("disks array") {
        assert!(num(d, "queue_wait") >= 0.0, "disk without a queue wait: {d:?}");
    }

    let audit = doc.get("utilization_audit").expect("audit section");
    let windows = audit.get("windows").and_then(JsonValue::arr).expect("windows array");
    assert!(!windows.is_empty(), "a scaled co-run must leave audit windows");
    for w in windows {
        for key in ["planned_bw", "queue_wait", "queue_depth"] {
            num(w, key);
        }
        for t in w.get("tasks").and_then(JsonValue::arr).expect("tasks") {
            let t = t.arr().expect("[task, x, backends]");
            assert_eq!(t.len(), 3, "tasks entry is not [task, x, backends]: {t:?}");
            let (x, backends) = (t[1].num().expect("x"), t[2].num().expect("backends"));
            assert!(backends >= x, "fewer backends than x: {t:?}");
        }
    }
}

/// A hand-tampered decomposition — a fragment whose program reads a
/// fragment emitted after it — is refused up front with
/// [`ExecError::MalformedFragment`], instead of a master panic.
#[test]
fn mismatched_decomposition_is_a_typed_refusal() {
    let cat = catalog();
    let mut run = join_run(&cat);
    let fragments = &mut run.optimized.fragments.fragments;
    assert!(fragments.len() >= 2, "the join cuts into a build and a probe fragment");
    // The first fragment now probes the root: a forward edge.
    let root = fragments.len() - 1;
    fragments[0].program.ops.push(PipelineOp::ProbeHash { dep: root });

    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let err = exec.run(&[run], &mut policy).expect_err("a forward edge must be refused");
    assert_eq!(err, ExecError::MalformedFragment { query: 0, fragment: 0 });
}

/// A query whose bindings do not cover its plan's relations is refused up
/// front with [`ExecError::MalformedFragment`]; it used to index past the
/// bindings and panic the master.
#[test]
fn unbound_relation_is_a_typed_refusal() {
    let cat = catalog();
    let mut run = join_run(&cat);
    run.bindings.truncate(1);
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let mut policy = IntraOnly::new(m(), true);
    let err = exec.run(&[run], &mut policy).expect_err("an unbound relation must be refused");
    assert!(matches!(err, ExecError::MalformedFragment { query: 0, .. }), "got {err:?}");
}

/// A bound relation the catalog lacks is [`ExecError::UnknownRelation`],
/// found before the fragment that reads it is staffed — whether its driver
/// scans it or a merge-indexed probe reads it. The probe used to resolve it
/// inside every worker and panic them all.
///
/// The probe's refusal comes as the master re-decides after the build
/// fragment completed. The run ends by waiting for its channel to close, so
/// it must not still hold that fragment's context (and its sender) there:
/// if it did, the run would return only at the 30 s quiesce cap.
#[test]
fn unknown_relation_is_a_typed_refusal() {
    let cat = catalog();
    let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
    let ghost = |fragment| ExecError::UnknownRelation { fragment, name: "ghost".into() };

    let mut run = join_run(&cat);
    run.bindings.push(RelBinding { name: "ghost".into(), pred: (i32::MIN, i32::MAX) });
    let root = run.optimized.fragments.fragments.len() - 1;
    run.optimized.fragments.fragments[root].program.ops.push(PipelineOp::MergeIndexed { rel: 2 });
    let mut policy = IntraOnly::new(m(), true);
    let t0 = Instant::now();
    assert_eq!(exec.run(&[run], &mut policy).unwrap_err(), ghost(root));
    assert!(t0.elapsed() < Duration::from_secs(10), "the refused run waited out the quiesce cap");

    let mut run = selection_run(&cat, "thin", (i32::MIN, i32::MAX));
    run.bindings[0].name = "ghost".into();
    let mut policy = IntraOnly::new(m(), true);
    assert_eq!(exec.run(&[run], &mut policy).unwrap_err(), ghost(0));
}

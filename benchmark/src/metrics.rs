//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end number each should move.
//! `BENCHMARK.json` is this file printed (`run.sh spec`), and `compare`
//! applies the bounds from here.
//!
//! **Two clocks, never mixed.** A metric whose unit is `s`, `ms`, `us`,
//! `ns` or `1/s` is host time of this program (wall, or process CPU where
//! it says CPU). A metric whose unit is `sim_s` is seconds on the modelled
//! 8-CPU / 4-disk machine: bit-exact from the DES and the fluid model, wall
//! × speed-up from the threaded executor.

use crate::sut::{fnum, jstr};

pub struct WorkloadDef {
    pub name: &'static str,
    /// The operation its end-to-end metrics count and time.
    pub op: &'static str,
    /// What `within_limit_share` counts an operation against.
    pub limit: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// end-to-end metrics to their bounds. Only the two workloads whose time
    /// is mostly modelled sleeps are: the three whose time is real CPU move
    /// with the host (their median latency spread 3–33 % between sets of ten
    /// runs of the same code, README *Noise on this host*), which no bound the
    /// contract allows can hold. They run from `run.sh` and in every traced
    /// run's sweep all the same.
    pub driven: bool,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "cached_scan",
        op: "one 5 % selection over a 1 M-tuple relation (2 workers, pool-resident)",
        limit: "30 ms",
        why: "Unthrottled pool-resident parallel selection: real CPU only, so heap scan, pool hit path, unit claiming and master turnaround decide it; disk model, merge and service do nothing.",
        driven: false,
    },
    WorkloadDef {
        name: "cached_join",
        op: "one 200 k ⋈ 8 k hash join (2 workers, pool-resident)",
        limit: "100 ms",
        why: "Unthrottled hash join with a 200k-tuple build side: sorted runs, k-way merge, CSR build and probe dominate and scan is minor, so a scan gain that costs materialization shows here.",
        driven: false,
    },
    WorkloadDef {
        name: "disk_mix",
        op: "one pair of paper §3 ten-task sets, an Extreme then a RandomMix one, each submitted at once",
        limit: "6 000 ms for the pair (120 simulated s), every task's answer right",
        why: "Paper section 3 task sets on real threads at 20x scaled sleeps: pairing, adjustment, steal affinity and I/O order decide wall time, ns/tuple does not; the no-change control for data-path work.",
        driven: true,
    },
    WorkloadDef {
        name: "service_open",
        op: "one request of a 4-tenant open-loop Poisson schedule, timed from its due time",
        limit: "150 ms interactive, 600 ms batch",
        why: "Open-loop Poisson lookups and joins through QueryService at 40x: runs share one machine via queue, grants and spill, so batch interference sets the interactive tail; admission changes show only here.",
        driven: true,
    },
    WorkloadDef {
        name: "sched_sim",
        op: "one job: a task set through DES and fluid under all three policies, plus one ParCost plan",
        limit: "12 ms",
        why: "No threads or sleeps: DES, fluid model and ParCost planning drive the scheduler core; simulated results repeat exactly, so a scheduler refactor must keep them while host speed may move.",
        driven: false,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Reported by every workload with `--trace 0`. Three, because every one of
/// them is held to its bound on every driven workload by runs of the same
/// code on a host whose speed drifts (README *Noise on this host*): throughput is
/// the reciprocal of latency in the closed-loop workloads and the offered
/// rate in the open loop, and the 95th percentile and CPU per operation did
/// not hold 0.25, so all three are per-layer metrics under their workload's
/// prefix.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        what: "median wall time of one operation over the whole run",
    },
    EndToEnd {
        name: "within_limit_share",
        unit: "share",
        better: "higher",
        bound: 0.10,
        what: "share of offered operations answered correctly within the workload's latency limit; a failed, shed or cancelled one misses it",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        what: "generate + load + index + plan + service start, median of several set-ups",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Module the metric isolates.
    pub layer: &'static str,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// Reported by every workload with `--trace 1` (the layer sweep).
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 82] = [
    // disk (model, array)
    pl("disk.serve_ns", "ns", "lower", "disk::model", "latency_p50_ms on sched_sim; nothing on cached_*"),
    pl("disk.seq_share", "share", "higher", "disk::model", "latency_p50_ms on disk_mix"),
    pl("disk.almost_seq_share", "share", "higher", "disk::model", "latency_p50_ms on disk_mix"),
    pl("disk.random_share", "share", "lower", "disk::model", "latency_p50_ms on disk_mix"),
    pl("disk.util", "share", "higher", "disk::array", "latency_p50_ms on disk_mix"),
    pl("disk.io_per_sim_s", "1/sim_s", "higher", "disk::array", "latency_p50_ms on disk_mix"),
    // storage::shardpool
    pl("shardpool.hit_ns", "ns", "lower", "storage::shardpool", "latency_p50_ms on cached_scan; no change on disk_mix"),
    pl("shardpool.miss_ns", "ns", "lower", "storage::shardpool", "latency_p50_ms on disk_mix"),
    pl("shardpool.hit_ns_mt", "ns", "lower", "storage::shardpool", "latency_p50_ms on cached_scan"),
    pl("shardpool.reserve_ns", "ns", "lower", "storage::shardpool", "latency_p50_ms on service_open"),
    pl("shardpool.hit_rate", "share", "higher", "storage::shardpool", "latency_p50_ms on cached_scan"),
    // storage::heap / page
    pl("heap.scan_ns_tuple", "ns", "lower", "storage::heap", "floor of latency_p50_ms on cached_scan"),
    pl("heap.allocs_per_tuple", "count", "lower", "storage::heap", "latency_p50_ms on cached_scan"),
    // storage::runs
    pl("runs.merge_ns_row", "ns", "lower", "storage::runs", "latency_p50_ms on cached_join; none on cached_scan"),
    pl("runs.split_ns_row", "ns", "lower", "storage::runs", "latency_p50_ms on cached_join"),
    pl("runs.csr_build_ns_row", "ns", "lower", "storage::runs", "latency_p50_ms on cached_join"),
    pl("runs.csr_lookup_ns", "ns", "lower", "storage::runs", "latency_p50_ms on cached_join"),
    // executor::io
    pl("machine.read_hit_ns", "ns", "lower", "executor::io", "latency_p50_ms on cached_scan"),
    pl("machine.compute_ns", "ns", "lower", "executor::io", "latency_p50_ms on cached_scan"),
    pl("machine.sleep_overshoot", "ratio", "lower", "executor::io", "latency_p50_ms on disk_mix; latency_p50_ms on service_open"),
    // executor::steal
    pl("steal.claim_ns", "ns", "lower", "executor::steal", "latency_p50_ms on cached_scan"),
    pl("steal.claim_ns_mt", "ns", "lower", "executor::steal", "latency_p50_ms on cached_scan"),
    pl("steal.steals", "count", "lower", "executor::steal", "latency_p50_ms on disk_mix"),
    pl("steal.steal_fails", "count", "lower", "executor::steal", "latency_p50_ms on disk_mix"),
    // executor::pool
    pl("pool.dispatch_us", "us", "lower", "executor::pool", "latency_p50_ms on cached_scan and cached_join"),
    pl("pool.threads_spawned", "count", "lower", "executor::pool", "latency_p50_ms on cached_scan"),
    pl("pool.jobs", "count", "lower", "executor::pool", "latency_p50_ms on cached_scan"),
    // executor::master / worker
    pl("master.noop_query_us", "us", "lower", "executor::master", "latency_p50_ms on cached_scan and service_open"),
    pl("master.heartbeats_per_unit", "ratio", "lower", "executor::master", "latency_p50_ms on disk_mix"),
    pl("master.adjusts", "count", "higher", "executor::master", "latency_p50_ms on disk_mix"),
    pl("executor.overhead_ns_tuple", "ns", "lower", "executor::worker", "latency_p50_ms on cached_scan"),
    pl("worker.scaling_eff", "ratio", "higher", "executor::worker", "latency_p50_ms on cached_scan"),
    pl("worker.oversub_ratio", "ratio", "higher", "executor::worker", "latency_p50_ms on cached_scan"),
    pl("mix.cpu_util", "share", "higher", "executor::io", "latency_p50_ms on disk_mix"),
    pl("mix.gate_waits", "count", "lower", "executor::io", "latency_p50_ms on disk_mix"),
    // scheduler
    pl("adaptive.decide_us", "us", "lower", "scheduler::adaptive", "latency_p50_ms on sched_sim"),
    pl("balance.point_ns", "ns", "lower", "scheduler::balance", "latency_p50_ms on sched_sim"),
    pl("fluid.run_us", "us", "lower", "scheduler::fluid", "latency_p50_ms on sched_sim"),
    pl("mix.fidelity_ratio", "ratio", "lower", "scheduler", "latency_p50_ms on disk_mix"),
    pl("mix.adj_gain_exec", "share", "higher", "scheduler", "latency_p50_ms on disk_mix"),
    // sim::engine
    pl("des.run_us", "us", "lower", "sim::engine", "latency_p50_ms on sched_sim"),
    pl("des.events_per_s", "1/s", "higher", "sim::engine", "latency_p50_ms on sched_sim"),
    // optimizer
    pl("optimizer.seqcost_ms", "ms", "lower", "optimizer", "setup_s everywhere"),
    pl("optimizer.parcost_ms", "ms", "lower", "optimizer", "latency_p50_ms on sched_sim"),
    // service
    pl("service.submit_us", "us", "lower", "service", "latency_p50_ms on service_open"),
    pl("service.noop_roundtrip_us", "us", "lower", "service", "latency_p50_ms on service_open"),
    pl("service.queue_wait_p50_ms", "ms", "lower", "service", "latency_p50_ms on service_open"),
    pl("service.queue_wait_p95_ms", "ms", "lower", "service", "within_limit_share on service_open"),
    pl("service.shed_share", "share", "lower", "service", "failed operations on service_open"),
    pl("service.cancel_share", "share", "lower", "service", "failed operations on service_open"),
    pl("service.grant_waits", "count", "lower", "service", "within_limit_share on service_open"),
    pl("service.spill_chunks", "count", "lower", "service", "within_limit_share on service_open"),
    pl("service.gen_lateness_p99_ms", "ms", "lower", "benchmark generator", "none; above 5 ms the host stalled the generator"),
    pl("service.goodput_qps", "1/s", "higher", "service", "latency_p50_ms on service_open"),
    pl("service.interactive_p50_ms", "ms", "lower", "service", "latency_p50_ms on service_open"),
    pl("service.interactive_p95_ms", "ms", "lower", "service", "within_limit_share on service_open"),
    pl("service.batch_p50_ms", "ms", "lower", "service", "within_limit_share on service_open"),
    pl("service.within_limit_share", "share", "higher", "service", "within_limit_share on service_open"),
    // workload / catalog / btree
    pl("workload.gen_s", "s", "lower", "workload", "setup_s"),
    pl("catalog.load_s", "s", "lower", "storage::catalog", "setup_s"),
    pl("btree.build_s", "s", "lower", "storage::btree", "setup_s"),
    // What one workload alone can report: the issue's end-to-end names, and
    // the throughput, tail and CPU figures that did not hold a bound.
    pl("scan.throughput_mtuples_s", "Mtuples/s", "higher", "cached_scan", "latency_p50_ms on cached_scan"),
    pl("scan.cpu_ns_per_tuple", "ns", "lower", "cached_scan", "latency_p50_ms on cached_scan"),
    pl("join.throughput_mtuples_s", "Mtuples/s", "higher", "cached_join", "latency_p50_ms on cached_join"),
    pl("join.cpu_ns_per_tuple", "ns", "lower", "cached_join", "latency_p50_ms on cached_join"),
    pl("scan.latency_p95_ms", "ms", "lower", "cached_scan", "within_limit_share on cached_scan"),
    pl("join.latency_p95_ms", "ms", "lower", "cached_join", "within_limit_share on cached_join"),
    pl("sched.latency_p95_ms", "ms", "lower", "sched_sim", "within_limit_share on sched_sim"),
    pl("mix.tasks_per_s", "1/s", "higher", "disk_mix", "latency_p50_ms on disk_mix"),
    pl("mix.cpu_us_per_task", "us", "lower", "disk_mix", "none while sleeps dominate; latency_p50_ms on disk_mix if it grows"),
    pl("service.cpu_us_per_request", "us", "lower", "service_open", "latency_p50_ms on service_open"),
    pl("sched.cpu_us_per_job", "us", "lower", "sched_sim", "latency_p50_ms on sched_sim"),
    pl("mix.makespan_sim_s", "sim_s", "lower", "disk_mix", "latency_p50_ms on disk_mix"),
    pl("mix.mean_response_sim_s", "sim_s", "lower", "disk_mix", "latency_p50_ms on disk_mix"),
    pl("sched.makespan_sim_s", "sim_s", "lower", "sched_sim", "none; exact for a seed"),
    pl("sched.mean_response_sim_s", "sim_s", "lower", "sched_sim", "none; exact for a seed"),
    pl("sched.adj_gain", "share", "higher", "sched_sim", "none; exact for a seed"),
    pl("sched.tasksets_per_s", "1/s", "higher", "sched_sim", "latency_p50_ms on sched_sim"),
    pl("sched.plan_ms", "ms", "lower", "sched_sim", "latency_p50_ms on sched_sim"),
    // obs and the whole
    pl("obs.overhead_ratio", "ratio", "lower", "obs", "none; the price of --trace on the workload run"),
    pl("trace.spans", "count", "lower", "benchmark trace", "none"),
    pl("unattributed_share", "share", "lower", "all", "shrinks as later issues add spans inside the program"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The tables of `benchmark/README.md`, printed from the definitions above
/// (`run.sh metrics`) so the document and the code cannot drift apart.
pub fn markdown() -> String {
    let mut s = String::from(
        "### Workloads\n\n| name | one operation | latency limit | in `BENCHMARK.json` | why it exists |\n|---|---|---|---|---|\n",
    );
    for w in &WORKLOADS {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            w.name,
            w.op,
            w.limit,
            if w.driven { "yes" } else { "no" },
            w.why
        ));
    }
    s.push_str("\n### End-to-end metrics (every workload, `--trace 0`)\n\n");
    s.push_str("| name | unit · better | bound | what |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        s.push_str(&format!(
            "| `{}` | {} · {} | {} | {} |\n",
            m.name, m.unit, m.better, m.bound, m.what
        ));
    }
    s.push_str("\n### Per-layer metrics (the layer sweep, `--trace 1`)\n\n");
    s.push_str("| name | unit · better | layer | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        s.push_str(&format!(
            "| `{}` | {} · {} | {} | {} |\n",
            m.name, m.unit, m.better, m.layer, m.moves
        ));
    }
    s
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 45;

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.driven)
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                jstr(w.name),
                jstr(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                jstr(m.name),
                jstr(m.unit),
                jstr(m.better),
                fnum(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                jstr(m.name),
                jstr(m.unit),
                jstr(m.better)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

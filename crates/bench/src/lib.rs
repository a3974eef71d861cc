//! # xprs-bench
//!
//! Harness utilities shared by the experiment binaries that regenerate the
//! paper's tables and figures (see `src/bin/`), plus Criterion microbenches
//! under `benches/`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3_classification` | Figure 3 — IO-bound vs CPU-bound task lines |
//! | `fig4_balance_point` | Figure 4 — the IO-CPU balance point |
//! | `protocol_trace` | Figures 5/6 — the dynamic adjustment protocols |
//! | `table_io_rates` | Section 3's task-rate table and disk-bandwidth measurements |
//! | `fig7_schedulers` | Figure 7 — the three algorithms × four workloads |
//! | `sec4_optimizer` | Section 4 — seqcost vs parcost plan choice |
//! | `ablation_pairing` | pairing heuristic ablation (most-extreme / FIFO / SJF) |
//! | `ablation_seek_model` | planning with vs without the seek-interference correction |
//! | `ablation_adjust_latency` | sensitivity to the adjustment-protocol latency |
//! | `ablation_two_tasks` | the "two tasks suffice" claim vs k-way co-scheduling |

use xprs::{PolicyKind, XprsSystem};
use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskProfile};
use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

/// A policy that runs fragments **one at a time**, each with a fixed worker
/// count, and never adjusts.
///
/// The executor benches need the worker count to be the *independent
/// variable*; the paper's policies compute their own allocations (and
/// `IntraOnly` always uses the whole machine), so none of them can hold
/// parallelism at 1, 2, 4, 8 for a throughput curve. Fragments run
/// serially so a multi-query bench exercises fragment turnaround — the
/// regime where per-slot thread staffing cost shows.
pub struct FixedParallelism {
    machine: MachineConfig,
    workers: u32,
    pending: Vec<TaskProfile>,
}

impl FixedParallelism {
    /// A policy for `machine` starting every fragment with `workers` workers.
    pub fn new(machine: MachineConfig, workers: u32) -> Self {
        assert!(workers >= 1);
        FixedParallelism { machine, workers, pending: Vec::new() }
    }
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

    fn on_finish(&mut self, _now: f64, _id: xprs_scheduler::TaskId) {}

    fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
        if !running.is_empty() || self.pending.is_empty() {
            return Vec::new();
        }
        let t = self.pending.remove(0);
        vec![Action::Start { id: t.id, parallelism: self.workers as f64 }]
    }
}

/// Shared scenario for the executor data-path benches: a parallel full scan
/// of one relation, with the worker count as the independent variable.
pub mod exec_scan {
    use std::sync::Arc;
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::{Catalog, Datum, Schema, Tuple};

    use super::FixedParallelism;

    /// One timed scan workload: wall times plus the counters the bench
    /// reports.
    #[derive(Debug, Clone, Copy)]
    pub struct ScanRun {
        /// Tuples the workload examined (relation cardinality × queries).
        pub tuples: u64,
        /// Tuples the selections emitted (sanity check, > 0).
        pub emitted: u64,
        /// Wall-clock seconds for the whole run.
        pub wall: f64,
        /// Wall-clock seconds of the scan phase — first fragment start to
        /// last fragment finish, the span the data path determines.
        pub scan_wall: f64,
        /// Buffer-pool hit fraction over the run.
        pub hit_rate: f64,
        /// OS threads the run created (pool growth).
        pub pool_threads: u64,
        /// Worker-slot staffing jobs submitted.
        pub pool_jobs: u64,
    }

    /// A catalog holding one `scan_src(a, b)` relation of `n_tuples`
    /// minimum-size tuples (the paper's `r_min` shape: hundreds of tuples
    /// per page, so the scan is emit-rate-bound — the regime where data-path
    /// contention shows, per §2.3's CPU-bound end of the balance spectrum).
    pub fn catalog(n_tuples: u64) -> Arc<Catalog> {
        let mut cat = Catalog::new(StripedLayout::new(4));
        cat.create("scan_src", Schema::paper_rel());
        let mut seed = 0xBEEF_u64;
        let rows: Vec<Tuple> = (0..n_tuples)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((seed >> 33) % 1000) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text(String::new())])
            })
            .collect();
        cat.load("scan_src", rows);
        cat.build_index("scan_src", false);
        Arc::new(cat)
    }

    /// Run `n_queries` back-to-back parallel selections over `scan_src`
    /// with `workers` workers each, at full speed (no throttling sleeps).
    ///
    /// Every query page-scans the whole relation; the selection predicate
    /// keeps ~5% of the tuples so the single-threaded result harvest stays
    /// negligible next to the scan itself. Sequential queries make
    /// fragment turnaround part of the measurement.
    pub fn run(cat: &Arc<Catalog>, workers: u32, n_queries: usize) -> ScanRun {
        run_with_obs(cat, workers, n_queries, false)
    }

    /// [`run`], with hot-path metrics collection on or off — the A/B the
    /// observability overhead gate (`bench_obs`, CI `obs` leg) measures.
    pub fn run_with_obs(
        cat: &Arc<Catalog>,
        workers: u32,
        n_queries: usize,
        obs: bool,
    ) -> ScanRun {
        let relation_tuples = cat.get("scan_src").expect("bench relation").stats().n_tuples;
        let q = Query::selection("scan_src", 1.0);
        let optimized = TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &q, Costing::SeqCost)
            .expect("plan");
        let bindings = vec![RelBinding { name: "scan_src".into(), pred: (0, 49) }];
        let runs: Vec<QueryRun> = (0..n_queries)
            .map(|_| QueryRun { optimized: optimized.clone(), bindings: bindings.clone() })
            .collect();
        let mut cfg = ExecConfig::unthrottled();
        if obs {
            cfg = cfg.with_obs();
        }
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = FixedParallelism::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("bench scan failed");
        let wall = t0.elapsed().as_secs_f64();
        let first_start =
            report.fragment_times.iter().map(|&(_, s, _)| s).fold(f64::INFINITY, f64::min);
        let last_finish =
            report.fragment_times.iter().map(|&(_, _, f)| f).fold(0.0f64, f64::max);
        ScanRun {
            tuples: relation_tuples * n_queries as u64,
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            wall,
            scan_wall: last_finish - first_start,
            // Bypass-aware: a fetch refused under pin pressure is a real
            // page read the pool failed to serve, not a non-event.
            hit_rate: report.stats.pool.hit_rate(),
            pool_threads: report.pool_threads,
            pool_jobs: report.pool_jobs,
        }
    }
}

/// Shared scenario for the utilization audit: two IO-heavy scans co-run
/// under a throttled (scaled-time) machine, so the §2.2–2.3 predictions
/// about paired disk bandwidth are *measurable* — the audit compares the
/// request rate the disks actually served inside the pairing window
/// against the `[Br, Bs]` band and the seek-corrected
/// `B = Br + (1 − ratio)(Bs − Br)`.
pub mod exec_obs {
    use std::path::Path;
    use std::sync::Arc;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding, UtilizationAudit};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
    use xprs_scheduler::{MachineConfig, TaskProfile};
    use xprs_storage::{Catalog, Datum, Schema, Tuple};

    /// A policy that starts **every** arrived task immediately with a fixed
    /// worker count and never adjusts: with two single-fragment queries it
    /// manufactures exactly one long §2.2 pairing window, which is what the
    /// audit needs. ([`super::FixedParallelism`] runs fragments one at a
    /// time and can never produce a paired window.)
    pub struct CoRun {
        machine: MachineConfig,
        workers: u32,
        pending: Vec<TaskProfile>,
    }

    impl CoRun {
        /// A policy for `machine` starting every fragment with `workers`
        /// workers the moment it becomes runnable.
        pub fn new(machine: MachineConfig, workers: u32) -> Self {
            assert!(workers >= 1);
            CoRun { machine, workers, pending: Vec::new() }
        }
    }

    impl SchedulePolicy for CoRun {
        fn name(&self) -> &'static str {
            "co-run"
        }

        fn machine(&self) -> &MachineConfig {
            &self.machine
        }

        fn on_arrival(&mut self, _now: f64, task: TaskProfile) {
            self.pending.push(task);
        }

        fn on_finish(&mut self, _now: f64, _id: xprs_scheduler::TaskId) {}

        fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
            self.pending
                .drain(..)
                .map(|t| Action::Start { id: t.id, parallelism: self.workers as f64 })
                .collect()
        }
    }

    /// Two relations of `tuples_each` fat (800-byte) rows — ~10 tuples per
    /// page, both striped over all four disks, so two concurrent scans
    /// interleave on every spindle and the §2.3 seek interference is real.
    pub fn catalog(tuples_each: u64) -> Arc<Catalog> {
        let mut cat = Catalog::new(StripedLayout::new(4));
        let mut seed = 0x0BDA_u64;
        for name in ["pair_a", "pair_b"] {
            cat.create(name, Schema::paper_rel());
            let rows: Vec<Tuple> = (0..tuples_each)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let a = ((seed >> 33) % 1000) as i32;
                    Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(800))])
                })
                .collect();
            cat.load(name, rows);
        }
        Arc::new(cat)
    }

    /// One full table scan of `name`, planned by the optimizer.
    pub fn full_scan(cat: &Catalog, name: &str) -> QueryRun {
        let q = Query::selection(name, 1.0);
        QueryRun {
            optimized: TwoPhaseOptimizer::paper_default()
                .optimize_catalog(cat, &q, Costing::SeqCost)
                .expect("plan"),
            bindings: vec![RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) }],
        }
    }

    /// The audit runs' configuration: time scale `scale`, metrics enabled,
    /// and a pool that cannot cache either scan — every page read is a disk
    /// request, as in the paper's larger-than-memory workloads.
    pub fn config(scale: f64) -> ExecConfig {
        let mut cfg = ExecConfig::scaled(1.0 / scale).with_obs();
        cfg.bufpool_pages = 64;
        cfg
    }

    /// Co-run one full scan of each relation with `workers` workers per
    /// scan at time scale `scale`, metrics enabled; optionally dump
    /// `metrics.json`. Returns the report and its utilization audit.
    pub fn run(
        cat: &Arc<Catalog>,
        workers: u32,
        scale: f64,
        metrics_out: Option<&Path>,
    ) -> (ExecReport, UtilizationAudit) {
        let runs = [full_scan(cat, "pair_a"), full_scan(cat, "pair_b")];
        let mut cfg = config(scale);
        if let Some(path) = metrics_out {
            cfg = cfg.with_metrics_out(path);
        }
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = CoRun::new(MachineConfig::paper_default(), workers);
        let report = exec.run(&runs, &mut policy).expect("audit run failed");
        let audit = report.utilization_audit();
        (report, audit)
    }

    /// One full scan of `name` alone under INTER-WITH-ADJ with
    /// configuration `cfg`: the policy gives a lone IO-bound scan
    /// `x = B/C_i` processors so that it saturates the array by itself,
    /// and the audit's `solo_io_disk_util` says whether the backends
    /// staffed for that `x` actually did.
    pub fn run_solo(cat: &Arc<Catalog>, name: &str, cfg: ExecConfig) -> UtilizationAudit {
        let mut policy =
            AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
        Executor::new(cfg, cat.clone())
            .run(&[full_scan(cat, name)], &mut policy)
            .expect("solo audit run failed")
            .utilization_audit()
    }
}

/// Shared scenario for the join-materialization benches: a hash join whose
/// build side is large, so fragment materialization (worker output → sort →
/// key index) dominates the run: worker-local sorted runs, pool-parallel
/// k-way merge, CSR index. The worker count is the independent variable.
pub mod exec_join {
    use std::sync::Arc;
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::cost::{CostModel, RelInfo};
    use xprs_optimizer::{decompose, OptimizedQuery, Plan};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::{Catalog, Datum, Schema, Tuple};

    use super::FixedParallelism;

    /// One timed join workload.
    #[derive(Debug, Clone, Copy)]
    pub struct JoinRun {
        /// Tuples materialized per query (build side + joined output) ×
        /// queries — the work the data path is responsible for.
        pub materialized: u64,
        /// Joined tuples the run emitted (sanity check, > 0).
        pub emitted: u64,
        /// Wall-clock seconds for the whole run.
        pub wall: f64,
        /// Wall-clock seconds first fragment start → last fragment finish.
        pub join_wall: f64,
        /// OS threads the run created.
        pub pool_threads: u64,
        /// Worker-slot staffing and merge jobs submitted to the pool.
        pub pool_jobs: u64,
    }

    /// A catalog with a large `big(a, b)` build side and a small `small(a,
    /// b)` probe side, keys uniform in `0..key_mod`, minimum-size tuples so
    /// the run is materialization-bound rather than IO-bound.
    pub fn catalog(build_tuples: u64, probe_tuples: u64, key_mod: u64) -> Arc<Catalog> {
        let mut cat = Catalog::new(StripedLayout::new(4));
        let mut seed = 0x10_1A_u64;
        for (name, n) in [("big", build_tuples), ("small", probe_tuples)] {
            cat.create(name, Schema::paper_rel());
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let a = ((seed >> 33) % key_mod) as i32;
                    Tuple::from_values(vec![Datum::Int(a), Datum::Text(String::new())])
                })
                .collect();
            cat.load(name, rows);
        }
        Arc::new(cat)
    }

    /// `big ⋈ small` with the big side as the hash-build input — pinned by
    /// hand so the optimizer cannot flip the sides and move the
    /// materialization load off the path under test.
    fn optimized(cat: &Catalog) -> OptimizedQuery {
        let plan = Plan::HashJoin {
            build: Box::new(Plan::SeqScan { rel: 0 }),
            probe: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let rels: Vec<RelInfo> = ["big", "small"]
            .iter()
            .map(|n| {
                let s = cat.get(n).expect("bench relation").stats();
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
        OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments }
    }

    /// Run `n_queries` back-to-back `big ⋈ small` hash joins with `workers`
    /// workers each.
    pub fn run(cat: &Arc<Catalog>, workers: u32, n_queries: usize) -> JoinRun {
        let build_tuples = cat.get("big").expect("bench relation").stats().n_tuples;
        let optimized = optimized(cat);
        let bindings = vec![
            RelBinding { name: "big".into(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "small".into(), pred: (i32::MIN, i32::MAX) },
        ];
        let runs: Vec<QueryRun> = (0..n_queries)
            .map(|_| QueryRun { optimized: optimized.clone(), bindings: bindings.clone() })
            .collect();
        let exec = Executor::new(ExecConfig::unthrottled(), cat.clone());
        let mut policy = FixedParallelism::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("bench join failed");
        let wall = t0.elapsed().as_secs_f64();
        let first_start =
            report.fragment_times.iter().map(|&(_, s, _)| s).fold(f64::INFINITY, f64::min);
        let last_finish =
            report.fragment_times.iter().map(|&(_, _, f)| f).fold(0.0f64, f64::max);
        let emitted: u64 = report.results.iter().map(|r| r.rows.rows.len() as u64).sum();
        JoinRun {
            materialized: build_tuples * n_queries as u64 + emitted,
            emitted,
            wall,
            join_wall: last_finish - first_start,
            pool_threads: report.pool_threads,
            pool_jobs: report.pool_jobs,
        }
    }
}

/// Shared scenario for the **disk-resident** scaling benches: relations
/// several times the buffer pool (so every scan is real disk traffic with
/// eviction pressure) with skewed per-page costs, run under the scaled-time
/// machine so I/O waits are wall-clock real. This is the regime of the
/// paper's §3 evaluation — and the one where 8 workers must finally beat 1:
/// the in-memory benches measure coordination overhead, this one measures
/// whether stealing converts disk-wait idleness into overlap.
pub mod exec_disk {
    use std::sync::Arc;
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding, UtilizationAudit};
    use xprs_optimizer::cost::{CostModel, RelInfo};
    use xprs_optimizer::{decompose, OptimizedQuery, Plan};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::{Catalog, Datum, Schema, Tuple, PAGE_SIZE};
    use xprs_workload::{generate_disk_resident, DiskResidentSpec, DiskResidentWorkload};

    use super::exec_obs::{full_scan, CoRun};
    use super::FixedParallelism;

    /// Buffer-pool frames for the disk-resident runs (each relation is
    /// [`SPILL_FACTOR`]× this, so the pool cannot cache a scan).
    pub const BUFPOOL_PAGES: usize = 64;
    /// Relation pages as a multiple of the pool.
    pub const SPILL_FACTOR: u64 = 8;
    /// Scaled-time speedup: the machine runs 20× faster than the simulated
    /// clock, keeping the full worker sweep under a few wall seconds while
    /// disk service times stay real sleeps.
    pub const TIME_SPEEDUP: f64 = 20.0;
    /// Probe-side tuples for the disk-resident join.
    pub const PROBE_TUPLES: u64 = 1_000;

    /// One timed disk-resident scan run (two relations co-scanned).
    #[derive(Debug, Clone)]
    pub struct DiskScanRun {
        /// Heap pages the two scans read.
        pub pages: u64,
        /// Tuples examined.
        pub tuples: u64,
        /// Tuples emitted (sanity check, > 0).
        pub emitted: u64,
        /// Wall seconds for the whole run.
        pub wall: f64,
        /// First fragment start → last fragment finish.
        pub scan_wall: f64,
        /// Buffer-pool hit fraction (bypass-aware).
        pub hit_rate: f64,
        /// Morsels taken from another slot's deque.
        pub steals: u64,
        /// Idle probes that found no pending morsel anywhere.
        pub steal_fails: u64,
        /// OS threads created over the run.
        pub pool_threads: u64,
        /// The §2.2–2.3 pairing-window audit for the run.
        pub audit: UtilizationAudit,
    }

    /// One timed disk-resident join run.
    #[derive(Debug, Clone, Copy)]
    pub struct DiskJoinRun {
        /// Build-side tuples materialized plus joined output.
        pub materialized: u64,
        /// Joined tuples emitted (sanity check, > 0).
        pub emitted: u64,
        /// Wall seconds for the whole run.
        pub wall: f64,
        /// First fragment start → last fragment finish.
        pub join_wall: f64,
        /// Buffer-pool hit fraction.
        pub hit_rate: f64,
        /// Morsels taken from another slot's deque.
        pub steals: u64,
        /// OS threads created over the run.
        pub pool_threads: u64,
        /// Pool frames the join ran with (`join_pool_pages`).
        pub pool_pages: usize,
    }

    /// The benchmark catalog: two disk-resident relations (for the co-run
    /// scan and its pairing windows) plus a small cacheable probe side for
    /// the join, all striped over the four paper disks.
    pub fn catalog(seed: u64) -> (Arc<Catalog>, DiskResidentWorkload) {
        let spec = DiskResidentSpec::paper(BUFPOOL_PAGES as u64, SPILL_FACTOR, seed);
        let workload = generate_disk_resident(&spec);
        let mut cat = Catalog::new(StripedLayout::new(4));
        workload.load_into(&mut cat);
        cat.create("dr_probe", Schema::paper_rel());
        let mut s = seed ^ 0xBEEF;
        let rows: Vec<Tuple> = (0..PROBE_TUPLES)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((s >> 33) % spec.key_mod) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text(String::new())])
            })
            .collect();
        cat.load("dr_probe", rows);
        (Arc::new(cat), workload)
    }

    /// The scaled-time, spill-sized configuration every disk-resident run
    /// uses.
    fn config() -> ExecConfig {
        let mut cfg = ExecConfig::scaled(TIME_SPEEDUP).with_obs();
        cfg.bufpool_pages = BUFPOOL_PAGES;
        cfg
    }

    /// Co-run one full scan of each disk-resident relation with `workers`
    /// workers per scan. Two concurrent IO-heavy scans give the audit its
    /// paired windows, so the run reports whether the disk band was
    /// actually saturated.
    pub fn scan_run(
        cat: &Arc<Catalog>,
        workload: &DiskResidentWorkload,
        workers: u32,
    ) -> DiskScanRun {
        let runs: Vec<QueryRun> =
            workload.relations.iter().map(|rel| full_scan(cat, &rel.name)).collect();
        let exec = Executor::new(config(), cat.clone());
        let mut policy = CoRun::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("disk-resident scan failed");
        let wall = t0.elapsed().as_secs_f64();
        let first_start =
            report.fragment_times.iter().map(|&(_, s, _)| s).fold(f64::INFINITY, f64::min);
        let last_finish =
            report.fragment_times.iter().map(|&(_, _, f)| f).fold(0.0f64, f64::max);
        let audit = report.utilization_audit();
        let (steals, steal_fails) = report
            .metrics
            .as_ref()
            .map_or((0, 0), |m| (m.steals.get(), m.steal_fails.get()));
        DiskScanRun {
            pages: workload.relations.iter().map(|r| r.n_pages()).sum(),
            tuples: workload.relations.iter().map(|r| r.n_tuples).sum(),
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            wall,
            scan_wall: last_finish - first_start,
            hit_rate: report.stats.pool.hit_rate(),
            steals,
            steal_fails,
            pool_threads: report.pool_threads,
            audit,
        }
    }

    /// The first disk-resident relation scanned alone under INTER-WITH-ADJ
    /// ([`super::exec_obs::run_solo`]): the solo-IO-bound audit figure.
    pub fn solo_scan_audit(cat: &Arc<Catalog>, workload: &DiskResidentWorkload) -> UtilizationAudit {
        super::exec_obs::run_solo(cat, &workload.relations[0].name, config())
    }

    /// `dr_0 ⋈ dr_probe` with the disk-resident relation pinned as the
    /// hash-build side, so the materialization scan is the spilling one.
    fn optimized_join(cat: &Catalog, build: &str) -> OptimizedQuery {
        let plan = Plan::HashJoin {
            build: Box::new(Plan::SeqScan { rel: 0 }),
            probe: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let rels: Vec<RelInfo> = [build, "dr_probe"]
            .iter()
            .map(|n| {
                let s = cat.get(n).expect("bench relation").stats();
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
        OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments }
    }

    /// Pool frames the join runs with: the [`BUFPOOL_PAGES`] the scans read
    /// through, beside room for the hash table the join declares it holds.
    /// Memory is a scheduled resource, so a [`BUFPOOL_PAGES`]-frame machine
    /// would spill a table [`SPILL_FACTOR`]× its size — [`super::exec_memory`]
    /// measures that; this leg measures how the build scan's disk waits
    /// overlap. The hit rate is 0 either way: one pass revisits nothing.
    fn join_pool_pages(optimized: &OptimizedQuery) -> usize {
        let held =
            optimized.fragments.fragments.iter().map(|f| f.profile.memory).fold(0.0, f64::max);
        BUFPOOL_PAGES + (held / PAGE_SIZE as f64).ceil() as usize
    }

    /// Run the disk-resident hash join with `workers` workers.
    pub fn join_run(
        cat: &Arc<Catalog>,
        workload: &DiskResidentWorkload,
        workers: u32,
    ) -> DiskJoinRun {
        let build = &workload.relations[0];
        let optimized = optimized_join(cat, &build.name);
        let bindings = vec![
            RelBinding { name: build.name.clone(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "dr_probe".into(), pred: (i32::MIN, i32::MAX) },
        ];
        let pool_pages = join_pool_pages(&optimized);
        let mut cfg = config();
        cfg.bufpool_pages = pool_pages;
        let runs = vec![QueryRun { optimized, bindings }];
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = FixedParallelism::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("disk-resident join failed");
        assert_eq!(report.spill_chunks, 0, "the scaling join must run in memory");
        let wall = t0.elapsed().as_secs_f64();
        let first_start =
            report.fragment_times.iter().map(|&(_, s, _)| s).fold(f64::INFINITY, f64::min);
        let last_finish =
            report.fragment_times.iter().map(|&(_, _, f)| f).fold(0.0f64, f64::max);
        let emitted: u64 = report.results.iter().map(|r| r.rows.rows.len() as u64).sum();
        DiskJoinRun {
            materialized: build.n_tuples + emitted,
            emitted,
            wall,
            join_wall: last_finish - first_start,
            hit_rate: report.stats.pool.hit_rate(),
            steals: report.metrics.as_ref().map_or(0, |m| m.steals.get()),
            pool_threads: report.pool_threads,
            pool_pages,
        }
    }
}

/// Memory-grant admission scenario: concurrent hash joins whose aggregate
/// build demand is [`exec_memory::DEMAND_FACTOR`]× the buffer pool, every
/// query arriving at once ([`exec_obs::CoRun`]) so the builds race for
/// admission. The A/B is the tiny pool (queue + spill) against the
/// uncontended reference (the same admission over a pool every build fits
/// in at once); the parity digest must match between the two — admission
/// may reorder and spill, never change an answer.
pub mod exec_memory {
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::{Catalog, Datum};
    use xprs_workload::{generate_oversized_build, OversizedBuildSpec, OversizedBuildWorkload};

    use super::exec_obs::CoRun;

    /// Pool frames the contended side runs with.
    pub const BUFPOOL_PAGES: u64 = 64;
    /// Aggregate build demand as a multiple of the pool (the acceptance
    /// regime is ≥ 4×).
    pub const DEMAND_FACTOR: u64 = 4;
    /// Concurrent join queries: fewer than [`DEMAND_FACTOR`], so each build
    /// alone exceeds the pool — it is granted the whole pool and spills the
    /// rest, where a build the pool can hold would only queue.
    pub const N_QUERIES: usize = 3;
    /// Pool frames for the uncontended reference run: comfortably above the
    /// whole aggregate demand, so no admission pressure exists.
    pub const REFERENCE_POOL_PAGES: u64 = BUFPOOL_PAGES * (DEMAND_FACTOR + 1);

    /// One timed memory-admission run.
    #[derive(Debug, Clone, Copy)]
    pub struct MemoryRun {
        /// Wall seconds for the whole run.
        pub wall: f64,
        /// Join tuples emitted across all queries.
        pub emitted: u64,
        /// Pages granted / released by the admission ledger (must balance).
        pub granted_pages: u64,
        /// Pages released back (see `granted_pages`).
        pub released_pages: u64,
        /// Fragments that waited in the admission FIFO.
        pub grant_waits: u64,
        /// Spill runs cut past grants.
        pub spill_chunks: u64,
        /// Rows that travelled through spill files.
        pub spill_rows: u64,
        /// Pages still pinned when the run exited (must be 0).
        pub pinned_at_exit: u64,
        /// Order-sensitive FNV digest over every result row, for the
        /// byte-parity check between the contended and reference runs.
        pub rows_digest: u64,
    }

    /// The oversized-build catalog plus its workload description.
    pub fn catalog(seed: u64) -> (Arc<Catalog>, OversizedBuildWorkload) {
        let mut spec = OversizedBuildSpec::paper(BUFPOOL_PAGES, DEMAND_FACTOR, N_QUERIES, seed);
        // Fatter rows keep the join outputs (quadratic in tuples-per-page)
        // bench-sized while the page demand stays ≥ DEMAND_FACTOR× the pool.
        spec.blen = 200;
        let workload = generate_oversized_build(&spec);
        let mut cat = Catalog::new(StripedLayout::new(4));
        workload.load_into(&mut cat);
        (Arc::new(cat), workload)
    }

    fn digest(report: &ExecReport) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for res in &report.results {
            res.rows.rows.len().hash(&mut h);
            for (key, tuple) in &res.rows.rows {
                key.hash(&mut h);
                for d in tuple.values() {
                    match d {
                        Datum::Int(v) => v.hash(&mut h),
                        Datum::Text(s) => s.hash(&mut h),
                        Datum::Null => 0xFFu8.hash(&mut h),
                    }
                }
            }
        }
        h.finish()
    }

    /// Run every generated join at once with `workers` workers per
    /// fragment over a pool of `pool_pages` frames: [`BUFPOOL_PAGES`] is the
    /// contended side of the A/B (queue + spill), [`REFERENCE_POOL_PAGES`]
    /// the side where every build fits at once.
    pub fn run(
        cat: &Arc<Catalog>,
        workload: &OversizedBuildWorkload,
        workers: u32,
        pool_pages: u64,
    ) -> MemoryRun {
        let optimizer = TwoPhaseOptimizer::paper_default();
        let runs: Vec<QueryRun> = workload
            .pairs
            .iter()
            .map(|pair| {
                let q =
                    Query::join().rel(&pair.build, 1.0).rel(&pair.probe, 1.0).on(0, 1).build();
                QueryRun {
                    optimized: optimizer.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan"),
                    bindings: vec![
                        RelBinding { name: pair.build.clone(), pred: (i32::MIN, i32::MAX) },
                        RelBinding { name: pair.probe.clone(), pred: (i32::MIN, i32::MAX) },
                    ],
                }
            })
            .collect();
        let mut cfg = ExecConfig::unthrottled();
        cfg.bufpool_pages = pool_pages as usize;
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = CoRun::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("memory-admission run failed");
        let wall = t0.elapsed().as_secs_f64();
        MemoryRun {
            wall,
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            granted_pages: report.mem_granted_pages,
            released_pages: report.mem_released_pages,
            grant_waits: report.mem_grant_waits,
            spill_chunks: report.spill_chunks,
            spill_rows: report.spill_rows,
            pinned_at_exit: report.pool_pinned_at_exit,
            rows_digest: digest(&report),
        }
    }
}

/// Skewed-join scenario: a Zipf(θ) key-domain merge join on the
/// disk-resident 8-worker configuration, θ the independent variable. At
/// θ = 0 the keys are uniform and the pool-parallel merge splits the
/// output evenly; at θ = 1 one key owns ~10% of each side (so ~x% · y% of
/// the *output*) and only the heavy-hitter machinery — detection in the
/// master, replicated-build fan-out over `scatter_gather`, hot-key carving
/// in `split_runs_stats` — keeps the merge from serializing behind it.
/// The bench reports throughput plus the skew counters (hot keys, per-way
/// row balance) so CI can prove the fan-out engaged rather than pass
/// vacuously.
pub mod exec_skew {
    use std::sync::Arc;
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::cost::{CostModel, RelInfo};
    use xprs_optimizer::{decompose, OptimizedQuery, Plan};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::Catalog;
    use xprs_workload::{generate_zipf_join, ZipfJoinSpec, ZipfJoinWorkload};

    use super::FixedParallelism;

    /// Buffer-pool frames (the probe side is [`SPILL_FACTOR`]× this).
    pub const BUFPOOL_PAGES: u64 = 64;
    /// Probe heap pages as a multiple of the pool.
    pub const SPILL_FACTOR: u64 = 4;
    /// Scaled-time speedup, as in the other disk-resident benches.
    pub const TIME_SPEEDUP: f64 = 20.0;
    /// Merge fan-out, pinned explicitly: the auto fan-out collapses to 1
    /// on a single-core CI host and the skew machinery would never engage.
    pub const MERGE_WAYS: usize = 8;
    /// Workload seed.
    pub const SEED: u64 = 0x5E3D;

    /// One timed skewed-join run.
    #[derive(Debug, Clone, Copy)]
    pub struct SkewRun {
        /// Joined tuples emitted (the quantity that concentrates under
        /// skew — throughput is emitted rows over the join wall).
        pub emitted: u64,
        /// Wall seconds for the whole run.
        pub wall: f64,
        /// First fragment start → last fragment finish.
        pub join_wall: f64,
        /// Heavy-hitter keys the run detected (registry counter: master
        /// fan-out plus `split_runs_stats` carving, summed over merges).
        pub hot_keys: u64,
        /// Rows in the heaviest way of the root fragment's merge.
        pub way_rows_max: u64,
        /// Mean rows per way of the root fragment's merge.
        pub way_rows_mean: u64,
        /// Buffer-pool hit fraction.
        pub hit_rate: f64,
        /// Pages still pinned at exit (must be 0).
        pub pinned_at_exit: u64,
        /// Admission-ledger pages granted over the run.
        pub granted_pages: u64,
        /// Admission-ledger pages released (must equal granted).
        pub released_pages: u64,
    }

    /// The Zipf(θ) catalog: thin build side, disk-resident probe side.
    pub fn catalog(theta: f64) -> (Arc<Catalog>, ZipfJoinWorkload) {
        let spec = ZipfJoinSpec::paper(theta, BUFPOOL_PAGES, SPILL_FACTOR, SEED);
        let workload = generate_zipf_join(&spec);
        let mut cat = Catalog::new(StripedLayout::new(4));
        workload.load_into(&mut cat);
        (Arc::new(cat), workload)
    }

    /// `build ⋈ probe` as a key-domain merge join — the plan shape whose
    /// root materializes both sides and walks the key domain, i.e. the
    /// shape the master's heavy-hitter detection and replicated fan-out
    /// serve. Hand-pinned so the optimizer cannot reshape it.
    fn optimized(cat: &Catalog, workload: &ZipfJoinWorkload) -> OptimizedQuery {
        let plan = Plan::MergeJoin {
            left: Box::new(Plan::SeqScan { rel: 0 }),
            right: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let rels: Vec<RelInfo> = [&workload.build, &workload.probe]
            .iter()
            .map(|n| {
                let s = cat.get(n).expect("bench relation").stats();
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
        OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments }
    }

    /// Run the skewed merge join once with `workers` workers.
    pub fn run(cat: &Arc<Catalog>, workload: &ZipfJoinWorkload, workers: u32) -> SkewRun {
        let optimized = optimized(cat, workload);
        let bindings = vec![
            RelBinding { name: workload.build.clone(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: workload.probe.clone(), pred: (i32::MIN, i32::MAX) },
        ];
        let runs = vec![QueryRun { optimized, bindings }];
        let mut cfg = ExecConfig::scaled(TIME_SPEEDUP).with_obs();
        cfg.bufpool_pages = BUFPOOL_PAGES as usize;
        cfg.parallel_merge_ways = MERGE_WAYS;
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = FixedParallelism::new(MachineConfig::paper_default(), workers);
        let t0 = Instant::now();
        let report = exec.run(&runs, &mut policy).expect("skewed join failed");
        let wall = t0.elapsed().as_secs_f64();
        let first_start =
            report.fragment_times.iter().map(|&(_, s, _)| s).fold(f64::INFINITY, f64::min);
        let last_finish =
            report.fragment_times.iter().map(|&(_, _, f)| f).fold(0.0f64, f64::max);
        let root = report.profiles[0]
            .fragments
            .iter()
            .find(|f| f.is_root)
            .expect("root fragment profiled");
        SkewRun {
            emitted: report.results[0].rows.rows.len() as u64,
            wall,
            join_wall: last_finish - first_start,
            hot_keys: report.metrics.as_ref().map_or(0, |m| m.hot_keys.get()),
            way_rows_max: root.merge.way_rows_max,
            way_rows_mean: root.merge.way_rows_mean,
            hit_rate: report.stats.pool.hit_rate(),
            pinned_at_exit: report.pool_pinned_at_exit,
            granted_pages: report.mem_granted_pages,
            released_pages: report.mem_released_pages,
        }
    }
}

/// Predictive-scheduling A/B: the same concurrent-join workload run with
/// declared profiles seeded wrong by 2–8× in both directions, scheduled
/// once trusting the declarations (cold, no predictor) and once with a
/// shared online [`Predictor`](xprs_scheduler::predict::Predictor) warmed
/// across repetitions. Over-declared build footprints serialize the
/// grant-admission queue in declared mode; the predictor learns the real
/// footprints from observed pages and restores admission concurrency.
/// Under-declared footprints show up as `footprint_overruns` that must
/// *decrease* across repetitions as the model warms. The final-rep traces
/// of both modes are captured so CI can prove at least one scheduling
/// decision actually differed (no vacuous pass).
pub mod exec_predict {
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use xprs_scheduler::predict::Predictor;
    use xprs_scheduler::trace::{
        action_signature, action_stream, parse_jsonl, JsonlSink, SharedSink, TraceRecord,
    };
    use xprs_scheduler::{Action, MachineConfig, TaskId};
    use xprs_storage::{Catalog, Datum, Schema, Tuple, PAGE_SIZE};

    /// Pool frames both modes run with.
    pub const BUFPOOL_PAGES: usize = 64;
    /// Concurrent join queries per repetition.
    pub const N_QUERIES: usize = 4;
    /// Simulated-vs-wall speedup of the throttled machine (the predictor
    /// only trains on scaled runs, where elapsed time carries signal).
    pub const TIME_SPEEDUP: f64 = 20.0;
    /// Rows per build relation: ~10 tuples/page ⇒ ~16 heap pages, a
    /// quarter of the pool, so four right-sized builds admit concurrently.
    pub const BUILD_ROWS: u64 = 160;
    /// Rows per probe relation.
    pub const PROBE_ROWS: u64 = 320;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    /// `N_QUERIES` independent build/probe pairs, IO-heavy rows.
    pub fn catalog(seed: u64) -> Arc<Catalog> {
        let mut cat = Catalog::new(StripedLayout::new(4));
        let mut s = seed;
        for qi in 0..N_QUERIES {
            for (prefix, n) in [("build", BUILD_ROWS), ("probe", PROBE_ROWS)] {
                let name = format!("{prefix}_{qi}");
                cat.create(&name, Schema::paper_rel());
                let rows: Vec<Tuple> = (0..n)
                    .map(|_| {
                        let a = (lcg(&mut s) % 50) as i32;
                        Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(800))])
                    })
                    .collect();
                cat.load(&name, rows);
                cat.build_index(&name, false);
            }
        }
        Arc::new(cat)
    }

    /// The joins with every declared fragment profile seeded wrong by a
    /// per-fragment factor in 2..=8: time and rate skewed in opposite
    /// directions (misclassifying IO-bound work as CPU-bound and vice
    /// versa), footprints over-declared on most queries (stalling declared-
    /// mode admission) and under-declared on the last (planting footprint
    /// overruns the predictor must learn away).
    pub fn wrong_runs(cat: &Arc<Catalog>, seed: u64) -> Vec<QueryRun> {
        let optimizer = TwoPhaseOptimizer::paper_default();
        let mut s = seed ^ 0x5EED;
        (0..N_QUERIES)
            .map(|qi| {
                let build = format!("build_{qi}");
                let probe = format!("probe_{qi}");
                let q = Query::join().rel(&build, 1.0).rel(&probe, 1.0).on(0, 1).build();
                let mut optimized =
                    optimizer.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan");
                for f in &mut optimized.fragments.fragments {
                    let factor = 2.0 + (lcg(&mut s) % 7) as f64; // 2..=8
                    let p = &mut f.profile;
                    if lcg(&mut s).is_multiple_of(2) {
                        p.seq_time *= factor;
                        p.io_rate /= factor;
                    } else {
                        p.seq_time /= factor;
                        p.io_rate *= factor;
                    }
                    if p.memory > 0.0 {
                        if qi + 1 == N_QUERIES {
                            p.memory /= factor; // planted overrun
                        } else {
                            p.memory *= factor; // stalls declared admission
                        }
                    }
                }
                QueryRun {
                    optimized,
                    bindings: vec![
                        RelBinding { name: build, pred: (i32::MIN, i32::MAX) },
                        RelBinding { name: probe, pred: (i32::MIN, i32::MAX) },
                    ],
                }
            })
            .collect()
    }

    /// One repetition's observable outcome.
    #[derive(Debug, Clone)]
    pub struct PredictRun {
        /// Wall seconds for the whole repetition.
        pub wall: f64,
        /// Join tuples emitted across all queries.
        pub emitted: u64,
        /// Fragments whose observed pages exceeded the admitted footprint.
        pub footprint_overruns: u64,
        /// Pages granted by the admission ledger.
        pub granted_pages: u64,
        /// Pages released back (must equal granted).
        pub released_pages: u64,
        /// Fragments that waited in the admission FIFO.
        pub grant_waits: u64,
        /// Pages still pinned at exit (must be 0).
        pub pinned_at_exit: u64,
        /// Profile substitutions recorded in the trace (0 in declared mode
        /// and while the model is cold).
        pub predictions: u64,
        /// Clock-robust whole-worker schedule signature, for proving the
        /// two modes actually decided differently.
        pub signature: Vec<(TaskId, bool, u32)>,
    }

    /// Run one repetition. `predictor` = None is the declared-mode
    /// baseline; passing the same `Arc` across repetitions warms the model.
    pub fn run(cat: &Arc<Catalog>, runs: &[QueryRun], predictor: Option<&Arc<Predictor>>) -> PredictRun {
        let machine = MachineConfig::paper_default();
        let mut cfg = ExecConfig::scaled(TIME_SPEEDUP).with_obs();
        cfg.bufpool_pages = BUFPOOL_PAGES;
        if let Some(p) = predictor {
            cfg = cfg.with_predictor(p.clone());
        }
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())));
        let shared: SharedSink = sink.clone();
        let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine.clone()));
        let t0 = Instant::now();
        let report = Executor::new(cfg, cat.clone())
            .with_trace(shared)
            .run(runs, &mut policy)
            .expect("predictive A/B run failed");
        let wall = t0.elapsed().as_secs_f64();
        let Ok(cell) = Arc::try_unwrap(sink) else { unreachable!("sink still shared") };
        let text = String::from_utf8(cell.into_inner().unwrap().into_inner()).unwrap();
        let records = parse_jsonl(&text).expect("well-formed trace");
        let actions: Vec<(f64, Action)> = action_stream(&records);
        PredictRun {
            wall,
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            footprint_overruns: report.footprint_overruns,
            granted_pages: report.mem_granted_pages,
            released_pages: report.mem_released_pages,
            grant_waits: report.mem_grant_waits,
            pinned_at_exit: report.pool_pinned_at_exit,
            predictions: records
                .iter()
                .filter(|r| matches!(r, TraceRecord::Predict { .. }))
                .count() as u64,
            signature: action_signature(&actions, machine.n_procs),
        }
    }

    /// Bytes-per-page constant re-exported so the binary can build the
    /// shared predictor with the pool's real page size.
    pub const PAGE_BYTES: u64 = PAGE_SIZE as u64;
}

/// The host facts every `BENCH_*.json` header records so scaling numbers
/// are interpretable across machines: the host's available parallelism,
/// the simulated machine's processor count (= persistent-pool staffing
/// width), and the buffer-pool size the run used.
pub fn host_header_json(n_procs: u32, bufpool_pages: usize) -> String {
    let avail = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "  \"host\": {{\"available_parallelism\": {avail}, \"machine_procs\": {n_procs}, \
         \"bufpool_pages\": {bufpool_pages}}},\n"
    )
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Generate the paper workload `kind` for `seed`.
pub fn paper_workload(kind: WorkloadKind, seed: u64) -> Vec<TaskProfile> {
    WorkloadGenerator::new()
        .generate(&WorkloadConfig::paper(kind, seed))
        .profiles()
}

/// Run `kind` × `policy` on the DES over `seeds`, returning elapsed times.
pub fn des_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: PolicyKind,
    seeds: &[u64],
) -> Vec<f64> {
    seeds
        .iter()
        .map(|&s| sys.simulate(&paper_workload(kind, s), policy).expect("DES run").elapsed)
        .collect()
}

/// Run `kind` × `policy` on the fluid model over `seeds`.
pub fn fluid_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: PolicyKind,
    seeds: &[u64],
) -> Vec<f64> {
    seeds
        .iter()
        .map(|&s| sys.estimate(&paper_workload(kind, s), policy).expect("fluid run").elapsed)
        .collect()
}

/// Print a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn workload_helper_is_deterministic() {
        let a = paper_workload(WorkloadKind::Extreme, 3);
        let b = paper_workload(WorkloadKind::Extreme, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }
}

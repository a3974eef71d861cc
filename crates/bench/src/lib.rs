//! # xprs-bench
//!
//! Harness utilities shared by the binaries under `src/bin/`: the paper-figure
//! and ablation bins below, and three gated legs of `scripts/ci.sh` —
//! `bench_executor` (disk-resident scaling, memory admission, prediction),
//! `bench_join` (disk-resident join, Zipf skew) and `bench_service` (the
//! query-service soak). Each leg checks its own gates ([`Gates`]) and
//! [`finish`] turns the verdict into its exit status.
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

use std::fmt::Display;
use std::process::ExitCode;

use xprs::{PolicyKind, XprsSystem};
use xprs_executor::{ExecConfig, ExecReport, QueryRun, RelBinding};
use xprs_obs::json::JsonValue;
use xprs_optimizer::cost::{CostModel, RelInfo};
use xprs_optimizer::{decompose, Costing, OptimizedQuery, Plan, Query, TwoPhaseOptimizer};
use xprs_scheduler::policy::{Action, RunningTask, SchedulePolicy};
use xprs_scheduler::{MachineConfig, TaskProfile};
use xprs_storage::Catalog;
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

/// A policy that starts **every** arrived task immediately with a fixed
/// worker count and never adjusts: with two single-fragment queries it
/// manufactures exactly one long §2.2 pairing window, which is what the
/// utilization audit needs, and with many it makes them all race for
/// admission. ([`FixedParallelism`] runs fragments one at a time and can
/// never produce a paired window.)
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

/// `plan` over the relations `names` (its `rel` 0 and 1), costed and
/// decomposed as given: hand-pinned so the optimizer cannot reshape the
/// plan a leg measures.
fn pinned_plan(cat: &Catalog, plan: Plan, names: [&str; 2]) -> OptimizedQuery {
    let rels: Vec<RelInfo> = names
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

/// First fragment start → last fragment finish: the span the data path
/// determines, without the run's set-up.
fn phase_wall(report: &ExecReport) -> f64 {
    let first = report.fragments().map(|f| f.started_at).fold(f64::INFINITY, f64::min);
    let last = report.fragments().map(|f| f.finished_at).fold(0.0f64, f64::max);
    last - first
}

/// Median of `xs` (the upper one for an even count); sorts in place.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Shared scenario for the **disk-resident** scaling benches: relations
/// several times the buffer pool (so every scan is real disk traffic with
/// eviction pressure) with skewed per-page costs, run under the scaled-time
/// machine so I/O waits are wall-clock real. This is the regime of the
/// paper's §3 evaluation — and the one where 8 workers must finally beat 1:
/// `benchmark/`'s cached workloads measure coordination overhead, this one
/// measures whether stealing converts disk-wait idleness into overlap.
pub mod exec_disk {
    use std::sync::Arc;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding, UtilizationAudit};
    use xprs_optimizer::{OptimizedQuery, Plan};
    use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use xprs_scheduler::MachineConfig;
    use xprs_storage::{Catalog, Schema, Tuple, PAGE_SIZE};
    use xprs_workload::{generate_disk_resident, DiskResidentSpec, DiskResidentWorkload};

    use super::{full_scan, phase_wall, pinned_plan, CoRun, FixedParallelism};

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
                Tuple::paper(a, 0)
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
        let report = exec.run(&runs, &mut policy).expect("disk-resident scan failed");
        let audit = report.utilization_audit();
        let (steals, steal_fails) = report
            .metrics
            .as_ref()
            .map_or((0, 0), |m| (m.steals.get(), m.steal_fails.get()));
        DiskScanRun {
            pages: workload.relations.iter().map(|r| r.n_pages()).sum(),
            tuples: workload.relations.iter().map(|r| r.n_tuples).sum(),
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            scan_wall: phase_wall(&report),
            hit_rate: report.stats.pool.hit_rate(),
            steals,
            steal_fails,
            pool_threads: report.pool_threads,
            audit,
        }
    }

    /// The first disk-resident relation scanned alone under INTER-WITH-ADJ:
    /// the policy gives a lone IO-bound scan `x = B/C_i` processors so that
    /// it saturates the array by itself, and the audit's
    /// `solo_io_disk_util` says whether the backends staffed for that `x`
    /// actually did.
    pub fn solo_scan_audit(cat: &Arc<Catalog>, workload: &DiskResidentWorkload) -> UtilizationAudit {
        let mut policy =
            AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
        Executor::new(config(), cat.clone())
            .run(&[full_scan(cat, &workload.relations[0].name)], &mut policy)
            .expect("solo audit run failed")
            .utilization_audit()
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
        // `dr_0 ⋈ dr_probe` with the disk-resident relation as the hash-build
        // side, so the materialization scan is the spilling one.
        let plan = Plan::HashJoin {
            build: Box::new(Plan::SeqScan { rel: 0 }),
            probe: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let optimized = pinned_plan(cat, plan, [&build.name, "dr_probe"]);
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
        let report = exec.run(&runs, &mut policy).expect("disk-resident join failed");
        assert_eq!(report.spill_chunks, 0, "the scaling join must run in memory");
        let emitted: u64 = report.results.iter().map(|r| r.rows.rows.len() as u64).sum();
        DiskJoinRun {
            materialized: build.n_tuples + emitted,
            emitted,
            join_wall: phase_wall(&report),
            hit_rate: report.stats.pool.hit_rate(),
            steals: report.metrics.as_ref().map_or(0, |m| m.steals.get()),
            pool_threads: report.pool_threads,
            pool_pages,
        }
    }
}

/// Memory-grant admission scenario: concurrent hash joins whose aggregate
/// build demand is [`exec_memory::DEMAND_FACTOR`]× the buffer pool, every
/// query arriving at once ([`CoRun`]) so the builds race for
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

    use super::CoRun;

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
/// row balance) so `bench_join`'s gates can prove the fan-out engaged
/// rather than pass vacuously.
pub mod exec_skew {
    use std::sync::Arc;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::Plan;
    use xprs_scheduler::MachineConfig;
    use xprs_storage::Catalog;
    use xprs_workload::{generate_zipf_join, ZipfJoinSpec, ZipfJoinWorkload};

    use super::{phase_wall, pinned_plan, FixedParallelism};

    /// Buffer-pool frames (the probe side is [`SPILL_FACTOR`]× this).
    pub const BUFPOOL_PAGES: u64 = 64;
    /// Probe heap pages as a multiple of the pool.
    pub const SPILL_FACTOR: u64 = 4;
    /// Scaled-time speedup, as in the other disk-resident benches.
    pub const TIME_SPEEDUP: f64 = 20.0;
    /// Workload seed.
    pub const SEED: u64 = 0x5E3D;

    /// One timed skewed-join run.
    #[derive(Debug, Clone, Copy)]
    pub struct SkewRun {
        /// Joined tuples emitted (the quantity that concentrates under
        /// skew — throughput is emitted rows over the join wall).
        pub emitted: u64,
        /// First fragment start → last fragment finish.
        pub join_wall: f64,
        /// Heavy-hitter keys the run detected (registry counter: master
        /// fan-out plus `split_runs_stats` carving, summed over merges).
        pub hot_keys: u64,
        /// Ways the root fragment's merge fanned out to: the machine's
        /// processors once the output is past the parallel-merge threshold.
        pub merge_ways: u64,
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

    /// Run the skewed merge join once with `workers` workers.
    pub fn run(cat: &Arc<Catalog>, workload: &ZipfJoinWorkload, workers: u32) -> SkewRun {
        // `build ⋈ probe` as a key-domain merge join — the plan shape whose
        // root materializes both sides and walks the key domain, i.e. the
        // shape the master's heavy-hitter detection and replicated fan-out
        // serve.
        let plan = Plan::MergeJoin {
            left: Box::new(Plan::SeqScan { rel: 0 }),
            right: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let optimized = pinned_plan(cat, plan, [&workload.build, &workload.probe]);
        let bindings = vec![
            RelBinding { name: workload.build.clone(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: workload.probe.clone(), pred: (i32::MIN, i32::MAX) },
        ];
        let runs = vec![QueryRun { optimized, bindings }];
        let mut cfg = ExecConfig::scaled(TIME_SPEEDUP).with_obs();
        cfg.bufpool_pages = BUFPOOL_PAGES as usize;
        let exec = Executor::new(cfg, cat.clone());
        let mut policy = FixedParallelism::new(MachineConfig::paper_default(), workers);
        let report = exec.run(&runs, &mut policy).expect("skewed join failed");
        let root = report.profiles[0]
            .fragments
            .iter()
            .find(|f| f.is_root)
            .expect("root fragment profiled");
        SkewRun {
            emitted: report.results[0].rows.rows.len() as u64,
            join_wall: phase_wall(&report),
            hot_keys: report.fragments().map(|f| f.merge.hot_keys).sum(),
            merge_ways: root.merge.ways,
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
/// of both modes are captured so `bench_executor`'s gates can prove at
/// least one scheduling decision actually differed (no vacuous pass).
pub mod exec_predict {
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    use xprs_disk::StripedLayout;
    use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use xprs_scheduler::predict::Predictor;
    use xprs_scheduler::trace::{action_signature, action_stream, RingSink, TraceRecord};
    use xprs_scheduler::{MachineConfig, TaskId};
    use xprs_storage::{Catalog, Schema, Tuple, PAGE_SIZE};

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
                        Tuple::paper(a, 800)
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
        let ring = Arc::new(Mutex::new(RingSink::unbounded()));
        let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine.clone()));
        let t0 = Instant::now();
        let report = Executor::new(cfg, cat.clone())
            .with_trace(ring.clone())
            .run(runs, &mut policy)
            .expect("predictive A/B run failed");
        let wall = t0.elapsed().as_secs_f64();
        let records = ring.lock().expect("trace sink").records();
        let actions = action_stream(&records);
        PredictRun {
            wall,
            emitted: report.results.iter().map(|r| r.rows.rows.len() as u64).sum(),
            footprint_overruns: report.footprint_overruns(),
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

/// The gates of one bench leg. The bin that computes a value checks it
/// here, once, and [`finish`] turns the verdict into the exit status, so
/// CI runs the bin and re-reads nothing.
#[derive(Default)]
pub struct Gates {
    checked: usize,
    failed: Vec<String>,
}

impl Gates {
    /// One gate: passes when `ok`, otherwise fails saying `why`.
    pub fn check(&mut self, ok: bool, why: impl Display) {
        self.checked += 1;
        if !ok {
            self.failed.push(why.to_string());
        }
    }

    /// The two ledgers every executor run must close: admission pages
    /// granted equal pages released, and no buffer page pinned at exit.
    pub fn ledgers_closed(&mut self, run: impl Display, granted: u64, released: u64, pinned: u64) {
        self.check(
            granted == released,
            format_args!("{run}: grant ledger out of balance: {granted} granted, {released} released"),
        );
        self.check(pinned == 0, format_args!("{run}: {pinned} pages pinned at exit"));
    }
}

/// End a gated leg: write `doc` to `path` (indented), then print every
/// failed gate. The artefact is written before the verdict so a failing run
/// leaves it for diagnosis. Exit status 2 if `path` cannot be written, 1 if
/// any gate failed.
pub fn finish(path: &str, doc: &JsonValue, gates: Gates) -> ExitCode {
    if let Err(e) = std::fs::write(path, format!("{doc:#}\n")) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::from(2);
    }
    for why in &gates.failed {
        eprintln!("GATE FAILED: {why}");
    }
    eprintln!("wrote {path}: {} of {} gates failed", gates.failed.len(), gates.checked);
    if gates.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The head of every `BENCH_*.json`: the bench's name and the host facts
/// that make scaling numbers interpretable across machines — the host's
/// available parallelism, the simulated machine's processor count (the
/// persistent pool's staffing width) and the default buffer-pool size.
pub fn bench_doc(bench: &str) -> JsonValue {
    let cfg = ExecConfig::unthrottled();
    let avail = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = JsonValue::obj()
        .with("available_parallelism", avail)
        .with("machine_procs", cfg.machine.n_procs)
        .with("bufpool_pages", cfg.bufpool_pages);
    JsonValue::obj().with("bench", bench).with("host", host)
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
    fn finish_exits_on_failed_gates_and_unwritable_paths() {
        let path = std::env::temp_dir().join(format!("xprs-gates-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let gates = |ok: bool| {
            let mut g = Gates::default();
            g.check(ok, "the gate");
            g
        };
        let doc = JsonValue::obj().with("a", 1u64);
        assert_eq!(finish(path, &doc, gates(true)), ExitCode::SUCCESS);
        assert_eq!(finish(path, &doc, gates(false)), ExitCode::FAILURE);
        let written = std::fs::read_to_string(path).unwrap();
        assert_eq!(written, "{\n  \"a\": 1\n}\n", "written, indented, for diagnosis");
        std::fs::remove_file(path).ok();
        let unwritable = "/nonexistent-xprs-dir/out.json";
        assert_eq!(finish(unwritable, &doc, gates(true)), ExitCode::from(2));
    }

    #[test]
    fn workload_helper_is_deterministic() {
        let a = paper_workload(WorkloadKind::Extreme, 3);
        let b = paper_workload(WorkloadKind::Extreme, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }
}

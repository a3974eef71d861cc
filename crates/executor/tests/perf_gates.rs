//! The executor's performance claims, each a release-mode test with the
//! bound it was always held to:
//!
//! * on relations 8× the buffer pool, two co-run scans at 8 workers beat 1
//!   worker, and keep the disk array inside the §2.3 band `[Br, Bs]`;
//! * a lone IO-bound scan under INTER-WITH-ADJ keeps its disks ≥ 70% busy;
//! * a hash join whose build side is disk-resident is faster at 8 workers
//!   than at 1;
//! * a Zipf(1) merge join keeps at least half its uniform-key throughput;
//! * a warm predictor beats declarations wrong by 2–8× on median wall time.
//!
//! Every run is a scaled-time (20×) machine on real threads, timed from the
//! first fragment's start to the last one's finish (the predictor A/B times
//! whole runs), as the median of three or more runs. A debug build times
//! its own overhead, so the file compiles to nothing there, and its tests
//! take turns ([`alone`]): no timed run shares the host with another.
#![cfg(not(debug_assertions))]

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding, UtilizationAudit};
use xprs_optimizer::{Costing, Plan, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::predict::Predictor;
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Schema, Tuple, PAGE_SIZE};
use xprs_workload::{
    generate_disk_resident, generate_zipf_join, DiskResidentSpec, DiskResidentWorkload,
    ZipfJoinSpec,
};

#[path = "common/pinned.rs"]
mod pinned;
#[path = "common/policies.rs"]
mod policies;
#[path = "common/wrong_joins.rs"]
mod wrong_joins;
use pinned::pinned_plan;
use policies::{FixedParallelism, StartAll};

/// Buffer-pool frames of every disk-resident run.
const POOL_PAGES: usize = 64;
/// Scaled-time speedup: the machine runs 20× faster than simulated time,
/// and disk service times are real sleeps.
const SPEEDUP: f64 = 20.0;
/// Timed runs per configuration.
const TRIALS: usize = 3;
/// The worker counts a scaling sweep visits.
const WORKERS: [u32; 4] = [1, 2, 4, 8];

/// Held by each test for its whole run.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn m() -> MachineConfig {
    MachineConfig::paper_default()
}

fn scaled(pool_pages: usize) -> ExecConfig {
    ExecConfig { bufpool_pages: pool_pages, ..ExecConfig::scaled(SPEEDUP) }
}

/// The upper median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// First fragment start to last fragment finish: the span the data path
/// decides, without the run's set-up.
fn phase_wall(report: &ExecReport) -> f64 {
    let first = report.fragments().map(|f| f.started_at).fold(f64::INFINITY, f64::min);
    let last = report.fragments().map(|f| f.finished_at).fold(0.0, f64::max);
    last - first
}

fn emitted(report: &ExecReport) -> usize {
    report.results.iter().map(|r| r.rows.rows.len()).sum()
}

/// Two relations of `SPILL_FACTOR × POOL_PAGES` pages with skewed per-page
/// costs (a quarter dense, CPU-heavy), striped over the four paper disks.
fn disk_resident(seed: u64) -> (Catalog, DiskResidentWorkload) {
    const SPILL_FACTOR: u64 = 8;
    let workload =
        generate_disk_resident(&DiskResidentSpec::paper(POOL_PAGES as u64, SPILL_FACTOR, seed));
    let mut cat = Catalog::new(StripedLayout::new(4));
    workload.load_into(&mut cat);
    (cat, workload)
}

fn full_scan(cat: &Catalog, name: &str) -> QueryRun {
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, &Query::selection(name, 1.0), Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) }],
    }
}

/// Per worker count: the median phase wall of the co-run scans and the
/// last run's utilization audit.
struct ScanPoint {
    workers: u32,
    wall: f64,
    audit: UtilizationAudit,
}

/// Both disk-resident relations scanned at once, `TRIALS` times at each of
/// [`WORKERS`] per scan; computed once, by the first test that asks.
fn scan_sweep() -> &'static [ScanPoint] {
    static SWEEP: OnceLock<Vec<ScanPoint>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let (cat, workload) = disk_resident(0xD15C);
        let cat = Arc::new(cat);
        let runs: Vec<QueryRun> =
            workload.relations.iter().map(|r| full_scan(&cat, &r.name)).collect();
        WORKERS
            .iter()
            .map(|&workers| {
                let reports: Vec<ExecReport> = (0..TRIALS)
                    .map(|_| {
                        let report = Executor::new(scaled(POOL_PAGES), cat.clone())
                            .run(&runs, &mut StartAll::new(m(), workers))
                            .expect("disk-resident scan");
                        assert!(
                            emitted(&report) > 0,
                            "vacuous disk-resident scan at {workers} workers"
                        );
                        report
                    })
                    .collect();
                let wall = median(reports.iter().map(phase_wall).collect());
                let audit = reports[TRIALS - 1].utilization_audit();
                ScanPoint { workers, wall, audit }
            })
            .collect()
    })
}

fn at(sweep: &[ScanPoint], workers: u32) -> &ScanPoint {
    sweep.iter().find(|p| p.workers == workers).expect("swept worker count")
}

/// The paper's central claim on a workload the pool cannot absorb: 8
/// workers strictly beat 1.
#[test]
fn disk_resident_scans_at_8_workers_beat_1_worker() {
    let _alone = alone();
    let sweep = scan_sweep();
    let speedup = at(sweep, 1).wall / at(sweep, 8).wall;
    eprintln!("disk-resident scans: 8w/1w speedup {speedup:.3}");
    assert!(speedup > 1.0, "8-worker/1-worker scan speedup {speedup:.3} <= 1");
}

/// At 8 workers the paired windows of the two co-run scans keep the array's
/// bandwidth inside `[Br, Bs]`: saturated, not under-staffed.
#[test]
fn paired_scans_at_8_workers_run_in_the_disk_band() {
    let _alone = alone();
    let audit = &at(scan_sweep(), 8).audit;
    eprintln!(
        "8-worker paired windows: {:.1} io/s in [{:.1}, {:.1}]",
        audit.paired_bw, audit.band_lo, audit.band_hi
    );
    assert!(
        audit.paired_in_band,
        "8-worker scans left the band: {:.1} io/s outside [{:.1}, {:.1}]",
        audit.paired_bw, audit.band_lo, audit.band_hi
    );
}

/// A lone IO-bound scan under INTER-WITH-ADJ gets `x = B/C` processors and
/// must keep the array busy on the backends staffed for them, each
/// overlapping its next read with its current page.
#[test]
fn a_lone_io_bound_scan_keeps_the_disks_busy() {
    let _alone = alone();
    let (cat, workload) = disk_resident(0xD15C);
    let cat = Arc::new(cat);
    let run = full_scan(&cat, &workload.relations[0].name);
    let audits: Vec<UtilizationAudit> = (0..TRIALS)
        .map(|_| {
            let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
            Executor::new(scaled(POOL_PAGES), cat.clone())
                .run(std::slice::from_ref(&run), &mut policy)
                .expect("solo scan")
                .utilization_audit()
        })
        .collect();
    let requests = audits[0].solo_io_requests;
    let util = median(audits.iter().map(|a| a.solo_io_disk_util).collect());
    eprintln!("solo IO-bound scan: disk utilization {util:.4} over {requests} requests");
    assert!(
        requests > 0 && util >= 0.7,
        "solo disk utilization {util:.4} < 0.7 over {requests} requests"
    );
}

/// `dr ⋈ probe` with the disk-resident relation as the hash-build side: the
/// build scan's disk waits, not materialization, bound the join, and 8
/// workers strictly beat 1. The pool holds the hash table beside the
/// `POOL_PAGES` the scan reads through, so the join runs in memory.
#[test]
fn disk_resident_join_at_8_workers_beats_1_worker() {
    let _alone = alone();
    let seed = 0x10D1;
    let (mut cat, workload) = disk_resident(seed);
    cat.create("dr_probe", Schema::paper_rel());
    let mut s = seed ^ 0xBEEF;
    let probe_rows: Vec<Tuple> = (0..1_000)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Tuple::paper(((s >> 33) % workload.spec.key_mod) as i32, 0)
        })
        .collect();
    cat.load("dr_probe", probe_rows);
    let cat = Arc::new(cat);
    let plan = Plan::HashJoin {
        build: Box::new(Plan::SeqScan { rel: 0 }),
        probe: Box::new(Plan::SeqScan { rel: 1 }),
    };
    let build = &workload.relations[0].name;
    let optimized = pinned_plan(&cat, plan, &[build, "dr_probe"]);
    let held = optimized.fragments.fragments.iter().map(|f| f.profile.memory).fold(0.0, f64::max);
    let pool_pages = POOL_PAGES + (held / PAGE_SIZE as f64).ceil() as usize;
    let run = QueryRun {
        optimized,
        bindings: [build.as_str(), "dr_probe"]
            .map(|name| RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) })
            .to_vec(),
    };
    let walls: Vec<(u32, f64)> = WORKERS
        .iter()
        .map(|&workers| {
            let walls = (0..TRIALS).map(|_| {
                let report = Executor::new(scaled(pool_pages), cat.clone())
                    .run(std::slice::from_ref(&run), &mut FixedParallelism::new(m(), workers))
                    .expect("disk-resident join");
                assert!(emitted(&report) > 0, "vacuous disk-resident join at {workers} workers");
                assert_eq!(report.spill_chunks, 0, "the scaling join must run in memory");
                phase_wall(&report)
            });
            (workers, median(walls.collect()))
        })
        .collect();
    let wall = |w: u32| walls.iter().find(|p| p.0 == w).expect("swept").1;
    let speedup = wall(1) / wall(8);
    eprintln!("disk-resident join: 8w/1w speedup {speedup:.3}");
    assert!(speedup > 1.0, "8-worker/1-worker join speedup {speedup:.3} <= 1");
}

/// A key-domain merge join of a thin build side against a probe side 4× the
/// pool, at 8 workers: Zipf(1) keys concentrate the output on a few keys,
/// and the heavy-hitter fan-out must keep it from serializing the merge —
/// at least half the uniform keys' output rows per second.
#[test]
fn a_zipf_1_merge_join_keeps_half_the_uniform_throughput() {
    let _alone = alone();
    let throughput = |theta: f64| {
        let workload =
            generate_zipf_join(&ZipfJoinSpec::paper(theta, POOL_PAGES as u64, 4, 0x5E3D));
        let mut cat = Catalog::new(StripedLayout::new(4));
        workload.load_into(&mut cat);
        let plan = Plan::MergeJoin {
            left: Box::new(Plan::SeqScan { rel: 0 }),
            right: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let run = QueryRun {
            optimized: pinned_plan(&cat, plan, &[&workload.build, &workload.probe]),
            bindings: [&workload.build, &workload.probe]
                .map(|name| RelBinding { name: name.clone(), pred: (i32::MIN, i32::MAX) })
                .to_vec(),
        };
        let cat = Arc::new(cat);
        let runs: Vec<(usize, f64)> = (0..TRIALS)
            .map(|_| {
                let report = Executor::new(scaled(POOL_PAGES), cat.clone())
                    .run(std::slice::from_ref(&run), &mut FixedParallelism::new(m(), 8))
                    .expect("skewed join");
                (emitted(&report), phase_wall(&report))
            })
            .collect();
        let rows = runs[0].0;
        assert!(rows > 0, "vacuous join at theta {theta}");
        rows as f64 / median(runs.iter().map(|r| r.1).collect())
    };
    let ratio = throughput(1.0) / throughput(0.0);
    eprintln!("merge join: theta=1 / theta=0 throughput {ratio:.3}");
    assert!(ratio >= 0.5, "theta=1 throughput is {ratio:.3}x theta=0, below 0.5x");
}

/// Four concurrent joins declared wrong by 2–8×: over-declared footprints
/// serialize declared-mode admission, and a predictor warmed on two
/// repetitions restores the concurrency — its median wall time over the
/// next four beats the declared mode's over six.
#[test]
fn a_warm_predictor_beats_wrong_declarations_on_wall_time() {
    const SEED: u64 = 0x9D1C;
    const REPS: usize = 6;
    const WARMUP: usize = 2;
    let _alone = alone();
    let cat = wrong_joins::catalog(SEED);
    let runs = wrong_joins::wrong_runs(&cat, SEED);
    let timed = |predictor: Option<&Arc<Predictor>>| {
        let t0 = Instant::now();
        let (report, _) = wrong_joins::run(&cat, &runs, predictor);
        assert!(emitted(&report) > 0, "vacuous joins");
        t0.elapsed().as_secs_f64()
    };
    let declared = median((0..REPS).map(|_| timed(None)).collect());
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));
    let predicted: Vec<f64> = (0..REPS).map(|_| timed(Some(&predictor))).collect();
    let warm = median(predicted[WARMUP..].to_vec());
    eprintln!("wrong declarations: warm predicted {warm:.4}s, declared {declared:.4}s");
    assert!(warm < declared, "predicted mode lost to declared: {warm:.4}s vs {declared:.4}s");
}

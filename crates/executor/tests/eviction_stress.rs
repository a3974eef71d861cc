//! Eviction stress: the larger-than-memory workload generator driving a
//! tiny sharded buffer pool (8 frames, 8 shards — one frame per shard)
//! through sustained eviction pressure. The run must land below a 50% hit
//! rate, the pool's accounting ledger (`hits + misses + bypasses`) must
//! equal the machine's independently-counted page reads — per shard and in
//! total — no pin may survive the run, and the rows must match both a
//! fully cached baseline and the naive oracle (`common/oracle.rs`) under
//! both morsel modes.

use std::sync::Arc;

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::MachineConfig;
use xprs_storage::Catalog;
use xprs_workload::{generate_disk_resident, DiskResidentSpec, DiskResidentWorkload};

#[path = "common/oracle.rs"]
mod oracle;

/// Frames in the stressed pool; the workload spills it 8× per relation.
const TINY_POOL_PAGES: usize = 8;
const SPILL_FACTOR: u64 = 8;
const SEED: u64 = 0xE71C;

fn workload() -> (Arc<Catalog>, DiskResidentWorkload) {
    let spec = DiskResidentSpec::paper(TINY_POOL_PAGES as u64, SPILL_FACTOR, SEED);
    let workload = generate_disk_resident(&spec);
    let mut cat = Catalog::new(StripedLayout::new(4));
    workload.load_into(&mut cat);
    (Arc::new(cat), workload)
}

/// Full scans of every disk-resident relation, twice each — revisiting
/// each relation is what gives a big pool its hits and a tiny pool its
/// evictions.
fn scan_runs(cat: &Arc<Catalog>, workload: &DiskResidentWorkload) -> Vec<QueryRun> {
    let optimizer = TwoPhaseOptimizer::paper_default();
    workload
        .relations
        .iter()
        .chain(workload.relations.iter())
        .map(|rel| {
            let q = Query::selection(&rel.name, 1.0);
            QueryRun {
                optimized: optimizer.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan"),
                bindings: vec![RelBinding {
                    name: rel.name.clone(),
                    pred: (i32::MIN, i32::MAX),
                }],
            }
        })
        .collect()
}

fn run_with_pool(
    cat: &Arc<Catalog>,
    workload: &DiskResidentWorkload,
    pool_pages: usize,
) -> ExecReport {
    let mut cfg = ExecConfig::unthrottled();
    cfg.bufpool_pages = pool_pages;
    cfg.bufpool_shards = TINY_POOL_PAGES;
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(
        MachineConfig::paper_default(),
    ));
    exec.run(&scan_runs(cat, workload), &mut policy).expect("eviction stress run failed")
}

/// Rows in a canonical total order: key, then rendered tuple.
fn canonical(rows: &[(i32, xprs_storage::Tuple)]) -> Vec<(i32, String)> {
    let mut v: Vec<(i32, String)> = rows.iter().map(|(k, t)| (*k, format!("{t:?}"))).collect();
    v.sort();
    v
}

#[test]
fn tiny_shard_pool_thrashes_with_an_exact_ledger_and_no_pin_leaks() {
    let (cat, workload) = workload();
    let oracle_rows: Vec<Vec<oracle::Row>> = scan_runs(&cat, &workload)
        .iter()
        .map(|r| oracle::eval(&cat, &r.optimized.plan, &r.bindings))
        .collect();
    let pages_per_scan: u64 = workload.relations.iter().map(|r| r.n_pages()).sum();
    // Baseline: a pool big enough to cache both relations, so the second
    // pass over each is all hits and the rows are the reference output.
    let baseline = run_with_pool(&cat, &workload, (pages_per_scan * 2) as usize);
    assert!(
        baseline.stats.pool.hit_rate() > 0.45,
        "cacheable baseline should hit on its second pass, got {:.3}",
        baseline.stats.pool.hit_rate()
    );

    let report = run_with_pool(&cat, &workload, TINY_POOL_PAGES);
    let pool = &report.stats.pool;

    // The generator's spill sizing must actually defeat the pool.
    assert!(
        pool.hit_rate() < 0.5,
        "tiny pool should thrash, hit_rate={:.3}",
        pool.hit_rate()
    );

    // Ledger: every page read the machine counted is accounted to
    // exactly one of hit / miss / bypass — in aggregate...
    assert_eq!(
        pool.hits + pool.misses + pool.bypasses,
        report.stats.reads,
        "pool ledger out of balance"
    );
    // ...and the machine's read count is itself grounded: two full
    // scans of each relation, page for page.
    assert_eq!(report.stats.reads, pages_per_scan * 2, "unexpected read count");
    // Per-shard counters sum to the aggregate (no shard double-counts).
    let shard_sum: u64 =
        report.pool_shards.iter().map(|s| s.hits + s.misses + s.bypasses).sum();
    assert_eq!(shard_sum, report.stats.reads, "shard ledgers out of balance");

    // Pin-leak freedom: one-frame shards make even a single leaked pin
    // permanent, and eviction requires an unpinned victim.
    assert_eq!(report.pool_pinned_at_exit, 0, "leaked buffer-pool pins");

    // Eviction pressure was real, not all bypasses.
    assert!(
        pool.evictions > 0,
        "a thrashing pool must evict, stats={pool:?}"
    );

    // Same rows as the cacheable baseline, query for query. Output is
    // key-sorted but tie order among equal keys follows run arrival,
    // which is timing-dependent — compare canonical multisets here;
    // the stable-order guarantee is covered by the parity test, whose
    // payloads are key-determined.
    assert_eq!(report.results.len(), baseline.results.len());
    for (got, want) in report.results.iter().zip(&baseline.results) {
        assert_eq!(
            canonical(&got.rows.rows),
            canonical(&want.rows.rows),
            "rows diverged under eviction"
        );
    }
    // ...and the same rows the oracle computes without any pool at all.
    assert_eq!(report.results.len(), oracle_rows.len());
    for (qi, (got, want)) in report.results.iter().zip(&oracle_rows).enumerate() {
        assert!(!want.is_empty(), "query {qi}: vacuous oracle comparison");
        oracle::assert_matches(&format!("query {qi}"), &got.rows.rows, want);
    }
}

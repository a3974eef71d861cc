//! Concurrent memory-grant admission: hash-join workloads whose aggregate
//! build demand is several times the buffer pool must complete under
//! admission — queueing and spilling as needed — with rows **byte-identical**
//! to an uncontended run, a balanced grant ledger (every granted page
//! released), and an empty pin table at exit. `PoolExhausted` may never
//! surface: a demand past the whole pool runs under a clamped grant and
//! spills.

use std::sync::Arc;

use proptest::prelude::*;
use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecError, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::MachineConfig;
use xprs_storage::Catalog;
use xprs_workload::{generate_oversized_build, OversizedBuildSpec, OversizedBuildWorkload};

const N_DISKS: u32 = 4;
/// Tiny pool the oversized builds are sized against.
const POOL_PAGES: u64 = 32;

/// An oversized-build spec with fatter rows than the bench default, keeping
/// the join outputs (quadratic in tuples-per-page) test-sized while the
/// page demand stays ≥ `demand_factor`× the pool.
fn spec(seed: u64, demand_factor: u64, n_queries: usize) -> OversizedBuildSpec {
    let mut s = OversizedBuildSpec::paper(POOL_PAGES, demand_factor, n_queries, seed);
    s.blen = 200;
    s
}

fn catalog_for(wl: &OversizedBuildWorkload) -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(N_DISKS));
    wl.load_into(&mut cat);
    Arc::new(cat)
}

/// One join query per generated pair, all submitted in a single run so the
/// builds contend for admission concurrently.
fn runs_for(cat: &Arc<Catalog>, wl: &OversizedBuildWorkload) -> Vec<QueryRun> {
    let opt = TwoPhaseOptimizer::paper_default();
    wl.pairs
        .iter()
        .map(|pair| {
            let q = Query::join().rel(&pair.build, 1.0).rel(&pair.probe, 1.0).on(0, 1).build();
            let optimized = opt.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan");
            QueryRun {
                optimized,
                bindings: vec![
                    RelBinding { name: pair.build.clone(), pred: (i32::MIN, i32::MAX) },
                    RelBinding { name: pair.probe.clone(), pred: (i32::MIN, i32::MAX) },
                ],
            }
        })
        .collect()
}

fn run_with(
    cfg: ExecConfig,
    cat: &Arc<Catalog>,
    runs: &[QueryRun],
) -> Result<ExecReport, ExecError> {
    let mut policy =
        AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
    Executor::new(cfg, cat.clone()).run(runs, &mut policy)
}

/// The configuration under test: a pool the workload overwhelms.
fn granted_cfg() -> ExecConfig {
    let mut cfg = ExecConfig::unthrottled();
    cfg.bufpool_pages = POOL_PAGES as usize;
    cfg
}

/// Check every admission invariant of a contended report against the
/// uncontended reference (the same workload over a pool it fits in),
/// returning an error description on the first violation
/// (proptest-friendly).
fn check_invariants(granted: &ExecReport, reference: &ExecReport) -> Result<(), String> {
    if granted.results.len() != reference.results.len() {
        return Err("result count mismatch".into());
    }
    for (i, (g, r)) in granted.results.iter().zip(&reference.results).enumerate() {
        if g.rows.rows != r.rows.rows {
            return Err(format!(
                "query {i}: rows diverge from the uncontended run ({} vs {} tuples)",
                g.rows.rows.len(),
                r.rows.rows.len()
            ));
        }
    }
    if granted.mem_granted_pages == 0 {
        return Err("no pages were ever granted".into());
    }
    if granted.mem_granted_pages != granted.mem_released_pages {
        return Err(format!(
            "grant ledger out of balance: granted {} released {}",
            granted.mem_granted_pages, granted.mem_released_pages
        ));
    }
    if granted.pool_pinned_at_exit != 0 {
        return Err(format!("{} pages still pinned at exit", granted.pool_pinned_at_exit));
    }
    Ok(())
}

/// The acceptance scenario: three concurrent joins whose builds total 4× the
/// pool. All complete (no `PoolExhausted`, no error at all), rows match the
/// uncontended run byte-for-byte, the ledger balances, spill engaged.
#[test]
fn oversized_builds_complete_with_grants_and_spill() {
    let wl = generate_oversized_build(&spec(0xAD0551, 4, 3));
    assert!(wl.total_build_pages() >= 4 * POOL_PAGES);
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);

    let granted = run_with(granted_cfg(), &cat, &runs).expect("contended run failed");
    let reference = run_with(ExecConfig::unthrottled(), &cat, &runs).expect("reference run failed");

    check_invariants(&granted, &reference).unwrap();
    // Builds several times the grant must actually have cut spill runs.
    assert!(granted.spill_chunks > 0, "oversized builds never spilled");
    assert!(granted.spill_rows > 0);
    // The reference is a pool the whole workload fits in: nothing waits
    // and nothing spills.
    assert_eq!(reference.mem_grant_waits, 0);
    assert_eq!(reference.spill_chunks, 0);
    assert_eq!(reference.mem_granted_pages, reference.mem_released_pages);
}

/// Memory is scheduled on every run, not behind an option: the stock
/// configuration, untouched by any builder, over builds totalling 4× *its*
/// pool grants them, spills them and balances its ledger.
#[test]
fn the_default_configuration_schedules_memory() {
    let cfg = ExecConfig::unthrottled();
    let mut spec = OversizedBuildSpec::paper(cfg.bufpool_pages as u64, 4, 3, 0xDEFA);
    // Sparse keys keep the join outputs (rows² / key_mod) test-sized over
    // builds this large.
    (spec.blen, spec.key_mod) = (200, 50_000);
    let wl = generate_oversized_build(&spec);
    assert!(wl.total_build_pages() >= 4 * cfg.bufpool_pages as u64);
    let cat = catalog_for(&wl);
    let report = run_with(cfg, &cat, &runs_for(&cat, &wl)).expect("default-config run failed");
    assert!(report.results.iter().all(|r| !r.rows.rows.is_empty()), "vacuous join");
    assert!(report.mem_granted_pages > 0, "no pages were ever granted");
    assert_eq!(report.mem_granted_pages, report.mem_released_pages, "ledger out of balance");
    assert!(report.spill_chunks > 0, "over-pool builds never spilled");
    assert_eq!(report.pool_pinned_at_exit, 0);
}

/// Admission queueing is observable: with several oversized builds racing
/// for a pool that admits at most one clamped grant at a time, at least one
/// fragment must wait in the FIFO.
#[test]
fn concurrent_oversized_builds_wait_in_the_admission_queue() {
    let wl = generate_oversized_build(&spec(0x5EED, 6, 4));
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);
    let report = run_with(granted_cfg(), &cat, &runs).expect("run failed");
    assert!(
        report.mem_grant_waits > 0,
        "4 concurrent over-pool builds never queued for admission"
    );
}

/// Spill is for a build the pool cannot hold, not for builds that cannot run
/// side by side: six builds of two thirds of the pool each queue for it and
/// run in memory, byte-identical to the uncontended run.
#[test]
fn builds_that_each_fit_the_pool_wait_and_never_spill() {
    let wl = generate_oversized_build(&spec(0xF175, 4, 6));
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);
    let granted = run_with(granted_cfg(), &cat, &runs).expect("contended run failed");
    let reference = run_with(ExecConfig::unthrottled(), &cat, &runs).expect("reference run failed");
    check_invariants(&granted, &reference).unwrap();
    assert!(granted.mem_grant_waits > 0, "4× the pool in six builds never queued");
    assert_eq!(granted.spill_chunks, 0, "a build its grant covers cut spill runs");
}

proptest! {
    // Each case is two full executor runs over a generated catalog; keep
    // the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and workload shape in the ≥4× regime: the contended run
    /// completes (zero `PoolExhausted` surfaced), returns byte-identical
    /// rows to the uncontended run, balances its grant ledger, and leaves
    /// no page pinned.
    #[test]
    fn concurrent_admission_is_safe_and_answer_preserving(
        seed in 0u64..1_000_000,
        demand_factor in 4u64..=6,
        n_queries in 2usize..=3,
    ) {
        let wl = generate_oversized_build(&spec(seed, demand_factor, n_queries));
        let cat = catalog_for(&wl);
        let runs = runs_for(&cat, &wl);
        let granted = run_with(granted_cfg(), &cat, &runs);
        prop_assert!(granted.is_ok(), "contended run died: {}", granted.unwrap_err());
        let granted = granted.unwrap();
        let reference = run_with(ExecConfig::unthrottled(), &cat, &runs);
        prop_assert!(reference.is_ok(), "reference run died: {}", reference.unwrap_err());
        let reference = reference.unwrap();
        let verdict = check_invariants(&granted, &reference);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

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

/// The grants-on configuration under test: a pool the workload overwhelms.
fn granted_cfg() -> ExecConfig {
    let mut cfg = ExecConfig::unthrottled().with_memory_grants();
    cfg.bufpool_pages = POOL_PAGES as usize;
    cfg
}

/// Check every admission invariant of a grants-on report against the
/// uncontended reference, returning an error description on the first
/// violation (proptest-friendly).
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

    let granted = run_with(granted_cfg(), &cat, &runs).expect("grants-on run failed");
    let reference = run_with(ExecConfig::unthrottled(), &cat, &runs).expect("reference run failed");

    check_invariants(&granted, &reference).unwrap();
    // Builds several times the grant must actually have cut spill runs.
    assert!(granted.spill_chunks > 0, "oversized builds never spilled");
    assert!(granted.spill_rows > 0);
    // The reference run had grants off: its ledger must be empty.
    assert_eq!(reference.mem_granted_pages, 0);
    assert_eq!(reference.spill_chunks, 0);
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

proptest! {
    // Each case is two full executor runs over a generated catalog; keep
    // the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed and workload shape in the ≥4× regime: the grants-on run
    /// completes (zero `PoolExhausted` surfaced), returns byte-identical
    /// rows to the uncontended grants-off run, balances its grant ledger,
    /// and leaves no page pinned.
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
        prop_assert!(granted.is_ok(), "grants-on run died: {}", granted.unwrap_err());
        let granted = granted.unwrap();
        let reference = run_with(ExecConfig::unthrottled(), &cat, &runs);
        prop_assert!(reference.is_ok(), "reference run died: {}", reference.unwrap_err());
        let reference = reference.unwrap();
        let verdict = check_invariants(&granted, &reference);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

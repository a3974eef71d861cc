//! Cancellation safety under arbitrary timing: queries cancelled at random
//! unit boundaries — including mid-spill (oversized builds under a tiny
//! granted pool) and mid-steal (morsel mode is the stealing default) — must
//! leave a balanced grant ledger, zero pinned pages at exit, and
//! byte-identical rows for every query that survived.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xprs_disk::StripedLayout;
use xprs_executor::{CancelToken, ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::MachineConfig;
use xprs_storage::Catalog;
use xprs_workload::{generate_oversized_build, OversizedBuildSpec, OversizedBuildWorkload};

/// Tiny pool so the oversized builds must spill under grants — a cancel
/// landing mid-run has a good chance of landing mid-spill.
const POOL_PAGES: u64 = 32;

fn spec(seed: u64, n_queries: usize) -> OversizedBuildSpec {
    let mut s = OversizedBuildSpec::paper(POOL_PAGES, 4, n_queries, seed);
    s.blen = 200;
    s
}

fn catalog_for(wl: &OversizedBuildWorkload) -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    wl.load_into(&mut cat);
    Arc::new(cat)
}

fn runs_for(cat: &Arc<Catalog>, wl: &OversizedBuildWorkload) -> Vec<QueryRun> {
    let opt = TwoPhaseOptimizer::paper_default();
    wl.pairs
        .iter()
        .map(|pair| {
            let q = Query::join().rel(&pair.build, 1.0).rel(&pair.probe, 1.0).on(0, 1).build();
            QueryRun {
                optimized: opt.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan"),
                bindings: vec![
                    RelBinding { name: pair.build.clone(), pred: (i32::MIN, i32::MAX) },
                    RelBinding { name: pair.probe.clone(), pred: (i32::MIN, i32::MAX) },
                ],
            }
        })
        .collect()
}

fn granted_cfg() -> ExecConfig {
    let mut cfg = ExecConfig::unthrottled().with_patrol(2, 3);
    cfg.bufpool_pages = POOL_PAGES as usize;
    cfg
}

fn policy() -> AdaptiveScheduler {
    AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()))
}

/// Run `runs` with per-query tokens, firing each token from a side thread
/// after its delay (`None` = pre-fired before the run starts, hitting the
/// master's first poll; `Some(µs)` = mid-run, hitting whatever unit or
/// morsel boundary the race lands on).
fn run_with_cancels(
    cfg: ExecConfig,
    cat: &Arc<Catalog>,
    runs: &[QueryRun],
    delays: &[Option<Option<u64>>],
) -> ExecReport {
    assert_eq!(runs.len(), delays.len());
    let tokens: Vec<CancelToken> = delays.iter().map(|_| CancelToken::new()).collect();
    let mut firers = Vec::new();
    for (tok, delay) in tokens.iter().zip(delays) {
        match delay {
            None => {}
            Some(None) => tok.cancel(),
            Some(Some(micros)) => {
                let tok = tok.clone();
                let micros = *micros;
                firers.push(std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_micros(micros));
                    tok.cancel();
                }));
            }
        }
    }
    let report = Executor::new(cfg, cat.clone())
        .run_with_cancel(runs, &mut policy(), &tokens)
        .expect("cancelled run must still return a report");
    for f in firers {
        f.join().expect("cancel firer panicked");
    }
    report
}

/// The invariants every cancelled run must satisfy, against an
/// uncancelled reference.
fn check(report: &ExecReport, reference: &ExecReport) -> Result<(), String> {
    if report.mem_granted_pages != report.mem_released_pages {
        return Err(format!(
            "grant ledger out of balance: granted {} released {}",
            report.mem_granted_pages, report.mem_released_pages
        ));
    }
    if report.pool_pinned_at_exit != 0 {
        return Err(format!("{} pages still pinned at exit", report.pool_pinned_at_exit));
    }
    for (qi, cancelled) in report.cancelled.iter().enumerate() {
        if *cancelled {
            if !report.results[qi].rows.rows.is_empty() {
                return Err(format!("cancelled query {qi} still produced rows"));
            }
        } else if report.results[qi].rows.rows != reference.results[qi].rows.rows {
            return Err(format!(
                "surviving query {qi} diverged from the reference ({} vs {} tuples)",
                report.results[qi].rows.rows.len(),
                reference.results[qi].rows.rows.len()
            ));
        }
    }
    Ok(())
}

/// Acceptance: cancel *every* query before the run starts. All are
/// reported cancelled with empty outputs, nothing is granted-and-kept,
/// nothing stays pinned.
#[test]
fn mass_prefired_cancellation_releases_everything() {
    let wl = generate_oversized_build(&spec(0xCA9CE1, 3));
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);
    let delays = vec![Some(None); runs.len()];
    let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays);
    assert!(report.cancelled.iter().all(|&c| c), "pre-fired tokens must cancel every query");
    assert!(report.results.iter().all(|r| r.rows.rows.is_empty()));
    assert_eq!(report.mem_granted_pages, report.mem_released_pages);
    assert_eq!(report.pool_pinned_at_exit, 0);
}

/// A deadline token behaves like a manual cancel: queries under an
/// immediate deadline settle as cancelled with balanced ledgers.
#[test]
fn deadline_tokens_cancel_like_manual_tokens() {
    let wl = generate_oversized_build(&spec(0xDEAD11, 2));
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);
    let tokens: Vec<CancelToken> =
        runs.iter().map(|_| CancelToken::with_deadline(Duration::from_micros(200))).collect();
    let report = Executor::new(granted_cfg(), cat.clone())
        .run_with_cancel(&runs, &mut policy(), &tokens)
        .expect("run must survive deadline cancellation");
    assert_eq!(report.mem_granted_pages, report.mem_released_pages);
    assert_eq!(report.pool_pinned_at_exit, 0);
    // A 200 µs deadline against multi-page spilling joins: at least one
    // query must actually have been cut short.
    assert!(report.cancelled.iter().any(|&c| c), "no deadline ever fired");
}

proptest! {
    // Each case is two full executor runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seed, any cancel subset, and any fire delay (pre-fired or
    /// mid-run): the run returns, the grant ledger balances, no page stays
    /// pinned, cancelled queries yield no rows, and surviving queries are
    /// byte-identical to the uncancelled reference.
    #[test]
    fn cancellation_at_random_boundaries_is_leak_free_and_answer_preserving(
        seed in 0u64..1_000_000,
        cancel_mask in 1u8..7,           // at least one of 3 queries cancelled
        prefire in proptest::bool::ANY,
        delay_us in 0u64..30_000,        // mid-run window: 0–30 ms
    ) {
        let wl = generate_oversized_build(&spec(seed, 3));
        let cat = catalog_for(&wl);
        let runs = runs_for(&cat, &wl);
        let delays: Vec<Option<Option<u64>>> = (0..runs.len())
            .map(|qi| {
                if cancel_mask & (1 << qi) == 0 {
                    None
                } else if prefire && qi == 0 {
                    Some(None)
                } else {
                    Some(Some(delay_us + 500 * qi as u64))
                }
            })
            .collect();

        let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays);
        let reference = Executor::new(ExecConfig::unthrottled(), cat.clone())
            .run(&runs, &mut policy());
        prop_assert!(reference.is_ok(), "reference run died: {}", reference.unwrap_err());
        let reference = reference.unwrap();

        // A query whose token never fired must not be reported cancelled.
        for (qi, d) in delays.iter().enumerate() {
            if d.is_none() {
                prop_assert!(!report.cancelled[qi], "uncancelled query {qi} marked cancelled");
            }
        }
        let verdict = check(&report, &reference);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Regression: a token that fires *after* its query already completed is
/// a no-op — the query keeps its rows and is not reported cancelled. The
/// original bug marked such queries cancelled while their materialized
/// results stood, so `cancelled[qi] ⇒ empty rows` was violated.
#[test]
fn late_token_never_marks_a_completed_query_cancelled() {
    let wl = generate_oversized_build(&spec(819221, 3));
    let cat = catalog_for(&wl);
    let runs = runs_for(&cat, &wl);
    for _ in 0..10 {
        // One pre-fired, one racing completion, one never fired.
        let delays = vec![Some(None), Some(Some(9_107)), None];
        let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays);
        for (qi, &c) in report.cancelled.iter().enumerate() {
            assert!(
                !c || report.results[qi].rows.rows.is_empty(),
                "query {qi} reported cancelled but kept {} rows",
                report.results[qi].rows.rows.len()
            );
        }
        assert!(!report.cancelled[2], "unfired token must never cancel");
        assert_eq!(report.mem_granted_pages, report.mem_released_pages);
        assert_eq!(report.pool_pinned_at_exit, 0);
    }
}

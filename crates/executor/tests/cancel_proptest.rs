//! Cancellation safety under arbitrary timing: queries cancelled at random
//! unit boundaries — including mid-spill (oversized builds under a tiny
//! granted pool), mid-steal (morsel mode is the stealing default) and
//! mid-slice (a page scan with fewer pages than backends) — must leave a
//! balanced grant ledger, zero pinned pages at exit, and byte-identical rows
//! for every query that survived.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xprs_disk::StripedLayout;
use xprs_executor::{
    CancelToken, Clock, ExecConfig, ExecReport, Executor, QueryRun, RelBinding, WallClock,
};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::policy::SchedulePolicy;
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_workload::{generate_oversized_build, OversizedBuildSpec, OversizedBuildWorkload};
use xprs_testkit::oracle;

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
    ExecConfig { bufpool_pages: POOL_PAGES as usize, ..ExecConfig::unthrottled() }
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
    policy: &mut dyn SchedulePolicy,
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
        .run_with_cancel(runs, policy, &tokens)
        .expect("cancelled run must still return a report");
    for f in firers {
        f.join().expect("cancel firer panicked");
    }
    report
}

/// The invariants every cancelled run must satisfy, against the rows each
/// query returns uncancelled.
fn check(report: &ExecReport, want: &[Vec<(i32, Tuple)>]) -> Result<(), String> {
    if report.mem_granted_pages != report.mem_released_pages {
        return Err(format!(
            "grant ledger out of balance: granted {} released {}",
            report.mem_granted_pages, report.mem_released_pages
        ));
    }
    if report.pool_pinned_at_exit != 0 {
        return Err(format!("{} pages still pinned at exit", report.pool_pinned_at_exit));
    }
    for (qi, q) in report.profiles.iter().enumerate() {
        if q.cancelled {
            if !report.results[qi].rows.rows.is_empty() {
                return Err(format!("cancelled query {qi} still produced rows"));
            }
        } else if report.results[qi].rows.rows != want[qi] {
            return Err(format!(
                "surviving query {qi} diverged from the reference ({} vs {} tuples)",
                report.results[qi].rows.rows.len(),
                want[qi].len()
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
    let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays, &mut policy());
    assert!(
        report.profiles.iter().all(|q| q.cancelled),
        "pre-fired tokens must cancel every query"
    );
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
    // A private run reads the wall clock.
    let now = WallClock.now();
    let tokens: Vec<CancelToken> =
        runs.iter().map(|_| CancelToken::with_deadline(now, Duration::from_micros(200))).collect();
    let report = Executor::new(granted_cfg(), cat.clone())
        .run_with_cancel(&runs, &mut policy(), &tokens)
        .expect("run must survive deadline cancellation");
    assert_eq!(report.mem_granted_pages, report.mem_released_pages);
    assert_eq!(report.pool_pinned_at_exit, 0);
    // A 200 µs deadline against multi-page spilling joins: at least one
    // query must actually have been cut short.
    assert!(report.profiles.iter().any(|q| q.cancelled), "no deadline ever fired");
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

        let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays, &mut policy());
        let reference = Executor::new(ExecConfig::unthrottled(), cat.clone())
            .run(&runs, &mut policy());
        prop_assert!(reference.is_ok(), "reference run died: {}", reference.unwrap_err());
        let reference: Vec<_> =
            reference.unwrap().results.iter().map(|r| r.rows.rows.clone()).collect();

        // A query whose token never fired must not be reported cancelled.
        for (qi, d) in delays.iter().enumerate() {
            if d.is_none() {
                prop_assert!(!report.profiles[qi].cancelled, "uncancelled query {qi} marked cancelled");
            }
        }
        let verdict = check(&report, &reference);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// The sliced shape: a six-page CPU-bound scan at all eight processors
    /// is dealt as 48 tuple slices, alone and as the probe of a join, at
    /// 10× so a cancel lands mid-slice with sibling slices waiting on a page
    /// still being read. Survivors match the oracle.
    #[test]
    fn cancellation_mid_slice_is_leak_free_and_answer_preserving(
        cancel_mask in 1u8..4,           // at least one of 2 queries cancelled
        delay_us in 0u64..10_000,        // mid-run window: 0–10 ms
    ) {
        let cat = sliced_catalog();
        let runs = sliced_runs(&cat);
        let delays: Vec<Option<Option<u64>>> = (0..runs.len())
            .map(|qi| (cancel_mask & (1 << qi) != 0).then_some(Some(delay_us + 500 * qi as u64)))
            .collect();
        let cfg = ExecConfig::scaled(10.0);
        let mut intra = IntraOnly::new(MachineConfig::paper_default(), true);
        let report = run_with_cancels(cfg, &cat, &runs, &delays, &mut intra);
        let want: Vec<_> =
            runs.iter().map(|r| oracle::eval(&cat, &r.optimized.plan, &r.bindings)).collect();
        if !report.profiles[0].cancelled {
            let scan = &report.profiles[0].fragments[0];
            prop_assert_eq!(scan.units, SLICED_PAGES * 8, "the scan was not sliced");
        }
        let verdict = check(&report, &want);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

/// Pages of the sliced relation `tiny`.
const SLICED_PAGES: u64 = 6;

/// `tiny`: 1 600 short tuples, 272 to a page — six pages, a CPU-bound
/// scan. `wide`: 240 tuples of ~800 bytes, the 24-page build side of a join
/// that probes `tiny`. Rows of one key are identical, so the oracle's
/// canonical order is the executor's key order.
fn sliced_catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x511C_u64;
    for (name, n, blen) in [("tiny", 1_600u64, 16usize), ("wide", 240, 800)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = ((seed >> 33) % 60) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
            .collect();
        cat.load(name, rows);
    }
    assert_eq!(cat.get("tiny").expect("loaded").heap.n_blocks(), SLICED_PAGES);
    Arc::new(cat)
}

/// A selection over `tiny`, and a join of `wide` (build) with `tiny`
/// (probe).
fn sliced_runs(cat: &Catalog) -> Vec<QueryRun> {
    let opt = TwoPhaseOptimizer::paper_default();
    let all = |name: &str| RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) };
    let join = Query::join().rel("wide", 1.0).rel("tiny", 1.0).on(0, 1).build();
    vec![
        QueryRun {
            optimized: opt
                .optimize_catalog(cat, &Query::selection("tiny", 1.0), Costing::SeqCost)
                .expect("plan"),
            bindings: vec![all("tiny")],
        },
        QueryRun {
            optimized: opt.optimize_catalog(cat, &join, Costing::SeqCost).expect("plan"),
            bindings: vec![all("wide"), all("tiny")],
        },
    ]
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
        let report = run_with_cancels(granted_cfg(), &cat, &runs, &delays, &mut policy());
        for (qi, c) in report.profiles.iter().map(|q| q.cancelled).enumerate() {
            assert!(
                !c || report.results[qi].rows.rows.is_empty(),
                "query {qi} reported cancelled but kept {} rows",
                report.results[qi].rows.rows.len()
            );
        }
        assert!(!report.profiles[2].cancelled, "unfired token must never cancel");
        assert_eq!(report.mem_granted_pages, report.mem_released_pages);
        assert_eq!(report.pool_pinned_at_exit, 0);
    }
}

/// A cancel that lands after the last backend left a fragment but before
/// the fragment's modelled end — the master has materialized the output
/// and waits for that end — still cancels the query: no rows, the probe's
/// grant released exactly once, no pin left. The window opens when the
/// last backend reserves its last CPU burst, which is when the machine's
/// charged CPU reaches the uncancelled run's total; at real time (scale 1)
/// it is at least one slice's CPU, ≈ 8 ms, against the master's 2 ms patrol
/// tick. A host stall that lets the end pass first leaves an uncancelled,
/// complete run, so the case is retried until the cancel lands.
#[test]
fn a_cancel_while_a_fragment_waits_for_its_modelled_end_returns_no_rows() {
    let cat = sliced_catalog();
    let runs = vec![sliced_runs(&cat).swap_remove(1)];
    let want = oracle::eval(&cat, &runs[0].optimized.plan, &runs[0].bindings);
    let exec = Executor::new(ExecConfig::scaled(1.0), cat.clone());
    let session = exec.session();
    let machine = session.machine().clone();
    let intra = || IntraOnly::new(MachineConfig::paper_default(), true);
    let before = machine.cpu_busy_secs();
    let reference = exec.run_shared(&session, &runs, &mut intra(), &[]).expect("reference run");
    let total = machine.cpu_busy_secs() - before;
    assert_eq!(reference.results[0].rows.rows, want, "the uncancelled join diverged");
    let mut landed = false;
    for _ in 0..5 {
        let token = CancelToken::new();
        let target = machine.cpu_busy_secs() + total * (1.0 - 1e-9);
        let firer = {
            let (machine, token) = (machine.clone(), token.clone());
            std::thread::spawn(move || {
                while machine.cpu_busy_secs() < target {
                    std::thread::sleep(Duration::from_micros(20));
                }
                token.cancel();
            })
        };
        let report = exec
            .run_shared(&session, &runs, &mut intra(), std::slice::from_ref(&token))
            .expect("a cancelled run still reports");
        firer.join().expect("cancel firer panicked");
        assert!(report.mem_granted_pages > 0, "the probe holds no grant");
        assert_eq!(report.mem_granted_pages, report.mem_released_pages, "grant ledger out of balance");
        assert_eq!(report.pool_pinned_at_exit, 0);
        assert_eq!((session.reserved_pages(), session.pinned_pages()), (0, 0));
        let frags = &report.profiles[0].fragments;
        assert!(frags.iter().all(|f| f.finished_at >= f.model_end), "{frags:?}");
        if report.profiles[0].cancelled {
            assert!(report.results[0].rows.rows.is_empty(), "a cancelled query returned rows");
            landed = true;
            break;
        }
        assert_eq!(report.results[0].rows.rows, want, "an uncancelled run diverged");
    }
    assert!(landed, "no cancel landed before the fragment's modelled end");
    session.shutdown();
}

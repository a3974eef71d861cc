//! Units sized to the staffing: a page scan with fewer pages than backends
//! is dealt as `pages × backends` tuple slices, so every granted processor
//! does work. A six-page CPU-bound selection the policy runs at all eight
//! processors must return the oracle's rows, keep no staffed backend idle,
//! charge exactly the tuples it holds, count each page once in its
//! footprint, and stay exactly-once when a backend dies mid-slice or the
//! query is cancelled mid-fragment. Sibling slices of a page hit its frame
//! while the first slice's read is in flight and wait for it (`io.rs`), so
//! these runs are scaled.

use std::sync::Arc;
use std::time::Duration;

use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{
    CancelToken, ExecConfig, ExecReport, Executor, FragmentProfile, QueryRun, RelBinding,
};
use xprs_optimizer::cost::CPU_TUPLE;
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// Pages of `thin`, the sliced relation.
const PAGES: u64 = 6;
/// Tuples of `thin`: 272 fit a page, so six pages.
const THIN_TUPLES: u64 = 1_600;

/// `thin`: six pages of short tuples, a CPU-bound scan (C ≈ 13) that
/// INTRA-ONLY runs at all eight processors. `wide`: ~10 tuples a page over
/// 24 pages, the build side of a join whose probe scans `thin`.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0x511C_u64;
    for (name, n, blen) in [("thin", THIN_TUPLES, 16usize), ("wide", 240, 800)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let a = (lcg(&mut seed) % 60) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
            })
            .collect();
        cat.load(name, rows);
    }
    assert_eq!(cat.get("thin").expect("loaded").heap.n_blocks(), PAGES);
    Arc::new(cat)
}

const ALL: (i32, i32) = (i32::MIN, i32::MAX);

fn plan(cat: &Catalog, q: &Query, names: &[&str]) -> QueryRun {
    QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(cat, q, Costing::SeqCost)
            .expect("plan"),
        bindings: names.iter().map(|n| RelBinding { name: (*n).into(), pred: ALL }).collect(),
    }
}

fn scan_thin(cat: &Catalog) -> QueryRun {
    plan(cat, &Query::selection("thin", 1.0), &["thin"])
}

/// Build `wide`, probe with `thin`: the probe fragment holds the 24-page
/// build table and scans six pages.
fn join(cat: &Catalog) -> QueryRun {
    plan(cat, &Query::join().rel("wide", 1.0).rel("thin", 1.0).on(0, 1).build(), &["wide", "thin"])
}

fn policy() -> IntraOnly {
    IntraOnly::new(MachineConfig::paper_default(), true)
}

/// The one fragment of query `qi` that scanned `thin`, sliced.
fn sliced(report: &ExecReport, qi: usize) -> &FragmentProfile {
    let frag = report.profiles[qi]
        .fragments
        .iter()
        .find(|f| f.is_root)
        .expect("every query has a root fragment");
    assert_eq!(frag.parallelism, 8, "the premise: a CPU-bound scan at all eight processors");
    assert_eq!(frag.backends, 8);
    frag
}

fn assert_matches_oracle(
    label: &str,
    cat: &Catalog,
    run: &QueryRun,
    report: &ExecReport,
    qi: usize,
) {
    let want = oracle::eval(cat, &run.optimized.plan, &run.bindings);
    assert!(!want.is_empty(), "{label}: vacuous query");
    oracle::assert_matches(label, &report.results[qi].rows.rows, &want);
}

#[test]
fn a_six_page_scan_at_eight_processors_puts_every_backend_to_work() {
    let cat = catalog();
    let runs = vec![scan_thin(&cat)];
    let report = Executor::new(ExecConfig::scaled(20.0), cat.clone())
        .run(&runs, &mut policy())
        .expect("run failed");
    assert_matches_oracle("sliced scan", &cat, &runs[0], &report, 0);
    let frag = sliced(&report, 0);
    assert_eq!(frag.units, PAGES * 8, "each page is dealt as one slice per backend");
    assert_eq!(frag.idle_slots, 0, "a staffed backend finished no unit");
    assert_eq!(frag.observed_pages, PAGES, "a sliced page counts once");
    // Slices partition each page's tuples: the charged CPU is the unsliced
    // scan's, to rounding.
    let want = THIN_TUPLES as f64 * CPU_TUPLE;
    assert!(
        (report.cpu_busy - want).abs() <= 1e-9 * want,
        "charged {} s of CPU, the tuples hold {want} s",
        report.cpu_busy
    );
    assert_eq!(report.pool_pinned_at_exit, 0);
}

#[test]
fn a_sliced_lookup_never_finishes_ahead_of_its_modelled_cpu() {
    // The service lookup's shape at 40×, on a shared session whose pool
    // already holds the six pages (as the service's does), so no disk wait
    // hides the CPU: from the fragment's start, its wall time is at least
    // one backend's even share of the modelled CPU. A lower bound only: it
    // fails if a backend's model clock ever lets it run ahead of the CPU it
    // was charged.
    let cat = catalog();
    let runs = vec![scan_thin(&cat)];
    let cfg = ExecConfig::scaled(40.0);
    let scale = cfg.scale;
    let exec = Executor::new(cfg, cat.clone());
    let session = exec.session();
    let run = || exec.run_shared(&session, &runs, &mut policy(), &[]).expect("run failed");
    let mut before = run().cpu_busy;
    for _ in 0..3 {
        let warm = run();
        assert_matches_oracle("warm lookup", &cat, &runs[0], &warm, 0);
        let frag = sliced(&warm, 0);
        let floor = (warm.cpu_busy - before) / frag.backends as f64 * scale;
        let took = frag.finished_at - frag.started_at;
        assert!(took >= floor, "finished {took} s after its start, its modelled CPU is {floor} s");
        before = warm.cpu_busy;
    }
    session.shutdown();
}

#[test]
fn a_sliced_probe_counts_each_page_once_in_its_footprint() {
    // The probe declares the 24-page build table it holds; counting every
    // sibling slice's read would report 48 pages and flag an overrun.
    let cat = catalog();
    let runs = vec![join(&cat)];
    let report = Executor::new(ExecConfig::scaled(20.0), cat.clone())
        .run(&runs, &mut policy())
        .expect("run failed");
    assert_matches_oracle("sliced probe", &cat, &runs[0], &report, 0);
    let probe = sliced(&report, 0);
    assert_eq!(probe.units, PAGES * 8);
    assert_eq!(probe.observed_pages, PAGES);
    assert!(probe.declared_pages >= probe.observed_pages, "{probe:?}");
    assert_eq!(report.footprint_overruns(), 0);
}

#[test]
fn a_backend_dying_mid_slice_leaves_the_run_exactly_once() {
    // Each of the eight backends is dealt six slices; slot 3 dies after
    // claiming two, with the second's read in flight. The master hands the
    // four it never claimed to a replacement.
    let cat = catalog();
    let runs = vec![scan_thin(&cat)];
    let plan = Arc::new(FaultPlan::new().with_worker_death(0, 3, 2));
    let exec = Executor::new(ExecConfig::scaled(20.0).with_faults(plan.clone()), cat.clone());
    let session = exec.session();
    let report = exec.run_shared(&session, &runs, &mut policy(), &[]).expect("run failed");
    assert_eq!(plan.stats().deaths_fired(), 1, "the death must fire");
    assert_eq!(report.worker_recoveries, plan.stats().deaths_fired(), "one replacement per death");
    assert_eq!(sliced(&report, 0).units, PAGES * 8, "every slice finished exactly once");
    assert_matches_oracle("after a death mid-slice", &cat, &runs[0], &report, 0);
    assert_eq!(report.pool_pinned_at_exit, 0);
    assert_eq!(session.pinned_pages(), 0, "a pin outlived its read");
    session.shutdown();
}

#[test]
fn a_cancel_mid_fragment_returns_no_rows_and_leaves_the_ledgers_at_zero() {
    // At 2× a backend's six slices take ≈ 40 ms of wall; the cancel lands
    // after 5 ms, with every backend mid-slice. The join gives the grant
    // ledger something to balance.
    let cat = catalog();
    let runs = vec![scan_thin(&cat), join(&cat)];
    let exec = Executor::new(ExecConfig::scaled(2.0), cat.clone());
    let session = exec.session();
    let deadline = CancelToken::with_deadline(session.clock().now(), Duration::from_millis(5));
    let tokens = vec![deadline, CancelToken::new()];
    let report = exec
        .run_shared(&session, &runs, &mut policy(), &tokens)
        .expect("a cancelled run still reports");
    assert!(report.profiles[0].cancelled, "the cancel landed after the scan finished");
    assert!(report.results[0].rows.rows.is_empty(), "a cancelled query returns no rows");
    assert_matches_oracle("survivor", &cat, &runs[1], &report, 1);
    assert_eq!(report.mem_granted_pages, report.mem_released_pages, "grant ledger out of balance");
    assert_eq!(report.pool_pinned_at_exit, 0);
    assert_eq!(session.reserved_pages(), 0);
    assert_eq!(session.pinned_pages(), 0);
    session.shutdown();
}

/// Every fragment of `report` ends no earlier than its modelled end, the
/// latest end a leaving backend reserved for its last CPU burst, and each
/// one that staffed a backend has such an end after its start.
fn assert_done_at_the_modelled_end(label: &str, report: &ExecReport) {
    for frag in report.profiles.iter().flat_map(|q| &q.fragments) {
        assert!(frag.staffed > 0, "{label}: a fragment ran no backend: {frag:?}");
        assert!(frag.model_end > frag.started_at, "{label}: no modelled end reserved: {frag:?}");
        assert!(
            frag.finished_at >= frag.model_end,
            "{label}: finished at {} s, before its modelled end at {} s",
            frag.finished_at,
            frag.model_end
        );
    }
}

#[test]
fn no_fragment_finishes_before_its_modelled_end() {
    // A backend leaves as soon as its last unit is evaluated and holds a
    // processor for its last burst; the master marks the fragment done
    // only once that burst has ended. Structural, with no wall bound: the
    // sliced lookup and the two-fragment join at 40× on a shared session,
    // and a disk-resident scan of `wide` at 20× on a fresh machine.
    let cat = catalog();
    let exec = Executor::new(ExecConfig::scaled(40.0), cat.clone());
    let session = exec.session();
    for (label, runs) in [("lookup", vec![scan_thin(&cat)]), ("join", vec![join(&cat)])] {
        for _ in 0..2 {
            let report = exec.run_shared(&session, &runs, &mut policy(), &[]).expect("run failed");
            assert_matches_oracle(label, &cat, &runs[0], &report, 0);
            assert_eq!(report.profiles[0].fragments.len(), runs[0].optimized.fragments.fragments.len());
            assert_done_at_the_modelled_end(label, &report);
        }
    }
    assert_eq!((session.reserved_pages(), session.pinned_pages()), (0, 0));
    session.shutdown();

    let runs = vec![plan(&cat, &Query::selection("wide", 1.0), &["wide"])];
    let report = Executor::new(ExecConfig::scaled(20.0), cat.clone())
        .run(&runs, &mut policy())
        .expect("run failed");
    assert!(report.stats.disk.total() > 0, "the scan read no disk");
    assert_matches_oracle("disk-resident scan", &cat, &runs[0], &report, 0);
    assert_done_at_the_modelled_end("disk-resident scan", &report);
}

#[test]
fn a_death_after_the_other_backends_left_still_finishes_every_slice_once() {
    // Slot 3 stalls for 40 ms after its first claim, far longer than the
    // other seven backends take to finish and leave at 20× (≈ 3 ms), then
    // dies at its next claim boundary. Its unclaimed slices go to a
    // replacement (or were stolen before); the fragment still ends once,
    // at the latest reserved end, with every slice finished exactly once.
    let cat = catalog();
    let runs = vec![scan_thin(&cat)];
    let plan = Arc::new(
        FaultPlan::new().with_worker_stall(0, 3, 1, 40).with_worker_death(0, 3, 2),
    );
    let exec = Executor::new(ExecConfig::scaled(20.0).with_faults(plan.clone()), cat.clone());
    let session = exec.session();
    let report = exec.run_shared(&session, &runs, &mut policy(), &[]).expect("run failed");
    assert_eq!((plan.stats().stalls_fired(), plan.stats().deaths_fired()), (1, 1));
    assert_eq!(sliced(&report, 0).units, PAGES * 8, "every slice finished exactly once");
    assert_matches_oracle("after a late death", &cat, &runs[0], &report, 0);
    assert_done_at_the_modelled_end("after a late death", &report);
    assert_eq!(report.pool_pinned_at_exit, 0);
    assert_eq!((session.reserved_pages(), session.pinned_pages()), (0, 0));
    session.shutdown();
}

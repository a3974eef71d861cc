//! Property tests over seeded fault schedules: for any seed, (a) the run is
//! deterministic — the same seed yields the same outcome — and (b) any run
//! that completes returns exactly the fault-free result. Together these are
//! the executor's fault-tolerance contract: faults may slow a query down or
//! kill it with a typed error, but they may never silently change its
//! answer.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use xprs_disk::{FaultDomain, FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Datum, Schema, Tuple};
use xprs_testkit::oracle;

const N_DISKS: u32 = 4;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

fn catalog() -> &'static Arc<Catalog> {
    static CAT: OnceLock<Arc<Catalog>> = OnceLock::new();
    CAT.get_or_init(|| {
        let mut cat = Catalog::new(StripedLayout::new(N_DISKS));
        let mut seed = 0xFA57_u64;
        for (name, n, key_mod, blen) in [("fat", 400u64, 100u64, 800usize), ("thin", 3000, 150, 16)]
        {
            cat.create(name, Schema::paper_rel());
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    let a = (lcg(&mut seed) % key_mod) as i32;
                    Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
                })
                .collect();
            cat.load(name, rows);
            cat.build_index(name, false);
        }
        Arc::new(cat)
    })
}

fn join_run(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::join().rel("fat", 1.0).rel("thin", 1.0).on(0, 1).build();
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    QueryRun {
        optimized,
        bindings: vec![
            RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) },
            RelBinding { name: "thin".into(), pred: (i32::MIN, i32::MAX) },
        ],
    }
}

/// Run the join under `plan`; `Ok` carries the result rows, `Err` the
/// error's display form (the comparable part of a failure outcome).
fn run_under(plan: Option<Arc<FaultPlan>>) -> Result<Vec<(i32, Tuple)>, String> {
    let cat = catalog();
    let mut cfg = ExecConfig::unthrottled();
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    let exec = Executor::new(cfg, cat.clone());
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
    match exec.run(&[join_run(cat)], &mut policy) {
        Ok(report) => Ok(report.results[0].rows.rows.clone()),
        Err(e) => Err(e.to_string()),
    }
}

/// The fault-free run's rows, held to the single-threaded oracle's.
fn baseline() -> &'static Vec<(i32, Tuple)> {
    static BASE: OnceLock<Vec<(i32, Tuple)>> = OnceLock::new();
    BASE.get_or_init(|| {
        let rows = run_under(None).expect("fault-free run must complete");
        let run = join_run(catalog());
        let want = oracle::eval(catalog(), &run.optimized.plan, &run.bindings);
        assert!(!want.is_empty(), "vacuous join");
        oracle::assert_matches("fault-free run", &rows, &want);
        rows
    })
}

fn domain() -> FaultDomain {
    let cat = catalog();
    FaultDomain {
        rels: ["fat", "thin"]
            .iter()
            .map(|n| {
                let h = &cat.get(n).unwrap().heap;
                (h.rel(), h.n_blocks())
            })
            .collect(),
        n_disks: N_DISKS as usize,
        n_fragments: 3,
        max_slots: 8,
    }
}

proptest! {
    // Each case is two full executor runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Determinism: the same seed produces the same fault schedule and
    /// the same outcome — identical rows on success, identical typed error
    /// on failure. (b) Equivalence: whenever a faulted run completes, its
    /// rows are exactly the fault-free baseline's.
    #[test]
    fn seeded_fault_schedules_are_deterministic_and_answer_preserving(seed in 0u64..1_000_000) {
        let dom = domain();
        let first = run_under(Some(Arc::new(FaultPlan::seeded(seed, &dom))));
        let second = run_under(Some(Arc::new(FaultPlan::seeded(seed, &dom))));
        prop_assert_eq!(&first, &second, "same seed must yield the same outcome");
        if let Ok(rows) = &first {
            prop_assert_eq!(rows, baseline(), "a completing run must return the clean answer");
        }
    }
}

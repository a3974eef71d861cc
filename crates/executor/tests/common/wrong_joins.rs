//! Test-only workload for the declared-vs-predicted A/B: four concurrent
//! hash joins whose declared fragment profiles are seeded wrong by 2–8×.
//!
//! Time and rate are skewed in opposite directions (IO-bound work declared
//! CPU-bound and vice versa); footprints are over-declared on the first
//! three queries, which stalls declared-mode admission, and under-declared
//! on the last, which plants footprint overruns a predictor must learn
//! away. Each build is ~16 heap pages, a quarter of the [`POOL_PAGES`]
//! pool, so four right-sized builds admit together.
//!
//! Included per test binary via `#[path = "common/wrong_joins.rs"] mod wrong_joins;`.

use std::sync::{Arc, Mutex};

use xprs_disk::StripedLayout;
use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::predict::Predictor;
use xprs_scheduler::trace::{RingSink, TraceRecord};
use xprs_scheduler::MachineConfig;
use xprs_storage::{Catalog, Schema, Tuple};

/// Pool frames both modes run with.
const POOL_PAGES: usize = 64;
/// Concurrent join queries per repetition.
const N_QUERIES: usize = 4;
/// Wall-clock speedup: the predictor trains only on scaled runs.
const SPEEDUP: f64 = 20.0;
/// Rows per build relation: ~10 tuples a page, ~16 heap pages.
const BUILD_ROWS: u64 = 160;
/// Rows per probe relation.
const PROBE_ROWS: u64 = 320;

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// [`N_QUERIES`] indexed `build_i` / `probe_i` pairs of IO-heavy rows.
pub fn catalog(seed: u64) -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut s = seed;
    for qi in 0..N_QUERIES {
        for (prefix, n) in [("build", BUILD_ROWS), ("probe", PROBE_ROWS)] {
            let name = format!("{prefix}_{qi}");
            cat.create(&name, Schema::paper_rel());
            let rows: Vec<Tuple> =
                (0..n).map(|_| Tuple::paper((lcg(&mut s) % 50) as i32, 800)).collect();
            cat.load(&name, rows);
            cat.build_index(&name, false);
        }
    }
    Arc::new(cat)
}

/// `build_i ⋈ probe_i` for every pair, each fragment's declared profile
/// multiplied or divided by a per-fragment factor in 2..=8.
pub fn wrong_runs(cat: &Arc<Catalog>, seed: u64) -> Vec<QueryRun> {
    let optimizer = TwoPhaseOptimizer::paper_default();
    let mut s = seed ^ 0x5EED;
    (0..N_QUERIES)
        .map(|qi| {
            let (build, probe) = (format!("build_{qi}"), format!("probe_{qi}"));
            let q = Query::join().rel(&build, 1.0).rel(&probe, 1.0).on(0, 1).build();
            let mut optimized =
                optimizer.optimize_catalog(cat, &q, Costing::SeqCost).expect("plan");
            for f in &mut optimized.fragments.fragments {
                let factor = 2.0 + (lcg(&mut s) % 7) as f64;
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
                        p.memory /= factor;
                    } else {
                        p.memory *= factor;
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

/// One repetition under INTER-WITH-ADJ at 20×: declared profiles when
/// `predictor` is `None`, else the shared model (warmed by every call that
/// passes it). Returns the report and the run's decision trace.
pub fn run(
    cat: &Arc<Catalog>,
    runs: &[QueryRun],
    predictor: Option<&Arc<Predictor>>,
) -> (ExecReport, Vec<TraceRecord>) {
    let mut cfg = ExecConfig::scaled(SPEEDUP);
    cfg.bufpool_pages = POOL_PAGES;
    if let Some(p) = predictor {
        cfg = cfg.with_predictor(p.clone());
    }
    let ring = Arc::new(Mutex::new(RingSink::unbounded()));
    let mut policy =
        AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
    let report = Executor::new(cfg, cat.clone())
        .with_trace(ring.clone())
        .run(runs, &mut policy)
        .expect("wrong-declaration run");
    let records = ring.lock().expect("trace sink").records();
    (report, records)
}

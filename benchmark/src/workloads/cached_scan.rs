//! `cached_scan`: back-to-back parallel selections over one pool-resident
//! relation at `scale = 0`. Real CPU only.

use std::sync::atomic::Ordering;

use super::{stage, Pass, Rng, SetupTimes, Stopwatch, Workload, CACHED_WORKERS, FLIP_ORACLE};
use crate::stats;
use crate::sut::{plan_selection, CatalogBuilder, Db, Planned, Policy, Session, Speed};
use crate::trace::{Open, Tracer};

/// Minimum-size (`r_min`) tuples: ≈583 a page, ≈1 700 pages.
pub const TUPLES: u64 = 1_000_000;
const KEY_DOMAIN: u64 = 1000;
/// Keeps `a ∈ [0, 49]`: ≈5 % of the relation.
pub const PRED: (i32, i32) = (0, 49);
/// Queries per trial: one `run` call, so per-query master turnaround is in.
pub const QUERIES_PER_TRIAL: usize = 60;
pub const REL: &str = "scan_src";
/// Latency limit of one query, for `within_limit_share`.
const LIMIT_MS: f64 = 30.0;

pub struct CachedScan {
    pub db: Db,
    query: Planned,
    /// Rows the selection must return, from direct heap iteration.
    expected_rows: u64,
    pub pages: u64,
}

impl CachedScan {
    /// A session whose pool holds the relation twice over.
    pub fn session(&self, obs: bool) -> Session {
        Session::open(&self.db, Speed::Unthrottled, 2 * self.pages as usize, obs)
    }

    /// Timed trials of `per_trial` queries at `workers` workers, for about
    /// `seconds` and at least two trials. Each query is its own `run` call —
    /// one client in a closed loop — so its latency is the call's and the
    /// master's per-query turnaround is inside it.
    pub fn measure_with(
        &self,
        seconds: f64,
        obs: bool,
        workers: u32,
        per_trial: usize,
        tr: &Tracer,
    ) -> Pass {
        let session = self.session(obs);
        let query = std::slice::from_ref(&self.query);
        // Warm the pool and spawn the threads outside the timed part.
        for _ in 0..2 {
            let _ = session.run(query, Policy::Fixed(workers), false);
        }

        let mut pass = Pass::default();
        let mut cpu_ns_per_tuple = Vec::new();
        let mut last = None;
        let whole = Stopwatch::start();
        let mut trial = 0u64;
        while whole.wall_s() < seconds || trial < 2 {
            let span = tr.span("trial", None, Some(trial));
            let sw = Stopwatch::start();
            let mut done = 0u64;
            for q in 0..per_trial as u64 {
                let id = trial * per_trial as u64 + q;
                let out = {
                    let _s = tr.span("executor.run", Some(&span), Some(id));
                    session.run(query, Policy::Fixed(workers), false)
                };
                pass.attempted += 1;
                match out {
                    Ok(o) if o.rows[0] == self.expected_rows => {
                        pass.completed(o.wall * 1e3, LIMIT_MS);
                        done += 1;
                        last = Some(o);
                    }
                    Ok(o) => pass.fail(
                        1,
                        format!(
                            "query {id}: {} rows, oracle says {}",
                            o.rows[0], self.expected_rows
                        ),
                    ),
                    Err(e) => pass.fail(1, format!("query {id}: {e}")),
                }
            }
            let (wall, cpu) = sw.stop();
            drop(span);
            trial += 1;
            pass.ops += done;
            pass.cpu_s += cpu;
            pass.trial_ops_per_s.push(done as f64 / wall);
            cpu_ns_per_tuple.push(cpu * 1e9 / (done.max(1) * TUPLES) as f64);
        }
        pass.wall_s = whole.wall_s();
        pass.named = vec![
            (
                "scan.throughput_mtuples_s",
                pass.throughput_ops_s() * TUPLES as f64 / 1e6,
            ),
            ("scan.cpu_ns_per_tuple", stats::median(&cpu_ns_per_tuple)),
            (
                "scan.latency_p95_ms",
                stats::percentile(&pass.latencies_ms, 95.0),
            ),
            (
                "shardpool.hit_rate",
                last.as_ref().map_or(0.0, |o| o.pool_hit_rate),
            ),
            (
                "pool.jobs",
                last.as_ref().map_or(0.0, |o| o.pool_jobs as f64),
            ),
            ("pool.threads_spawned", session.threads_spawned() as f64),
        ];
        session.close();
        pass
    }
}

impl Workload for CachedScan {
    const NAME: &'static str = "cached_scan";

    fn setup(seed: u64, tr: &Tracer, parent: &Open<'_>) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let rows: Vec<(i32, usize)> = stage(tr, parent, "generate", &mut t.generate_s, || {
            let mut rng = Rng::new(seed);
            (0..TUPLES)
                .map(|_| (rng.below(KEY_DOMAIN) as i32, 0))
                .collect()
        });
        let mut b = CatalogBuilder::new();
        stage(tr, parent, "load", &mut t.load_s, || {
            b.load(REL, rows.into_iter())
        });
        stage(tr, parent, "index", &mut t.index_s, || b.index(REL));
        let db = b.finish();
        let query = stage(tr, parent, "plan", &mut t.plan_s, || {
            plan_selection(&db, REL, PRED)
        });
        let expected_rows = stage(tr, parent, "oracle", &mut t.plan_s, || {
            let inside = db.scan_count(REL, PRED.0, PRED.1);
            if FLIP_ORACLE.load(Ordering::Relaxed) {
                db.n_tuples(REL) - inside
            } else {
                inside
            }
        });
        let pages = db.n_pages(REL);
        (
            CachedScan {
                db,
                query,
                expected_rows,
                pages,
            },
            t,
        )
    }

    fn measure(&self, seconds: f64, obs: bool, tr: &Tracer) -> Pass {
        self.measure_with(seconds, obs, CACHED_WORKERS, QUERIES_PER_TRIAL, tr)
    }
}

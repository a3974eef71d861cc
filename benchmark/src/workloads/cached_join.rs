//! `cached_join`: back-to-back hash joins with the large relation pinned as
//! the build side, pool-resident, `scale = 0`. Sorted runs, k-way merge and
//! CSR build do most of the work; the scan is minor.

use std::collections::HashMap;

use super::{stage, Pass, Rng, SetupTimes, Stopwatch, Workload, CACHED_WORKERS};
use crate::stats;
use crate::sut::{
    plan_hash_join_pinned, row_hash, CatalogBuilder, Db, Planned, Policy, Session, Speed,
};
use crate::trace::{Open, Tracer};

pub const BUILD_TUPLES: u64 = 200_000;
pub const PROBE_TUPLES: u64 = 8_000;
/// Keys uniform in `0..KEY_DOMAIN`: ≈32 k output rows, well above the
/// executor's parallel-merge threshold.
pub const KEY_DOMAIN: u64 = 50_000;
/// Latency limit of one query, for `within_limit_share`.
const LIMIT_MS: f64 = 100.0;
/// Wall seconds one trial aims for.
const TRIAL_SECONDS: f64 = 1.2;

pub struct CachedJoin {
    db: Db,
    query: Planned,
    expected_rows: u64,
    expected_digest: u64,
    pages: u64,
}

/// The oracle: a single-threaded hash join over the raw rows, sharing no
/// code with the executor. Returns `(rows, order-insensitive digest)`.
fn oracle_join(build: &[(i32, usize)], probe: &[(i32, usize)]) -> (u64, u64) {
    let mut by_key: HashMap<i32, Vec<usize>> = HashMap::new();
    for &(k, blen) in build {
        by_key.entry(k).or_default().push(blen);
    }
    let (mut rows, mut digest) = (0u64, 0u64);
    for &(k, plen) in probe {
        for &blen in by_key.get(&k).map_or(&[][..], Vec::as_slice) {
            rows += 1;
            digest = digest.wrapping_add(row_hash(k, [(k, plen), (k, blen)].into_iter()));
        }
    }
    (rows, digest)
}

impl Workload for CachedJoin {
    const NAME: &'static str = "cached_join";

    fn setup(seed: u64, tr: &Tracer, parent: &Open<'_>) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let (build, probe) = stage(tr, parent, "generate", &mut t.generate_s, || {
            let mut rng = Rng::new(seed ^ 0x10_1A);
            let mut gen = |n: u64| -> Vec<(i32, usize)> {
                (0..n).map(|_| (rng.below(KEY_DOMAIN) as i32, 0)).collect()
            };
            (gen(BUILD_TUPLES), gen(PROBE_TUPLES))
        });
        let (expected_rows, expected_digest) = stage(tr, parent, "oracle", &mut t.plan_s, || {
            oracle_join(&build, &probe)
        });
        let mut b = CatalogBuilder::new();
        stage(tr, parent, "load", &mut t.load_s, || {
            b.load("big", build.into_iter());
            b.load("small", probe.into_iter());
        });
        let db = b.finish();
        let query = stage(tr, parent, "plan", &mut t.plan_s, || {
            plan_hash_join_pinned(&db, "big", "small")
        });
        let pages = db.n_pages("big") + db.n_pages("small");
        (
            CachedJoin {
                db,
                query,
                expected_rows,
                expected_digest,
                pages,
            },
            t,
        )
    }

    fn measure(&self, seconds: f64, obs: bool, tr: &Tracer) -> Pass {
        let session = Session::open(&self.db, Speed::Unthrottled, 2 * self.pages as usize, obs);
        let query = std::slice::from_ref(&self.query);
        // Warm the pool, spawn the threads, and size a trial from what one
        // query takes here.
        let one = Stopwatch::start();
        for _ in 0..2 {
            let _ = session.run(query, Policy::Fixed(CACHED_WORKERS), false);
        }
        let per_query = one.wall_s() / 2.0;
        let n = ((TRIAL_SECONDS / per_query.max(1e-3)).round() as u64).clamp(2, 64);
        let tuples_per_query = BUILD_TUPLES + PROBE_TUPLES;

        let mut pass = Pass::default();
        let mut cpu_ns_per_tuple = Vec::new();
        let whole = Stopwatch::start();
        let mut trial = 0u64;
        while whole.wall_s() < seconds || trial < 2 {
            let span = tr.span("trial", None, Some(trial));
            let (mut wall, mut cpu, mut done) = (0.0, 0.0, 0u64);
            for q in 0..n {
                let id = trial * n + q;
                // One query per `run` call: a closed loop of one client. The
                // answer check (digest over ~32 k rows) is outside the timing.
                let out = {
                    let _s = tr.span("executor.run", Some(&span), Some(id));
                    session.run(query, Policy::Fixed(CACHED_WORKERS), true)
                };
                pass.attempted += 1;
                match out {
                    Ok(o)
                        if o.rows[0] == self.expected_rows
                            && o.digests[0] == self.expected_digest =>
                    {
                        pass.completed(o.wall * 1e3, LIMIT_MS);
                        wall += o.wall;
                        cpu += o.cpu_s;
                        done += 1;
                    }
                    Ok(o) => pass.fail(
                        1,
                        format!(
                            "query {id}: {} rows digest {:x}, oracle says {} rows digest {:x}",
                            o.rows[0], o.digests[0], self.expected_rows, self.expected_digest
                        ),
                    ),
                    Err(e) => pass.fail(1, format!("query {id}: {e}")),
                }
            }
            drop(span);
            trial += 1;
            pass.ops += done;
            pass.cpu_s += cpu;
            pass.trial_ops_per_s.push(done as f64 / wall.max(1e-9));
            cpu_ns_per_tuple.push(cpu * 1e9 / (done.max(1) * tuples_per_query) as f64);
        }
        pass.wall_s = whole.wall_s();
        session.close();
        pass.named = vec![
            (
                "join.throughput_mtuples_s",
                pass.throughput_ops_s() * tuples_per_query as f64 / 1e6,
            ),
            ("join.cpu_ns_per_tuple", stats::median(&cpu_ns_per_tuple)),
            (
                "join.latency_p95_ms",
                stats::percentile(&pass.latencies_ms, 95.0),
            ),
        ];
        pass
    }
}

//! Emit `BENCH_join.json`: join-materialization throughput of the data
//! path (worker-sorted runs → pool-parallel k-way merge → CSR index).
//!
//! The workload is a stream of back-to-back `big ⋈ small` hash joins with
//! the build side pinned to the large relation, so the span under test is
//! dominated by fragment materialization — worker output, the sort/merge,
//! and key-index construction. For each worker count in {1, 2, 4, 8} the
//! stream runs several times and the median join wall time and
//! materialized-tuples/second are recorded.
//!
//! A second, **disk-resident** section joins a larger-than-memory build
//! side (spilling the pool several times over, scaled-time machine) against
//! a small probe relation, sweeping the worker count under morsel stealing
//! — the regime where the build scan's disk waits, not materialization
//! contention, bound the join.
//!
//! A third, **skew** section sweeps a Zipf(θ) key-domain merge join at
//! θ ∈ {0, 0.5, 1.0} on the disk-resident 8-worker configuration. At θ = 1
//! one key dominates the join output; the section records throughput plus
//! the heavy-hitter counters (keys detected, per-way row balance) so the
//! CI gate can check both graceful degradation (θ = 1 throughput within
//! 2× of θ = 0) and that the fan-out machinery actually engaged.
//!
//! Usage: `bench_join [output.json]` (default `BENCH_join.json`).

use xprs_bench::{exec_disk, exec_join, exec_skew, host_header_json};
use xprs_executor::ExecConfig;

const BUILD_TUPLES: u64 = 200_000;
const PROBE_TUPLES: u64 = 8_000;
const KEY_MOD: u64 = 1_000_000;
const QUERIES: usize = 8;
const TRIALS: usize = 5;
const WORKERS: [u32; 4] = [1, 2, 4, 8];
const DR_TRIALS: usize = 3;
const DR_SEED: u64 = 0x10D1;
const SKEW_THETAS: [f64; 3] = [0.0, 0.5, 1.0];
const SKEW_TRIALS: usize = 3;
const SKEW_WORKERS: u32 = 8;

struct Row {
    workers: u32,
    wall: f64,
    join_wall: f64,
    tuples_per_sec: f64,
    pool_threads: u64,
    pool_jobs: u64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_join.json".to_string());
    let cat = exec_join::catalog(BUILD_TUPLES, PROBE_TUPLES, KEY_MOD);

    let mut rows: Vec<Row> = Vec::new();
    for &w in &WORKERS {
        let mut walls = Vec::with_capacity(TRIALS);
        let mut join_walls = Vec::with_capacity(TRIALS);
        let mut last = None;
        exec_join::run(&cat, w, QUERIES); // warmup (page cache, allocator)
        for _ in 0..TRIALS {
            let r = exec_join::run(&cat, w, QUERIES);
            assert!(r.emitted > 0, "vacuous join");
            walls.push(r.wall);
            join_walls.push(r.join_wall);
            last = Some(r);
        }
        let last = last.unwrap();
        let wall = median(&mut walls);
        // Throughput is materialized tuples (build side + joined output)
        // over the *join phase* wall (first fragment start to last
        // fragment finish); per-process setup is excluded.
        let join_wall = median(&mut join_walls);
        rows.push(Row {
            workers: w,
            wall,
            join_wall,
            tuples_per_sec: last.materialized as f64 / join_wall,
            pool_threads: last.pool_threads,
            pool_jobs: last.pool_jobs,
        });
        eprintln!(
            "w={} join={:.4}s total={:.4}s  {:>12.0} tuples/s  emitted={}  threads={} jobs={}",
            w,
            join_wall,
            wall,
            last.materialized as f64 / join_wall,
            last.emitted,
            last.pool_threads,
            last.pool_jobs
        );
    }

    // ---- Disk-resident join: the build scan cannot be cached, the hash
    // table it builds is held in memory ----
    let (dr_cat, dr_wl) = exec_disk::catalog(DR_SEED);
    let mut dr_rows = Vec::new();
    for &w in &WORKERS {
        let mut join_walls = Vec::with_capacity(DR_TRIALS);
        let mut last = None;
        for _ in 0..DR_TRIALS {
            let r = exec_disk::join_run(&dr_cat, &dr_wl, w);
            assert!(r.emitted > 0, "vacuous disk-resident join");
            join_walls.push(r.join_wall);
            last = Some(r);
        }
        let last = last.unwrap();
        let join_wall = median(&mut join_walls);
        let tput = last.materialized as f64 / join_wall;
        eprintln!(
            "disk_resident join w={w} join={join_wall:.3}s  {tput:>10.1} tuples/s  \
             hit_rate={:.3}  steals={}",
            last.hit_rate, last.steals
        );
        dr_rows.push((w, join_wall, tput, last));
    }
    let dr_speedup = dr_rows.iter().find(|r| r.0 == 8).unwrap().2
        / dr_rows.iter().find(|r| r.0 == 1).unwrap().2;
    eprintln!("disk-resident join speedup (8w / 1w, stealing): {dr_speedup:.2}x");

    // ---- Skewed key-domain merge join: Zipf θ sweep at 8 workers ----
    let mut skew_rows = Vec::new();
    for theta in SKEW_THETAS {
        let (sk_cat, sk_wl) = exec_skew::catalog(theta);
        let mut join_walls = Vec::with_capacity(SKEW_TRIALS);
        let mut last = None;
        for _ in 0..SKEW_TRIALS {
            let r = exec_skew::run(&sk_cat, &sk_wl, SKEW_WORKERS);
            assert!(r.emitted > 0, "vacuous skewed join");
            join_walls.push(r.join_wall);
            last = Some(r);
        }
        let last = last.unwrap();
        let join_wall = median(&mut join_walls);
        let tput = last.emitted as f64 / join_wall;
        eprintln!(
            "skew theta={theta:.1} w={SKEW_WORKERS} join={join_wall:.3}s  {tput:>10.1} rows/s  \
             emitted={}  hot_keys={}  way_max={}  way_mean={}",
            last.emitted, last.hot_keys, last.way_rows_max, last.way_rows_mean
        );
        skew_rows.push((theta, join_wall, tput, last));
    }
    let skew_tput = |theta: f64| {
        skew_rows.iter().find(|r| (r.0 - theta).abs() < 1e-9).unwrap().2
    };
    let skew_ratio = skew_tput(1.0) / skew_tput(0.0);
    eprintln!("skew throughput ratio (theta 1.0 / theta 0.0, 8 workers): {skew_ratio:.3}x");

    // Hand-rolled JSON: the workspace builds offline with no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"executor_join\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str(&format!("  \"build_tuples\": {BUILD_TUPLES},\n"));
    json.push_str(&format!("  \"probe_tuples\": {PROBE_TUPLES},\n"));
    json.push_str(&format!("  \"key_mod\": {KEY_MOD},\n"));
    json.push_str(&format!("  \"queries_per_run\": {QUERIES},\n"));
    json.push_str(&format!("  \"trials_per_config\": {TRIALS},\n"));
    json.push_str("  \"wall_stat\": \"median\",\n");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"join_wall_seconds\": {:.6}, \
             \"total_wall_seconds\": {:.6}, \"materialized_tuples_per_sec\": {:.1}, \
             \"pool_threads\": {}, \"pool_jobs\": {}}}{}\n",
            r.workers,
            r.join_wall,
            r.wall,
            r.tuples_per_sec,
            r.pool_threads,
            r.pool_jobs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"disk_resident\": {\n");
    json.push_str(&format!("    \"bufpool_pages\": {},\n", exec_disk::BUFPOOL_PAGES));
    json.push_str(&format!("    \"join_pool_pages\": {},\n", dr_rows[0].3.pool_pages));
    json.push_str(&format!("    \"spill_factor\": {},\n", exec_disk::SPILL_FACTOR));
    json.push_str(&format!("    \"trials_per_config\": {DR_TRIALS},\n"));
    json.push_str("    \"configs\": [\n");
    for (i, (w, join_wall, tput, r)) in dr_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"mode\": \"stealing\", \"workers\": {}, \"join_wall_seconds\": {:.6}, \
             \"materialized_tuples_per_sec\": {:.1}, \"bufpool_hit_rate\": {:.4}, \
             \"steals\": {}, \"pool_threads\": {}}}{}\n",
            w,
            join_wall,
            tput,
            r.hit_rate,
            r.steals,
            r.pool_threads,
            if i + 1 == dr_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!("    \"speedup_8w_over_1w\": {dr_speedup:.3}\n"));
    json.push_str("  },\n");
    json.push_str("  \"skew\": {\n");
    json.push_str(&format!("    \"bufpool_pages\": {},\n", exec_skew::BUFPOOL_PAGES));
    json.push_str(&format!("    \"spill_factor\": {},\n", exec_skew::SPILL_FACTOR));
    json.push_str(&format!("    \"merge_ways\": {},\n", exec_skew::MERGE_WAYS));
    json.push_str(&format!("    \"workers\": {SKEW_WORKERS},\n"));
    json.push_str(&format!("    \"trials_per_config\": {SKEW_TRIALS},\n"));
    json.push_str("    \"configs\": [\n");
    for (i, (theta, join_wall, tput, r)) in skew_rows.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"theta\": {theta:.1}, \"join_wall_seconds\": {join_wall:.6}, \
             \"emitted_rows\": {}, \"rows_per_sec\": {tput:.1}, \"hot_keys\": {}, \
             \"way_rows_max\": {}, \"way_rows_mean\": {}, \"bufpool_hit_rate\": {:.4}, \
             \"pinned_at_exit\": {}, \"granted_pages\": {}, \"released_pages\": {}}}{}\n",
            r.emitted,
            r.hot_keys,
            r.way_rows_max,
            r.way_rows_mean,
            r.hit_rate,
            r.pinned_at_exit,
            r.granted_pages,
            r.released_pages,
            if i + 1 == skew_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!("    \"tput_ratio_theta1_vs_theta0\": {skew_ratio:.3}\n"));
    json.push_str("  }\n");
    json.push_str("}\n");

    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}

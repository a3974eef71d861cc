//! Emit and gate `BENCH_join.json`: joins on workloads the buffer pool
//! cannot absorb. (The cached 1/2/4/8-worker materialization sweep is
//! `benchmark/`'s `cached_join`: `join.throughput_mtuples_s`.)
//!
//! The **disk-resident** section joins a larger-than-memory build side
//! (spilling the pool several times over, scaled-time machine) against
//! a small probe relation, sweeping the worker count under morsel stealing
//! — the regime where the build scan's disk waits, not materialization
//! contention, bound the join. Its gate: 8 workers beat 1.
//!
//! The **skew** section sweeps a Zipf(θ) key-domain merge join at
//! θ ∈ {0, 0.5, 1.0} on the disk-resident 8-worker configuration. At θ = 1
//! one key dominates the join output; the section records throughput plus
//! the heavy-hitter counters (keys detected, per-way row balance) so its
//! gates can check both graceful degradation (θ = 1 throughput within
//! 2× of θ = 0) and that the fan-out machinery actually engaged.
//!
//! Usage: `bench_join [output.json]` (default `BENCH_join.json`).
//! Exit status 1 if a gate fails, 2 if the output cannot be written.

use std::process::ExitCode;

use xprs_bench::{exec_disk, exec_skew, finish, host_header_json, median, Gates};
use xprs_executor::ExecConfig;

const WORKERS: [u32; 4] = [1, 2, 4, 8];
const DR_TRIALS: usize = 3;
const DR_SEED: u64 = 0x10D1;
const SKEW_THETAS: [f64; 3] = [0.0, 0.5, 1.0];
const SKEW_TRIALS: usize = 3;
const SKEW_WORKERS: u32 = 8;
// The skew sweep needs 8 workers and a real merge fan-out, or the
// heavy-hitter machinery has nothing to spread the hot key over.
const _: () = assert!(SKEW_WORKERS == 8 && exec_skew::MERGE_WAYS >= 2);

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_join.json".to_string());
    let mut gates = Gates::default();

    // ---- Disk-resident join: the build scan cannot be cached, the hash
    // table it builds is held in memory ----
    let (dr_cat, dr_wl) = exec_disk::catalog(DR_SEED);
    let mut dr_rows = Vec::new();
    for &w in &WORKERS {
        let mut join_walls = Vec::with_capacity(DR_TRIALS);
        let mut last = None;
        for _ in 0..DR_TRIALS {
            let r = exec_disk::join_run(&dr_cat, &dr_wl, w);
            gates.check(r.emitted > 0, format_args!("vacuous disk-resident join at {w} workers"));
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
    gates.check(
        dr_speedup > 1.0,
        format_args!("disk-resident join scaling regression: 8w/1w {dr_speedup:.3} <= 1.0"),
    );

    // ---- Skewed key-domain merge join: Zipf θ sweep at 8 workers ----
    let mut skew_rows = Vec::new();
    for theta in SKEW_THETAS {
        let (sk_cat, sk_wl) = exec_skew::catalog(theta);
        let mut join_walls = Vec::with_capacity(SKEW_TRIALS);
        let mut last = None;
        for _ in 0..SKEW_TRIALS {
            let r = exec_skew::run(&sk_cat, &sk_wl, SKEW_WORKERS);
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
        gates.check(
            last.emitted > 0 && tput > 0.0,
            format_args!("vacuous skew config at theta={theta}: {} rows", last.emitted),
        );
        gates.ledgers_closed(
            format_args!("theta={theta}"),
            last.granted_pages,
            last.released_pages,
            last.pinned_at_exit,
        );
        skew_rows.push((theta, join_wall, tput, last));
    }
    let skew_row = |theta: f64| skew_rows.iter().find(|r| (r.0 - theta).abs() < 1e-9).unwrap();
    let skew_ratio = skew_row(1.0).2 / skew_row(0.0).2;
    eprintln!("skew throughput ratio (theta 1.0 / theta 0.0, 8 workers): {skew_ratio:.3}x");
    // The Zipf sweep must degrade gracefully AND the heavy-hitter machinery
    // must provably engage at theta=1 — hot-key counters non-zero, ways
    // actually carved — so the gate cannot pass vacuously on a config
    // where detection never ran.
    let hot = &skew_row(1.0).3;
    gates.check(hot.hot_keys > 0, "theta=1.0 detected no heavy hitter: the fan-out never engaged");
    gates.check(
        hot.way_rows_max > 0 && hot.way_rows_mean > 0,
        "theta=1.0 merge recorded no way sizes: parallel merge never ran",
    );
    gates.check(
        hot.way_rows_max < hot.emitted,
        format_args!(
            "theta=1.0: one way swallowed the whole output: {} of {} rows",
            hot.way_rows_max, hot.emitted
        ),
    );
    gates.check(
        skew_ratio >= 0.5,
        format_args!("skew collapse: theta=1 throughput {skew_ratio:.3} < 0.5x theta=0"),
    );

    // Hand-rolled JSON: the workspace builds offline with no serde.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"executor_join\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str("  \"wall_stat\": \"median\",\n");
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
    finish(&out_path, &json, gates)
}

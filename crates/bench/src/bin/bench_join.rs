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

use xprs_bench::{bench_doc, exec_disk, exec_skew, finish, median, Gates};
use xprs_obs::json::JsonValue;

const WORKERS: [u32; 4] = [1, 2, 4, 8];
const DR_TRIALS: usize = 3;
const DR_SEED: u64 = 0x10D1;
const SKEW_THETAS: [f64; 3] = [0.0, 0.5, 1.0];
const SKEW_TRIALS: usize = 3;
const SKEW_WORKERS: u32 = 8;

fn main() -> ExitCode {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_join.json".to_string());
    let mut gates = Gates::default();

    // ---- Disk-resident join: the build scan cannot be cached, the hash
    // table it builds is held in memory ----
    let (dr_cat, dr_wl) = exec_disk::catalog(DR_SEED);
    let (mut dr_rows, mut dr_configs) = (Vec::new(), Vec::new());
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
        let config = JsonValue::obj()
            .with("mode", "stealing")
            .with("workers", w)
            .with("join_wall_seconds", join_wall)
            .with("materialized_tuples_per_sec", tput)
            .with("bufpool_hit_rate", last.hit_rate)
            .with("steals", last.steals)
            .with("pool_threads", last.pool_threads);
        eprintln!("disk_resident join {config}");
        dr_configs.push(config);
        dr_rows.push((w, tput, last.pool_pages));
    }
    let dr_speedup = dr_rows.iter().find(|r| r.0 == 8).unwrap().1
        / dr_rows.iter().find(|r| r.0 == 1).unwrap().1;
    eprintln!("disk-resident join speedup (8w / 1w, stealing): {dr_speedup:.2}x");
    gates.check(
        dr_speedup > 1.0,
        format_args!("disk-resident join scaling regression: 8w/1w {dr_speedup:.3} <= 1.0"),
    );

    // ---- Skewed key-domain merge join: Zipf θ sweep at 8 workers ----
    let (mut skew_rows, mut skew_configs) = (Vec::new(), Vec::new());
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
        let config = JsonValue::obj()
            .with("theta", theta)
            .with("join_wall_seconds", join_wall)
            .with("emitted_rows", last.emitted)
            .with("rows_per_sec", tput)
            .with("hot_keys", last.hot_keys)
            .with("way_rows_max", last.way_rows_max)
            .with("way_rows_mean", last.way_rows_mean)
            .with("bufpool_hit_rate", last.hit_rate)
            .with("pinned_at_exit", last.pinned_at_exit)
            .with("granted_pages", last.granted_pages)
            .with("released_pages", last.released_pages);
        eprintln!("skew {config}");
        skew_configs.push(config);
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
        skew_rows.push((theta, tput, last));
    }
    let skew_row = |theta: f64| skew_rows.iter().find(|r| (r.0 - theta).abs() < 1e-9).unwrap();
    let skew_ratio = skew_row(1.0).1 / skew_row(0.0).1;
    eprintln!("skew throughput ratio (theta 1.0 / theta 0.0, 8 workers): {skew_ratio:.3}x");
    // The Zipf sweep must degrade gracefully AND the heavy-hitter machinery
    // must provably engage at theta=1 — hot-key counters non-zero, ways
    // actually carved — so the gate cannot pass vacuously on a config
    // where detection never ran.
    let hot = &skew_row(1.0).2;
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

    let disk_resident = JsonValue::obj()
        .with("bufpool_pages", exec_disk::BUFPOOL_PAGES)
        .with("join_pool_pages", dr_rows[0].2)
        .with("spill_factor", exec_disk::SPILL_FACTOR)
        .with("trials_per_config", DR_TRIALS)
        .with("configs", dr_configs)
        .with("speedup_8w_over_1w", dr_speedup);
    let skew = JsonValue::obj()
        .with("bufpool_pages", exec_skew::BUFPOOL_PAGES)
        .with("spill_factor", exec_skew::SPILL_FACTOR)
        .with("merge_ways", hot.merge_ways)
        .with("workers", SKEW_WORKERS)
        .with("trials_per_config", SKEW_TRIALS)
        .with("configs", skew_configs)
        .with("tput_ratio_theta1_vs_theta0", skew_ratio);
    let doc = bench_doc("executor_join")
        .with("wall_stat", "median")
        .with("disk_resident", disk_resident)
        .with("skew", skew);
    finish(&out_path, &doc, gates)
}

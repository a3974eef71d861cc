//! Emit `BENCH_executor.json`: scan throughput of the executor data path.
//!
//! The workload is a stream of back-to-back parallel selections over one
//! relation — the paper's mixed-query regime, where the executor starts and
//! finishes fragments continuously. For each worker count in {1, 2, 4, 8}
//! the stream runs several times and the median scan wall time,
//! tuples/second, buffer-pool hit rate, and thread counters are recorded.
//!
//! A second, **disk-resident** section runs the larger-than-memory workload
//! (relations [`xprs_bench::exec_disk::SPILL_FACTOR`]× the pool, skewed
//! block costs, scaled-time machine): two co-run scans per config, the
//! worker count as the independent variable. Its
//! headline gate is the paper's central claim — 8-worker throughput must
//! strictly exceed 1-worker throughput — with the §2.3 utilization audit
//! confirming the disk band is saturated rather than under-staffed.
//!
//! A third, **memory-admission** section runs concurrent hash joins whose
//! aggregate build demand is 4× the buffer pool under memory grants
//! (admission queue + spill) against an uncontended big-pool reference. Its
//! gates: the result digests match (admission never changes an answer), the
//! grant ledger balances, no page stays pinned, and the builds actually
//! queued and spilled.
//!
//! A fourth, **predictive** section is the declared-vs-predicted A/B:
//! identical concurrent joins whose declared profiles are seeded wrong by
//! 2–8×, run cold (trusting declarations) and with a shared online
//! predictor warmed across repetitions. Its gates: the warm predicted mode
//! beats declared mode on wall time, footprint overruns decrease as the
//! model warms, the grant ledger balances with zero pins, and the two
//! modes' final-rep schedules provably differ.
//!
//! Usage: `bench_executor [output.json]` (default `BENCH_executor.json`).

use std::sync::Arc;

use xprs_bench::{exec_disk, exec_memory, exec_predict, exec_scan, host_header_json};
use xprs_executor::ExecConfig;
use xprs_scheduler::predict::Predictor;

const RELATION_TUPLES: u64 = 8_192;
const QUERIES: usize = 48;
const TRIALS: usize = 9;
const WORKERS: [u32; 4] = [1, 2, 4, 8];
const DR_TRIALS: usize = 3;
const DR_SEED: u64 = 0xD15C;
const MEM_TRIALS: usize = 3;
const MEM_SEED: u64 = 0x4EA7;
const MEM_WORKERS: u32 = 4;
const PRED_SEED: u64 = 0x9D1C;
/// Repetitions per mode; the first [`PRED_WARMUP`] predicted reps run on
/// the cold model and are excluded from the headline wall comparison.
const PRED_REPS: usize = 6;
const PRED_WARMUP: usize = 2;

struct Row {
    workers: u32,
    wall: f64,
    scan_wall: f64,
    tuples_per_sec: f64,
    hit_rate: f64,
    pool_threads: u64,
    pool_jobs: u64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_executor.json".to_string());
    let cat = exec_scan::catalog(RELATION_TUPLES);
    let examined = RELATION_TUPLES * QUERIES as u64;

    let mut rows: Vec<Row> = Vec::new();
    for &w in &WORKERS {
        let mut walls = Vec::with_capacity(TRIALS);
        let mut scan_walls = Vec::with_capacity(TRIALS);
        let mut last = None;
        exec_scan::run(&cat, w, QUERIES); // warmup (page cache, allocator)
        for _ in 0..TRIALS {
            let r = exec_scan::run(&cat, w, QUERIES);
            assert_eq!(r.tuples, examined, "scan dropped tuples");
            assert!(r.emitted > 0, "vacuous selection");
            walls.push(r.wall);
            scan_walls.push(r.scan_wall);
            last = Some(r);
        }
        let last = last.unwrap();
        let wall = median(&mut walls);
        // Throughput is examined tuples over the *scan phase* wall time
        // (first fragment start to last fragment finish); setup before
        // the first start is excluded, and the full run wall is also
        // reported.
        let scan_wall = median(&mut scan_walls);
        rows.push(Row {
            workers: w,
            wall,
            scan_wall,
            tuples_per_sec: examined as f64 / scan_wall,
            hit_rate: last.hit_rate,
            pool_threads: last.pool_threads,
            pool_jobs: last.pool_jobs,
        });
        eprintln!(
            "w={} scan={:.4}s total={:.4}s  {:>12.0} tuples/s  hit_rate={:.3}  threads={} jobs={}",
            w,
            scan_wall,
            wall,
            examined as f64 / scan_wall,
            last.hit_rate,
            last.pool_threads,
            last.pool_jobs
        );
    }

    // ---- Disk-resident scaling: the workload where 8 must beat 1 ----
    let (dr_cat, dr_wl) = exec_disk::catalog(DR_SEED);
    let mut dr_rows = Vec::new();
    for w in WORKERS {
        let mut scan_walls = Vec::with_capacity(DR_TRIALS);
        let mut last = None;
        for _ in 0..DR_TRIALS {
            let r = exec_disk::scan_run(&dr_cat, &dr_wl, w);
            assert!(r.emitted > 0, "vacuous disk-resident scan");
            scan_walls.push(r.scan_wall);
            last = Some(r);
        }
        let last = last.unwrap();
        let scan_wall = median(&mut scan_walls);
        let pages_per_sec = last.pages as f64 / scan_wall;
        eprintln!(
            "disk_resident w={} scan={:.3}s  {:>8.1} pages/s  hit_rate={:.3}  \
             steals={}  paired_bw={:.1} band=[{:.0},{:.0}] in_band={}",
            w,
            scan_wall,
            pages_per_sec,
            last.hit_rate,
            last.steals,
            last.audit.paired_bw,
            last.audit.band_lo,
            last.audit.band_hi,
            last.audit.paired_in_band,
        );
        dr_rows.push((w, scan_wall, pages_per_sec, last));
    }
    let dr_row = |w: u32| dr_rows.iter().find(|r| r.0 == w).unwrap();
    let dr_speedup = dr_row(8).2 / dr_row(1).2;
    let saturated = dr_row(8).3.audit.paired_in_band;
    // One relation alone under INTER-WITH-ADJ: a lone IO-bound scan must
    // keep the array busy on the backends staffed for its `x = B/C_i`.
    let solo_runs: Vec<_> =
        (0..DR_TRIALS).map(|_| exec_disk::solo_scan_audit(&dr_cat, &dr_wl)).collect();
    let solo_requests = solo_runs[0].solo_io_requests;
    let solo_util =
        median(&mut solo_runs.iter().map(|a| a.solo_io_disk_util).collect::<Vec<_>>());
    eprintln!("disk-resident solo scan: disk_util={solo_util:.2} over {solo_requests} requests");
    eprintln!(
        "disk-resident speedup (8w / 1w, stealing): {dr_speedup:.2}x  saturated_at_8={saturated}"
    );

    // ---- Memory admission: oversized builds must queue, spill, and agree ----
    let (mem_cat, mem_wl) = exec_memory::catalog(MEM_SEED);
    let mut mem_rows: Vec<(&str, f64, exec_memory::MemoryRun)> = Vec::new();
    for (mode, pool_pages) in [
        ("reference", exec_memory::REFERENCE_POOL_PAGES),
        ("grants", exec_memory::BUFPOOL_PAGES),
    ] {
        let mut walls = Vec::with_capacity(MEM_TRIALS);
        let mut last = None;
        for _ in 0..MEM_TRIALS {
            let r = exec_memory::run(&mem_cat, &mem_wl, MEM_WORKERS, pool_pages);
            assert!(r.emitted > 0, "vacuous memory-admission join");
            walls.push(r.wall);
            last = Some(r);
        }
        let last = last.unwrap();
        assert_eq!(last.granted_pages, last.released_pages, "grant ledger out of balance");
        assert_eq!(last.pinned_at_exit, 0, "pages pinned at exit");
        eprintln!(
            "memory {mode:<10} wall={:.4}s emitted={} granted={} waits={} spill_chunks={} spill_rows={}",
            median(&mut walls),
            last.emitted,
            last.granted_pages,
            last.grant_waits,
            last.spill_chunks,
            last.spill_rows,
        );
        mem_rows.push((mode, median(&mut walls), last));
    }
    let (mem_ref, mem_grant) = (&mem_rows[0], &mem_rows[1]);
    let mem_parity = mem_ref.2.rows_digest == mem_grant.2.rows_digest;
    let mem_overhead = mem_grant.1 / mem_ref.1;
    assert!(mem_parity, "admission changed a join answer");
    assert!(mem_grant.2.spill_chunks > 0, "4x-pool builds never spilled");
    eprintln!(
        "memory admission: parity={mem_parity} overhead={mem_overhead:.2}x \
         waits={} spill_rows={}",
        mem_grant.2.grant_waits, mem_grant.2.spill_rows
    );

    // ---- Predictive scheduling: corrected profiles must beat wrong ones ----
    let pred_cat = exec_predict::catalog(PRED_SEED);
    let pred_runs = exec_predict::wrong_runs(&pred_cat, PRED_SEED);
    let mut declared_reps = Vec::with_capacity(PRED_REPS);
    for _ in 0..PRED_REPS {
        let r = exec_predict::run(&pred_cat, &pred_runs, None);
        assert!(r.emitted > 0, "vacuous predictive-A/B join");
        assert_eq!(r.granted_pages, r.released_pages, "declared-mode grant leak");
        assert_eq!(r.pinned_at_exit, 0, "declared-mode pin leak");
        declared_reps.push(r);
    }
    let predictor = Arc::new(Predictor::new(exec_predict::PAGE_BYTES));
    let mut predicted_reps = Vec::with_capacity(PRED_REPS);
    for _ in 0..PRED_REPS {
        let r = exec_predict::run(&pred_cat, &pred_runs, Some(&predictor));
        assert!(r.emitted > 0, "vacuous predictive-A/B join");
        assert_eq!(r.granted_pages, r.released_pages, "predicted-mode grant leak");
        assert_eq!(r.pinned_at_exit, 0, "predicted-mode pin leak");
        predicted_reps.push(r);
    }
    assert_eq!(
        declared_reps[0].emitted, predicted_reps[0].emitted,
        "prediction changed a join answer"
    );
    let mut declared_walls: Vec<f64> = declared_reps.iter().map(|r| r.wall).collect();
    let mut warm_walls: Vec<f64> =
        predicted_reps[PRED_WARMUP..].iter().map(|r| r.wall).collect();
    let declared_wall = median(&mut declared_walls);
    let predicted_wall = median(&mut warm_walls);
    let pred_speedup = declared_wall / predicted_wall;
    let predicted_beats_declared = predicted_wall < declared_wall;
    let overruns_first = predicted_reps[0].footprint_overruns;
    let overruns_last = predicted_reps[PRED_REPS - 1].footprint_overruns;
    let decisions_differ = declared_reps[PRED_REPS - 1].signature
        != predicted_reps[PRED_REPS - 1].signature;
    for (mode, reps) in [("declared", &declared_reps), ("predicted", &predicted_reps)] {
        for (i, r) in reps.iter().enumerate() {
            eprintln!(
                "predictive {mode:<9} rep={i} wall={:.4}s overruns={} waits={} \
                 predictions={}",
                r.wall, r.footprint_overruns, r.grant_waits, r.predictions
            );
        }
    }
    eprintln!(
        "predictive A/B: declared={declared_wall:.4}s predicted={predicted_wall:.4}s \
         speedup={pred_speedup:.2}x decisions_differ={decisions_differ} \
         overruns {overruns_first}->{overruns_last}"
    );

    // Hand-rolled JSON: the workspace builds offline with no serde.
    let dr_json = {
        let mut j = String::new();
        j.push_str("  \"disk_resident\": {\n");
        j.push_str(&format!("    \"bufpool_pages\": {},\n", exec_disk::BUFPOOL_PAGES));
        j.push_str(&format!("    \"spill_factor\": {},\n", exec_disk::SPILL_FACTOR));
        j.push_str(&format!(
            "    \"pages_per_relation\": {},\n",
            dr_wl.relations[0].n_pages()
        ));
        j.push_str(&format!("    \"time_speedup\": {},\n", exec_disk::TIME_SPEEDUP));
        j.push_str(&format!("    \"trials_per_config\": {DR_TRIALS},\n"));
        j.push_str("    \"configs\": [\n");
        for (i, (w, scan_wall, pages_per_sec, r)) in dr_rows.iter().enumerate() {
            j.push_str(&format!(
                "      {{\"mode\": \"stealing\", \"workers\": {}, \"scan_wall_seconds\": {:.6}, \
                 \"pages_per_sec\": {:.2}, \"tuples_per_sec\": {:.1}, \
                 \"bufpool_hit_rate\": {:.4}, \"steals\": {}, \"steal_fails\": {}, \
                 \"pool_threads\": {}, \"paired_bw\": {:.2}, \"band_lo\": {:.2}, \
                 \"band_hi\": {:.2}, \"paired_in_band\": {}, \"paired_disk_util\": {:.4}}}{}\n",
                w,
                scan_wall,
                pages_per_sec,
                r.tuples as f64 / scan_wall,
                r.hit_rate,
                r.steals,
                r.steal_fails,
                r.pool_threads,
                r.audit.paired_bw,
                r.audit.band_lo,
                r.audit.band_hi,
                r.audit.paired_in_band,
                r.audit.paired_disk_util,
                if i + 1 == dr_rows.len() { "" } else { "," }
            ));
        }
        j.push_str("    ],\n");
        j.push_str(&format!("    \"speedup_8w_over_1w\": {dr_speedup:.3},\n"));
        j.push_str(&format!("    \"saturated_at_8_workers\": {saturated},\n"));
        j.push_str(&format!("    \"solo_io_disk_util\": {solo_util:.4},\n"));
        j.push_str(&format!("    \"solo_io_requests\": {solo_requests}\n"));
        j.push_str("  },\n");
        j
    };

    let mem_json = {
        let mut j = String::new();
        j.push_str("  \"memory_admission\": {\n");
        j.push_str(&format!("    \"bufpool_pages\": {},\n", exec_memory::BUFPOOL_PAGES));
        j.push_str(&format!(
            "    \"reference_pool_pages\": {},\n",
            exec_memory::REFERENCE_POOL_PAGES
        ));
        j.push_str(&format!("    \"demand_factor\": {},\n", exec_memory::DEMAND_FACTOR));
        j.push_str(&format!("    \"n_queries\": {},\n", exec_memory::N_QUERIES));
        j.push_str(&format!("    \"total_build_pages\": {},\n", mem_wl.total_build_pages()));
        j.push_str(&format!("    \"workers\": {MEM_WORKERS},\n"));
        j.push_str(&format!("    \"trials_per_config\": {MEM_TRIALS},\n"));
        j.push_str("    \"configs\": [\n");
        for (i, (mode, wall, r)) in mem_rows.iter().enumerate() {
            j.push_str(&format!(
                "      {{\"mode\": \"{}\", \"wall_seconds\": {:.6}, \"emitted\": {}, \
                 \"granted_pages\": {}, \"released_pages\": {}, \"grant_waits\": {}, \
                 \"spill_chunks\": {}, \"spill_rows\": {}, \"pinned_at_exit\": {}, \
                 \"rows_digest\": {}}}{}\n",
                mode,
                wall,
                r.emitted,
                r.granted_pages,
                r.released_pages,
                r.grant_waits,
                r.spill_chunks,
                r.spill_rows,
                r.pinned_at_exit,
                r.rows_digest,
                if i + 1 == mem_rows.len() { "" } else { "," }
            ));
        }
        j.push_str("    ],\n");
        j.push_str(&format!("    \"parity\": {mem_parity},\n"));
        j.push_str(&format!("    \"ledger_balanced\": {},\n", {
            mem_grant.2.granted_pages == mem_grant.2.released_pages
        }));
        j.push_str(&format!("    \"overhead_vs_reference\": {mem_overhead:.3}\n"));
        j.push_str("  },\n");
        j
    };

    let pred_json = {
        let mut j = String::new();
        j.push_str("  \"predictive\": {\n");
        j.push_str(&format!("    \"bufpool_pages\": {},\n", exec_predict::BUFPOOL_PAGES));
        j.push_str(&format!("    \"n_queries\": {},\n", exec_predict::N_QUERIES));
        j.push_str(&format!("    \"time_speedup\": {},\n", exec_predict::TIME_SPEEDUP));
        j.push_str(&format!("    \"reps_per_mode\": {PRED_REPS},\n"));
        j.push_str(&format!("    \"warmup_reps\": {PRED_WARMUP},\n"));
        j.push_str("    \"reps\": [\n");
        let all: Vec<(&str, &exec_predict::PredictRun)> = declared_reps
            .iter()
            .map(|r| ("declared", r))
            .chain(predicted_reps.iter().map(|r| ("predicted", r)))
            .collect();
        for (i, (mode, r)) in all.iter().enumerate() {
            j.push_str(&format!(
                "      {{\"mode\": \"{}\", \"wall_seconds\": {:.6}, \"emitted\": {}, \
                 \"footprint_overruns\": {}, \"granted_pages\": {}, \
                 \"released_pages\": {}, \"grant_waits\": {}, \"pinned_at_exit\": {}, \
                 \"predictions\": {}}}{}\n",
                mode,
                r.wall,
                r.emitted,
                r.footprint_overruns,
                r.granted_pages,
                r.released_pages,
                r.grant_waits,
                r.pinned_at_exit,
                r.predictions,
                if i + 1 == all.len() { "" } else { "," }
            ));
        }
        j.push_str("    ],\n");
        j.push_str(&format!("    \"declared_wall_seconds\": {declared_wall:.6},\n"));
        j.push_str(&format!("    \"predicted_wall_seconds\": {predicted_wall:.6},\n"));
        j.push_str(&format!("    \"speedup_predicted_over_declared\": {pred_speedup:.3},\n"));
        j.push_str(&format!("    \"predicted_beats_declared\": {predicted_beats_declared},\n"));
        j.push_str(&format!("    \"overruns_first_rep\": {overruns_first},\n"));
        j.push_str(&format!("    \"overruns_last_rep\": {overruns_last},\n"));
        j.push_str(&format!("    \"decisions_differ\": {decisions_differ}\n"));
        j.push_str("  }\n");
        j
    };

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"executor_scan\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str(&format!("  \"relation_tuples\": {RELATION_TUPLES},\n"));
    json.push_str(&format!("  \"queries_per_run\": {QUERIES},\n"));
    json.push_str(&format!("  \"tuples_examined_per_run\": {examined},\n"));
    json.push_str(&format!("  \"trials_per_config\": {TRIALS},\n"));
    json.push_str("  \"wall_stat\": \"median\",\n");
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"scan_wall_seconds\": {:.6}, \
             \"total_wall_seconds\": {:.6}, \
             \"tuples_per_sec\": {:.1}, \"bufpool_hit_rate\": {:.4}, \
             \"pool_threads\": {}, \"pool_jobs\": {}}}{}\n",
            r.workers,
            r.scan_wall,
            r.wall,
            r.tuples_per_sec,
            r.hit_rate,
            r.pool_threads,
            r.pool_jobs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&dr_json);
    json.push_str(&mem_json);
    json.push_str(&pred_json);
    json.push_str("}\n");

    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path}");
}

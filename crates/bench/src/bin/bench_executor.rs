//! Emit and gate `BENCH_executor.json`: the executor on workloads the
//! buffer pool cannot absorb. (The cached 1/2/4/8-worker scan sweep is
//! `benchmark/`'s `cached_scan`: `worker.scaling_eff`.)
//!
//! The **disk-resident** section runs the larger-than-memory workload
//! (relations [`xprs_bench::exec_disk::SPILL_FACTOR`]× the pool, skewed
//! block costs, scaled-time machine): two co-run scans per config, the
//! worker count as the independent variable. Its
//! headline gate is the paper's central claim — 8-worker throughput must
//! strictly exceed 1-worker throughput — with the §2.3 utilization audit
//! confirming the disk band is saturated rather than under-staffed.
//!
//! The **memory-admission** section runs concurrent hash joins whose
//! aggregate build demand is 4× the buffer pool under memory grants
//! (admission queue + spill) against an uncontended big-pool reference. Its
//! gates: the result digests match (admission never changes an answer), the
//! grant ledger balances, no page stays pinned, and the builds actually
//! queued and spilled.
//!
//! The **predictive** section is the declared-vs-predicted A/B:
//! identical concurrent joins whose declared profiles are seeded wrong by
//! 2–8×, run cold (trusting declarations) and with a shared online
//! predictor warmed across repetitions. Its gates: the warm predicted mode
//! beats declared mode on wall time, footprint overruns decrease as the
//! model warms, the grant ledger balances with zero pins, and the two
//! modes' final-rep schedules provably differ.
//!
//! Usage: `bench_executor [output.json]` (default `BENCH_executor.json`).
//! Exit status 1 if a gate fails, 2 if the output cannot be written.

use std::process::ExitCode;
use std::sync::Arc;

use xprs_bench::{exec_disk, exec_memory, exec_predict, finish, host_header_json, median, Gates};
use xprs_executor::ExecConfig;
use xprs_scheduler::predict::Predictor;

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

fn main() -> ExitCode {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_executor.json".to_string());
    let mut gates = Gates::default();

    // ---- Disk-resident scaling: the workload where 8 must beat 1 ----
    let (dr_cat, dr_wl) = exec_disk::catalog(DR_SEED);
    let mut dr_rows = Vec::new();
    for w in WORKERS {
        let mut scan_walls = Vec::with_capacity(DR_TRIALS);
        let mut last = None;
        for _ in 0..DR_TRIALS {
            let r = exec_disk::scan_run(&dr_cat, &dr_wl, w);
            gates.check(r.emitted > 0, format_args!("vacuous disk-resident scan at {w} workers"));
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
    let solo_runs: Vec<_> =
        (0..DR_TRIALS).map(|_| exec_disk::solo_scan_audit(&dr_cat, &dr_wl)).collect();
    let solo_requests = solo_runs[0].solo_io_requests;
    let solo_util =
        median(&mut solo_runs.iter().map(|a| a.solo_io_disk_util).collect::<Vec<_>>());
    eprintln!("disk-resident solo scan: disk_util={solo_util:.2} over {solo_requests} requests");
    eprintln!(
        "disk-resident speedup (8w / 1w, stealing): {dr_speedup:.2}x  saturated_at_8={saturated}"
    );
    // The paper's central claim: 8 workers strictly beat 1 on a workload
    // the buffer pool cannot absorb, with the utilization audit confirming
    // the disk band is saturated rather than under-staffed.
    gates.check(
        dr_speedup > 1.0,
        format_args!("scaling regression: 8-worker/1-worker speedup {dr_speedup:.3} <= 1.0"),
    );
    gates.check(saturated, "8-worker disk-resident run did not saturate the disk band");
    // A lone IO-bound scan under INTER-WITH-ADJ must keep the array busy on
    // the backends staffed for its x = B/C processors, each overlapping its
    // next read with its current page (staffing backends = processors left
    // it at 0.37 on the paper task sets, blocking reads at 0.70 on this leg;
    // read-ahead measures 0.91).
    gates.check(
        solo_requests > 0 && solo_util >= 0.7,
        format_args!(
            "solo IO-bound scan under-staffed: disk utilization {solo_util:.4} < 0.7 \
             over {solo_requests} requests"
        ),
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
            gates.check(r.emitted > 0, format_args!("vacuous memory-admission join ({mode})"));
            walls.push(r.wall);
            last = Some(r);
        }
        let last = last.unwrap();
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
    eprintln!(
        "memory admission: parity={mem_parity} overhead={mem_overhead:.2}x \
         waits={} spill_rows={}",
        mem_grant.2.grant_waits, mem_grant.2.spill_rows
    );
    // Concurrent builds whose aggregate demand is 4x the pool must complete
    // under admission with (a) the reference's answers, over a pool they
    // all fit in, (b) a balanced grant ledger on both sides, (c) no page
    // pinned at exit, and (d) the builds actually queueing and spilling —
    // the admission machinery engaged rather than the demand quietly
    // fitting — while the reference neither waits nor spills.
    let demand = mem_wl.total_build_pages();
    let regime = exec_memory::DEMAND_FACTOR * exec_memory::BUFPOOL_PAGES;
    gates.check(
        demand >= regime,
        format_args!("build demand {demand} pages below the {regime}-page regime"),
    );
    gates.check(mem_parity, "memory admission changed a join answer (digest mismatch)");
    for (mode, _, r) in &mem_rows {
        gates.ledgers_closed(mode, r.granted_pages, r.released_pages, r.pinned_at_exit);
    }
    let (grants, reference) = (&mem_grant.2, &mem_ref.2);
    gates.check(grants.granted_pages > 0, "grants run never granted a page");
    gates.check(grants.grant_waits > 0, "oversized builds never waited for admission");
    gates.check(
        grants.spill_chunks > 0 && grants.spill_rows > 0,
        "oversized builds never spilled",
    );
    gates.check(
        reference.grant_waits == 0 && reference.spill_chunks == 0,
        format_args!(
            "reference run waited ({}) or spilled ({} chunks) in a pool it should fit",
            reference.grant_waits, reference.spill_chunks
        ),
    );

    // ---- Predictive scheduling: corrected profiles must beat wrong ones ----
    let pred_cat = exec_predict::catalog(PRED_SEED);
    let pred_runs = exec_predict::wrong_runs(&pred_cat, PRED_SEED);
    let declared_reps: Vec<_> =
        (0..PRED_REPS).map(|_| exec_predict::run(&pred_cat, &pred_runs, None)).collect();
    let predictor = Arc::new(Predictor::new(exec_predict::PAGE_BYTES));
    let predicted_reps: Vec<_> = (0..PRED_REPS)
        .map(|_| exec_predict::run(&pred_cat, &pred_runs, Some(&predictor)))
        .collect();
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
            let run = format!("{mode} rep {i}");
            gates.check(r.emitted > 0, format_args!("vacuous predictive rep: {run}"));
            gates.ledgers_closed(&run, r.granted_pages, r.released_pages, r.pinned_at_exit);
            gates.check(
                r.emitted == declared_reps[0].emitted,
                format_args!(
                    "prediction changed a join answer: {run} emitted {} rows, not {}",
                    r.emitted, declared_reps[0].emitted
                ),
            );
        }
    }
    eprintln!(
        "predictive A/B: declared={declared_wall:.4}s predicted={predicted_wall:.4}s \
         speedup={pred_speedup:.2}x decisions_differ={decisions_differ} \
         overruns {overruns_first}->{overruns_last}"
    );
    // With declarations seeded wrong by 2-8x, the warm predicted mode must
    // beat declared mode on wall time, the predictor must actually
    // substitute profiles, footprint overruns must decrease as the model
    // warms (the measured pages feed back into admission demand), and the
    // two modes' final-rep schedules must provably differ — a bench where
    // prediction changed nothing passes no gate.
    gates.check(
        predicted_beats_declared,
        format_args!(
            "predicted mode lost to declared: {predicted_wall:.4}s vs {declared_wall:.4}s"
        ),
    );
    gates.check(
        predicted_reps[PRED_REPS - 1].predictions > 0,
        "warm predictor never substituted a profile",
    );
    gates.check(
        overruns_first > overruns_last || overruns_last == 0,
        format_args!(
            "footprint overruns did not decrease as the model warmed: \
             {overruns_first} -> {overruns_last}"
        ),
    );
    gates.check(
        decisions_differ,
        "declared and predicted modes made identical decisions: \
         the prediction layer changed nothing",
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
    json.push_str("  \"bench\": \"executor\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str("  \"wall_stat\": \"median\",\n");
    json.push_str(&dr_json);
    json.push_str(&mem_json);
    json.push_str(&pred_json);
    json.push_str("}\n");
    finish(&out_path, &json, gates)
}

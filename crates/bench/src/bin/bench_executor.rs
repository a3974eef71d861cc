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

use xprs_bench::{bench_doc, exec_disk, exec_memory, exec_predict, finish, median, Gates};
use xprs_obs::json::JsonValue;
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
    let (mut dr_rows, mut dr_configs) = (Vec::new(), Vec::new());
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
        let config = JsonValue::obj()
            .with("mode", "stealing")
            .with("workers", w)
            .with("scan_wall_seconds", scan_wall)
            .with("pages_per_sec", pages_per_sec)
            .with("tuples_per_sec", last.tuples as f64 / scan_wall)
            .with("bufpool_hit_rate", last.hit_rate)
            .with("steals", last.steals)
            .with("steal_fails", last.steal_fails)
            .with("pool_threads", last.pool_threads)
            .with("paired_bw", last.audit.paired_bw)
            .with("band_lo", last.audit.band_lo)
            .with("band_hi", last.audit.band_hi)
            .with("paired_in_band", last.audit.paired_in_band)
            .with("paired_disk_util", last.audit.paired_disk_util);
        eprintln!("disk_resident {config}");
        dr_configs.push(config);
        dr_rows.push((w, pages_per_sec, last.audit.paired_in_band));
    }
    let dr_row = |w: u32| dr_rows.iter().find(|r| r.0 == w).unwrap();
    let dr_speedup = dr_row(8).1 / dr_row(1).1;
    let saturated = dr_row(8).2;
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
    let (mut mem_rows, mut mem_configs) = (Vec::new(), Vec::new());
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
        let (last, wall) = (last.unwrap(), median(&mut walls));
        let config = memory_row(mode, wall, &last);
        eprintln!("memory {config}");
        mem_configs.push(config);
        mem_rows.push((mode, wall, last));
    }
    let (mem_ref, mem_grant) = (&mem_rows[0], &mem_rows[1]);
    let mem_parity = mem_ref.2.rows_digest == mem_grant.2.rows_digest;
    let mem_overhead = mem_grant.1 / mem_ref.1;
    eprintln!("memory admission: parity={mem_parity} overhead={mem_overhead:.2}x");
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
    let mut reps = Vec::new();
    for (mode, runs) in [("declared", &declared_reps), ("predicted", &predicted_reps)] {
        for (i, r) in runs.iter().enumerate() {
            let rep = JsonValue::obj()
                .with("mode", mode)
                .with("wall_seconds", r.wall)
                .with("emitted", r.emitted)
                .with("footprint_overruns", r.footprint_overruns)
                .with("granted_pages", r.granted_pages)
                .with("released_pages", r.released_pages)
                .with("grant_waits", r.grant_waits)
                .with("pinned_at_exit", r.pinned_at_exit)
                .with("predictions", r.predictions);
            eprintln!("predictive rep={i} {rep}");
            reps.push(rep);
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
         speedup={pred_speedup:.2}x decisions_differ={decisions_differ}"
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

    let disk_resident = JsonValue::obj()
        .with("bufpool_pages", exec_disk::BUFPOOL_PAGES)
        .with("spill_factor", exec_disk::SPILL_FACTOR)
        .with("pages_per_relation", dr_wl.relations[0].n_pages())
        .with("time_speedup", exec_disk::TIME_SPEEDUP)
        .with("trials_per_config", DR_TRIALS)
        .with("configs", dr_configs)
        .with("speedup_8w_over_1w", dr_speedup)
        .with("saturated_at_8_workers", saturated)
        .with("solo_io_disk_util", solo_util)
        .with("solo_io_requests", solo_requests);
    let memory_admission = JsonValue::obj()
        .with("bufpool_pages", exec_memory::BUFPOOL_PAGES)
        .with("reference_pool_pages", exec_memory::REFERENCE_POOL_PAGES)
        .with("demand_factor", exec_memory::DEMAND_FACTOR)
        .with("n_queries", exec_memory::N_QUERIES)
        .with("total_build_pages", mem_wl.total_build_pages())
        .with("workers", MEM_WORKERS)
        .with("trials_per_config", MEM_TRIALS)
        .with("configs", mem_configs)
        .with("parity", mem_parity)
        .with("overhead_vs_reference", mem_overhead);
    let predictive = JsonValue::obj()
        .with("bufpool_pages", exec_predict::BUFPOOL_PAGES)
        .with("n_queries", exec_predict::N_QUERIES)
        .with("time_speedup", exec_predict::TIME_SPEEDUP)
        .with("reps_per_mode", PRED_REPS)
        .with("warmup_reps", PRED_WARMUP)
        .with("reps", reps)
        .with("declared_wall_seconds", declared_wall)
        .with("predicted_wall_seconds", predicted_wall)
        .with("speedup_predicted_over_declared", pred_speedup)
        .with("predicted_beats_declared", predicted_beats_declared)
        .with("overruns_first_rep", overruns_first)
        .with("overruns_last_rep", overruns_last)
        .with("decisions_differ", decisions_differ);
    let doc = bench_doc("executor")
        .with("wall_stat", "median")
        .with("disk_resident", disk_resident)
        .with("memory_admission", memory_admission)
        .with("predictive", predictive);
    finish(&out_path, &doc, gates)
}

/// One `memory_admission` config: `mode`'s median wall and its last run.
fn memory_row(mode: &str, wall: f64, r: &exec_memory::MemoryRun) -> JsonValue {
    JsonValue::obj()
        .with("mode", mode)
        .with("wall_seconds", wall)
        .with("emitted", r.emitted)
        .with("granted_pages", r.granted_pages)
        .with("released_pages", r.released_pages)
        .with("grant_waits", r.grant_waits)
        .with("spill_chunks", r.spill_chunks)
        .with("spill_rows", r.spill_rows)
        .with("pinned_at_exit", r.pinned_at_exit)
        .with("rows_digest", r.rows_digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_obs::json::parse;

    /// The key paths of `v`, objects descended and arrays not.
    fn keys(v: &JsonValue, prefix: &str) -> Vec<String> {
        let JsonValue::Obj(fields) = v else { return Vec::new() };
        let key_and_below = |(k, x): &(String, JsonValue)| {
            std::iter::once(format!("{prefix}{k}")).chain(keys(x, &format!("{prefix}{k}.")))
        };
        fields.iter().flat_map(key_and_below).collect()
    }

    #[test]
    fn the_host_header_and_a_memory_row_parse_back_with_the_exact_digest() {
        let run = exec_memory::MemoryRun {
            wall: 0.5,
            emitted: 3,
            granted_pages: 4,
            released_pages: 4,
            grant_waits: 1,
            spill_chunks: 2,
            spill_rows: 3,
            pinned_at_exit: 0,
            rows_digest: u64::MAX,
        };
        let doc = bench_doc("executor").with("row", memory_row("grants", 0.25, &run));
        let text = format!("{doc:#}");
        let back = parse(&text).expect("a rendered tree parses");
        assert_eq!(keys(&back, ""), keys(&doc, ""));
        assert_eq!(
            keys(&back, "")[..5],
            ["bench", "host", "host.available_parallelism", "host.machine_procs", "host.bufpool_pages"]
        );
        assert!(text.contains("\"rows_digest\": 18446744073709551615\n"), "{text}");
        assert_eq!(back.get("row").unwrap().field::<u64>("rows_digest"), Ok(u64::MAX));
        let digest = JsonValue::obj().with("rows_digest", 16601571100867327612u64);
        assert_eq!(digest.to_string(), "{\"rows_digest\":16601571100867327612}");
    }
}

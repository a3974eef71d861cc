//! Emit `BENCH_obs.json` + `metrics.json`: the observability layer's two
//! promises, measured.
//!
//! 1. **Overhead** — enabling hot-path metrics (`ExecConfig::with_obs`) must
//!    not cost throughput: interleaved single-worker A/B runs of the
//!    `exec_scan` stream with metrics off and on, gated on the median over
//!    independent blocks of best-of-N scan-wall ratios. The CI `obs` leg
//!    fails the build when that ratio exceeds ~2%.
//! 2. **The audit** — two IO-heavy scans co-run under a scaled-time machine;
//!    the §2.2 pairing window's *measured* disk bandwidth must fall inside
//!    the §2.3 band `[Br, Bs]`, with per-class busy time and CPU/disk
//!    utilization reported for 2/4/8 total workers. The headline (8-worker)
//!    run dumps `metrics.json`. One scan then runs alone under
//!    INTER-WITH-ADJ and reports the disk utilization of its solo-IO-bound
//!    window — the one the paired sweep cannot see.
//!
//! Usage: `bench_obs [BENCH_obs.json] [metrics.json]`.

use std::path::Path;

use xprs_bench::{exec_obs, exec_scan, host_header_json};
use xprs_executor::ExecConfig;

const RELATION_TUPLES: u64 = 8_192;
// The A/B measures instruction cost, so it runs the scan stream on ONE
// worker: on this single-core container an 8-worker A/B measures scheduler
// luck (the ratio wandered ±4% run to run — wider than the 1.02 gate), not
// instrumentation. The gated figure is the MEDIAN over `BLOCKS` independent
// blocks of best-of-`TRIALS` ratios: the floor of each block dodges noise
// spikes within it, and the median across blocks survives the multi-second
// sustained-load patches that can poison any single block whole.
const QUERIES: usize = 768;
const TRIALS: usize = 5; // paired trials per block
const BLOCKS: usize = 5;
const AUDIT_TUPLES_EACH: u64 = 2_600; // ~260 pages per relation
const AUDIT_SCALE: f64 = 0.05; // 20× faster than real time
const AUDIT_WORKERS: [u32; 3] = [1, 2, 4]; // per scan; ×2 scans co-running

struct AuditRow {
    workers_total: u32,
    paired_bw: f64,
    predicted_bw: f64,
    disk_util: f64,
    cpu_util: f64,
    requests: u64,
    in_band: bool,
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_obs.json".to_string());
    let metrics_path = std::env::args().nth(2).unwrap_or_else(|| "metrics.json".to_string());

    // --- 1. Overhead A/B -------------------------------------------------
    let cat = exec_scan::catalog(RELATION_TUPLES);
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut block_ratios = Vec::with_capacity(BLOCKS);
    exec_scan::run_with_obs(&cat, 1, QUERIES, false); // warmup
    exec_scan::run_with_obs(&cat, 1, QUERIES, true);
    for _ in 0..BLOCKS {
        // Back-to-back pairs so host drift (frequency scaling, co-running
        // load) hits both sides equally, alternating which side goes first
        // so neither always inherits the other's cache state.
        let mut boff = f64::INFINITY;
        let mut bon = f64::INFINITY;
        for trial in 0..TRIALS {
            let (a, b) = if trial % 2 == 0 {
                let a = exec_scan::run_with_obs(&cat, 1, QUERIES, false);
                let b = exec_scan::run_with_obs(&cat, 1, QUERIES, true);
                (a, b)
            } else {
                let b = exec_scan::run_with_obs(&cat, 1, QUERIES, true);
                let a = exec_scan::run_with_obs(&cat, 1, QUERIES, false);
                (a, b)
            };
            assert!(a.emitted > 0 && b.emitted > 0, "vacuous scan");
            boff = boff.min(a.scan_wall);
            bon = bon.min(b.scan_wall);
        }
        block_ratios.push(bon / boff);
        off = off.min(boff);
        on = on.min(bon);
    }
    let mut sorted = block_ratios.clone();
    sorted.sort_by(|x, y| x.total_cmp(y));
    // The gated figure: the median block has to breach before the run does.
    let overhead_ratio = sorted[BLOCKS / 2];
    let floor_ratio = on / off;
    eprintln!("metrics off: best scan_wall {off:.4}s");
    eprintln!("metrics on:  best scan_wall {on:.4}s");
    eprintln!(
        "block ratios: {}",
        block_ratios.iter().map(|r| format!("{r:.4}")).collect::<Vec<_>>().join(" ")
    );
    println!(
        "overhead_ratio: {overhead_ratio:.4}  (median of {BLOCKS} blocks, \
         best-of-{TRIALS} each; global floor ratio {floor_ratio:.4})"
    );

    // --- 2. Utilization audit -------------------------------------------
    let audit_cat = exec_obs::catalog(AUDIT_TUPLES_EACH);
    let mut rows: Vec<AuditRow> = Vec::new();
    let mut band = (0.0f64, 0.0f64);
    for (i, &w) in AUDIT_WORKERS.iter().enumerate() {
        let headline = i + 1 == AUDIT_WORKERS.len();
        let metrics_out = headline.then(|| Path::new(&metrics_path));
        let (report, audit) = exec_obs::run(&audit_cat, w, AUDIT_SCALE, metrics_out);
        band = (audit.band_lo, audit.band_hi);
        // Time-weighted §2.3 prediction over the paired windows.
        let (mut pred, mut span) = (0.0, 0.0);
        for win in audit.windows.iter().filter(|w| w.paired) {
            let dt = (win.t1 - win.t0) / AUDIT_SCALE;
            pred += win.predicted_bw * dt;
            span += dt;
        }
        rows.push(AuditRow {
            workers_total: 2 * w,
            paired_bw: audit.paired_bw,
            predicted_bw: if span > 0.0 { pred / span } else { 0.0 },
            disk_util: audit.paired_disk_util,
            cpu_util: audit.paired_cpu_util,
            requests: audit.paired_requests,
            in_band: audit.paired_in_band,
        });
        let r = rows.last().unwrap();
        eprintln!(
            "workers={} paired_bw={:.1} io/s predicted={:.1} band=[{:.0},{:.0}] \
             disk_util={:.2} cpu_util={:.2} requests={} in_band={} reads={}",
            r.workers_total,
            r.paired_bw,
            r.predicted_bw,
            audit.band_lo,
            audit.band_hi,
            r.disk_util,
            r.cpu_util,
            r.requests,
            r.in_band,
            report.stats.reads,
        );
    }
    // One scan alone under INTER-WITH-ADJ: the window the paired sweep
    // cannot see — a lone IO-bound fragment on the backends staffed for the
    // `x = B/C_i` processors the policy gave it.
    let solo = exec_obs::run_solo(&audit_cat, "pair_a", exec_obs::config(AUDIT_SCALE));
    let solo_win = solo.windows.iter().find(|w| w.solo_io);
    let (solo_x, solo_backends) =
        solo_win.and_then(|w| w.tasks.first()).map_or((0, 0), |&(_, x, b)| (x, b));
    eprintln!(
        "solo scan: x={solo_x} backends={solo_backends} planned={:.1} io/s disk_util={:.2} \
         requests={}",
        solo_win.map_or(0.0, |w| w.planned_bw),
        solo.solo_io_disk_util,
        solo.solo_io_requests,
    );
    let headline = rows.last().unwrap();
    println!("solo_io_disk_util: {:.2}", solo.solo_io_disk_util);
    println!("paired_bw: {:.2}", headline.paired_bw);
    println!("band: [{:.2}, {:.2}]", band.0, band.1);
    println!("paired_in_band: {}", headline.in_band);
    println!("metrics_json: {metrics_path}");

    // --- 3. BENCH_obs.json ----------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"observability\",\n");
    json.push_str(&host_header_json(
        ExecConfig::unthrottled().machine.n_procs,
        ExecConfig::unthrottled().bufpool_pages,
    ));
    json.push_str(&format!("  \"overhead_trials\": {},\n", BLOCKS * TRIALS));
    json.push_str(&format!("  \"scan_wall_metrics_off\": {off:.6},\n"));
    json.push_str(&format!("  \"scan_wall_metrics_on\": {on:.6},\n"));
    json.push_str(&format!("  \"overhead_ratio\": {overhead_ratio:.4},\n"));
    json.push_str(&format!("  \"overhead_floor_ratio\": {floor_ratio:.4},\n"));
    json.push_str(&format!(
        "  \"overhead_block_ratios\": [{}],\n",
        block_ratios.iter().map(|r| format!("{r:.4}")).collect::<Vec<_>>().join(", ")
    ));
    json.push_str(&format!("  \"audit_scale\": {AUDIT_SCALE},\n"));
    json.push_str(&format!("  \"band\": [{:.2}, {:.2}],\n", band.0, band.1));
    json.push_str("  \"audit\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers_total\": {}, \"paired_bw\": {:.2}, \"predicted_bw\": {:.2}, \
             \"paired_disk_util\": {:.4}, \"paired_cpu_util\": {:.4}, \
             \"paired_requests\": {}, \"in_band\": {}}}{}\n",
            r.workers_total,
            r.paired_bw,
            r.predicted_bw,
            r.disk_util,
            r.cpu_util,
            r.requests,
            r.in_band,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"solo_io\": {{\"x\": {solo_x}, \"backends\": {solo_backends}, \
         \"planned_bw\": {:.2}, \"disk_util\": {:.4}, \"requests\": {}}}\n}}\n",
        solo_win.map_or(0.0, |w| w.planned_bw),
        solo.solo_io_disk_util,
        solo.solo_io_requests
    ));
    std::fs::write(&out_path, json).expect("write bench output");
    eprintln!("wrote {out_path} and {metrics_path}");
}

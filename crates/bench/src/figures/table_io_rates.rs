//! Section 3's calibration tables:
//!
//! 1. the disk-bandwidth table (97 / 60 / 35 io/s), *measured* by running
//!    scans against the discrete-event machine;
//! 2. the tuple-size ↔ I/O-rate calibration with the `r_min`/`r_max`
//!    anchors (5 and 70 io/s);
//! 3. the per-class task I/O-rate table, with the rates the generator
//!    realizes and the rates measured by a solo DES run of each task.

use xprs::{PolicyKind, XprsSystem};
use xprs_scheduler::MachineConfig;
use xprs_workload::{Calibration, WorkloadKind};

use crate::{header, mean, paper_workload, row};

/// Print the figure.
pub fn print() {
    println!("# Section 3 calibration tables");

    disk_bandwidths();
    calibration_anchors();
    class_table();
}

/// Measure the three service regimes on the simulated machine.
fn disk_bandwidths() {
    use xprs_disk::{DiskParams, DiskState, IoRequest, RelId, WorkerId};
    println!();
    println!("## Disk service regimes (per disk, measured)");
    println!();
    let mut disk = DiskState::new(DiskParams::paper_default());
    // I/Os per second of busy time serving 1000 `(block, worker, solo)`
    // requests in order.
    let mut rate = |requests: &mut dyn Iterator<Item = (u64, u64, bool)>| {
        disk.reset();
        let busy: f64 = requests
            .map(|(local_block, w, solo)| {
                disk.serve(&IoRequest { rel: RelId(1), local_block, worker: WorkerId(w), solo }).1
            })
            .sum();
        1000.0 / busy
    };
    // Solo sequential stream.
    let seq_rate = rate(&mut (0..1000).map(|b| (b, 0, true)));
    // One parallel scan (two workers, slightly unordered).
    let par_rate = rate(&mut (0..1000).map(|b| (b, b % 2, false)));
    // Random pointer chasing.
    let mut block = 7u64;
    let rand_rate = rate(&mut (0..1000).map(|_| {
        block = block.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 100_000;
        (block, 0, true)
    }));
    header(&["pattern", "paper (io/s)", "measured (io/s)"]);
    row(&["sequential read".into(), "97".into(), format!("{seq_rate:5.1}")]);
    row(&["almost sequential read".into(), "60".into(), format!("{par_rate:5.1}")]);
    row(&["random read".into(), "35".into(), format!("{rand_rate:5.1}")]);
    let m = MachineConfig::paper_default();
    println!();
    println!(
        "Aggregate parallel bandwidth B = {} × {} = {} io/s; threshold B/N = {} io/s.",
        m.n_disks,
        m.almost_seq_bw,
        m.total_bandwidth(),
        m.io_threshold()
    );
}

/// The r_min / r_max anchors and the rate ↔ tuple-size inversion.
fn calibration_anchors() {
    let c = Calibration::paper_default();
    println!();
    println!("## Tuple-size calibration (r_min / r_max anchors)");
    println!();
    header(&["relation", "b length (bytes)", "tuples/page", "model rate (io/s)", "paper rate"]);
    row(&[
        "r_min (b = NULL)".into(),
        "0".into(),
        format!("{}", c.tuples_per_page(0)),
        format!("{:4.1}", c.rate(0)),
        "5".into(),
    ]);
    let big = 8192 - 24 - 14;
    row(&[
        "r_max (one tuple/page)".into(),
        format!("{big}"),
        format!("{}", c.tuples_per_page(big)),
        format!("{:4.1}", c.rate(big)),
        "70".into(),
    ]);
    println!();
    header(&["target rate (io/s)", "b length chosen", "achieved rate"]);
    for target in [10.0, 20.0, 30.0, 45.0, 60.0, 70.0] {
        let blen = c.blen_for_rate(target);
        row(&[format!("{target:4.0}"), format!("{blen}"), format!("{:5.2}", c.rate(blen))]);
    }
}

/// The task-class table, cross-checked against solo DES measurements.
fn class_table() {
    let mut solo_machine = MachineConfig::paper_default();
    solo_machine.n_procs = 1; // measure each task sequentially
    let solo_sys = XprsSystem::new(solo_machine);

    println!();
    println!("## Task classes (paper's table) and realized rates");
    println!();
    header(&[
        "class",
        "paper range (io/s)",
        "generated range",
        "solo-DES measured range",
    ]);
    for (kind, paper_range) in [
        (WorkloadKind::AllCpu, "[5, 30)"),
        (WorkloadKind::AllIo, "(30, 60]"),
        (WorkloadKind::Extreme, "[5,15] ∪ [60,70]"),
        (WorkloadKind::RandomMix, "[5, 70]"),
    ] {
        let mut gen_rates = Vec::new();
        let mut measured = Vec::new();
        for seed in 1..=3u64 {
            for t in paper_workload(kind, seed) {
                gen_rates.push(t.io_rate);
                // Sequential (parallelism-1) run of just this task.
                let report = solo_sys.simulate(std::slice::from_ref(&t), PolicyKind::IntraOnly).expect("sim");
                measured.push(t.total_ios() / report.elapsed);
            }
        }
        let span = |xs: &[f64]| {
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(0.0, f64::max);
            format!("[{lo:4.1}, {hi:4.1}] (mean {:4.1})", mean(xs))
        };
        row(&[
            kind.label().to_string(),
            paper_range.to_string(),
            span(&gen_rates),
            span(&measured),
        ]);
    }
}

//! Where a task set's seconds go: one paper §3 ten-task set through the
//! discrete-event machine and through the threaded executor, the latter
//! broken down by pairing window — which fragments ran, on how many
//! processors the policy put them (`x`) and how many backends the executor
//! staffed for that, the I/O rate the policy planned against the rate the
//! disks delivered, disk and CPU utilization, and the mean number of
//! requests at the array, queued or in service (`queue` = (queue wait +
//! busy) / window), and the mean disk service time per request (`ms/io` =
//! busy / requests), which shows the window's class mix directly: 10.3 ms
//! is all sequential, 16.7 ms all almost-sequential, 28.6 ms all random. A
//! window whose measured rate sits far under its planned rate is
//! under-staffed; this is the table that found the executor running
//! IO-bound scans at a third of the array.
//!
//! ```sh
//! cargo run --release --example utilization_timeline [extreme|random] [seed] [speedup]
//! ```

use xprs::{Costing, PolicyKind, Query, XprsSystem};
use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let kind = match args.next().as_deref() {
        Some("random") => WorkloadKind::RandomMix,
        _ => WorkloadKind::Extreme,
    };
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let speedup: f64 = args.next().and_then(|s| s.parse().ok()).filter(|s| *s > 0.0).unwrap_or(20.0);

    let mut sys = XprsSystem::paper_default();
    let m = sys.machine().clone();
    let workload = WorkloadGenerator::new().generate(&WorkloadConfig::paper(kind, seed));
    sys.load_workload(&workload);
    println!("{kind:?} task set, seed {seed}, INTER-WITH-ADJ, executor at {speedup}×\n");

    let des = sys.simulate(&workload.profiles(), PolicyKind::InterWithAdj).expect("sim");
    println!(
        "DES:      makespan {:6.2} sim-s   disk util {:4.2}   cpu util {:4.2}",
        des.elapsed,
        des.disk_utilization(m.n_disks),
        des.cpu_utilization(m.n_procs),
    );

    let runs: Vec<_> = workload
        .tasks
        .iter()
        .map(|t| {
            let q = Query::selection(&t.relation, 1.0);
            let o = sys.optimize(&q, Costing::SeqCost).expect("plan");
            (o, sys.bindings(&q).expect("bindings"))
        })
        .collect();
    let report = sys.execute(&runs, PolicyKind::InterWithAdj, Some(speedup)).expect("exec");
    let audit = report.utilization_audit();
    let busy: f64 = report.disk_classes.iter().map(|d| d.total_busy()).sum();
    let sim_s = report.wall * speedup;
    println!(
        "executor: makespan {:6.2} sim-s   disk util {:4.2}   cpu util {:4.2}\n",
        sim_s,
        busy / (f64::from(m.n_disks) * sim_s),
        report.cpu_busy / (f64::from(m.n_procs) * sim_s),
    );

    println!("executor pairing windows (query×x/backends; io/s planned = Σ C·x):");
    println!(
        "  {:>15}  {:<22} {:>7} {:>8} {:>5} {:>5} {:>5} {:>5}",
        "sim-s", "running", "planned", "measured", "disk", "cpu", "queue", "ms/io"
    );
    for w in &audit.windows {
        let running: Vec<String> =
            w.tasks.iter().map(|(t, x, b)| format!("q{}×{x}/{b}", t.0 >> 32)).collect();
        // Busy disk-seconds over requests served, both inside the window.
        let busy = w.disk_util * f64::from(m.n_disks) * (w.t1 - w.t0) * speedup;
        let ms_per_io = if w.requests > 0 { 1e3 * busy / w.requests as f64 } else { 0.0 };
        println!(
            "  {:6.2} → {:6.2}  {:<22} {:7.0} {:8.0} {:5.2} {:5.2} {:5.1} {:5.1}{}",
            w.t0 * speedup,
            w.t1 * speedup,
            running.join(" "),
            w.planned_bw,
            w.measured_bw,
            w.disk_util,
            w.cpu_util,
            w.queue_depth,
            ms_per_io,
            if w.solo_io { "  solo IO-bound" } else { "" },
        );
    }
    println!(
        "\nsolo IO-bound windows: disk util {:.2} over {} requests; paired windows: disk util \
         {:.2}, cpu util {:.2}, {:.0} io/s in band [{:.0}, {:.0}]: {}",
        audit.solo_io_disk_util,
        audit.solo_io_requests,
        audit.paired_disk_util,
        audit.paired_cpu_util,
        audit.paired_bw,
        audit.band_lo,
        audit.band_hi,
        audit.paired_in_band,
    );
}

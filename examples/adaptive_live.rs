//! Watch the Section 2.4 machinery live: a mixed batch of queries runs on
//! the threaded executor, throttled so the scheduling is visible, and the
//! per-fragment timeline shows tasks starting, pairing and finishing under
//! the adaptive scheduler.
//!
//! ```sh
//! cargo run --example adaptive_live
//! ```

use xprs::{Costing, PolicyKind, Query, XprsSystem};
use xprs_workload::{LengthModel, WorkloadConfig, WorkloadGenerator, WorkloadKind};

fn main() {
    let mut sys = XprsSystem::paper_default();

    // A small extreme-mix workload, throttled 400× faster than the real
    // machine so the run takes a fraction of a second but still exercises
    // disk-queue contention and live parallelism adjustment.
    let workload = WorkloadGenerator::new().generate(&WorkloadConfig {
        kind: WorkloadKind::Extreme,
        n_tasks: 6,
        length: LengthModel::SeqTime { min: 1.0, max: 4.0 },
        seed: 7,
    });
    sys.load_workload(&workload);

    let runs: Vec<_> = workload
        .tasks
        .iter()
        .map(|t| {
            let q = Query::selection(&t.relation, 1.0);
            let o = sys.optimize(&q, Costing::SeqCost).expect("plan");
            let b = sys.bindings(&q).expect("bindings");
            (o, b)
        })
        .collect();

    println!("six selection queries (3 IO-bound, 3 CPU-bound), 400× throttle\n");
    for policy in [PolicyKind::IntraOnly, PolicyKind::InterWithAdj] {
        let report = sys.execute(&runs, policy, Some(400.0)).expect("exec");
        println!("{}:", policy.label());
        let mut times: Vec<_> =
            report.fragments().map(|f| (f.task, f.started_at, f.finished_at)).collect();
        times.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (id, start, finish) in &times {
            let bar_start = (start * 400.0 / 0.2) as usize;
            let bar_len = (((finish - start) * 400.0 / 0.2) as usize).max(1);
            println!(
                "  query {:2}  [{:5.2} → {:5.2}] wall-s  {}{}",
                id.0 >> 32,
                start,
                finish,
                " ".repeat(bar_start.min(60)),
                "█".repeat(bar_len.min(60)),
            );
        }
        println!(
            "  total {:.2} wall-s; {} reads ({} seq / {} almost / {} random)\n",
            report.wall,
            report.stats.reads,
            report.stats.disk.sequential,
            report.stats.disk.almost_sequential,
            report.stats.disk.random,
        );
    }
    println!(
        "INTRA-ONLY runs the queries one after another; INTER-W/-ADJ overlaps an \
         IO-bound scan with a CPU-bound one and re-spreads workers when a query \
         finishes — same answers, shorter wall time."
    );
}

//! Quickstart: load a relation, run a parallel selection query end-to-end
//! on the threaded executor, and inspect what the machine did.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use xprs::{Costing, PolicyKind, Query, XprsSystem};
use xprs::storage::{Datum, Schema, Tuple};

fn main() {
    // A system modelled on the paper's machine: 8 processors, 4 disks.
    let mut sys = XprsSystem::paper_default();

    // Create and load r1(a int4, b text): 20 000 rows, 100-byte strings.
    let cat = sys.catalog_mut();
    cat.create("r1", Schema::paper_rel());
    cat.load(
        "r1",
        (0..20_000).map(|i| {
            Tuple::from_values(vec![Datum::Int(i % 500), Datum::Text("payload".repeat(14))])
        }),
    );
    cat.build_index("r1", false);
    let stats = sys.catalog().get("r1").unwrap().stats();
    println!(
        "loaded r1: {} tuples over {} striped pages ({} distinct keys)",
        stats.n_tuples, stats.n_blocks, stats.n_distinct_a
    );

    // A one-variable selection keeping ~30% of the key range — the shape of
    // every task in the paper's Section 3 workloads.
    let query = Query::selection("r1", 0.3);
    let optimized = sys.optimize(&query, Costing::SeqCost).expect("plan");
    println!(
        "plan: {}   (seqcost {:.2} s, parcost {:.2} s, {} fragment)",
        optimized.plan.display(),
        optimized.seqcost,
        optimized.parcost,
        optimized.fragments.fragments.len()
    );
    for f in &optimized.fragments.fragments {
        println!(
            "  fragment {}: T = {:.2} s, C = {:.1} io/s → {}",
            f.profile.id,
            f.profile.seq_time,
            f.profile.io_rate,
            if f.profile.io_rate > sys.machine().io_threshold() { "IO-bound" } else { "CPU-bound" }
        );
    }

    // Execute with the paper's scheduler on real worker threads.
    let bindings = sys.bindings(&query).expect("bindings");
    let report = sys.execute(&[(optimized, bindings)], PolicyKind::InterWithAdj, None).expect("exec");
    let rows = &report.results[0].rows;
    println!(
        "executed: {} matching rows in {:.3} s wall; {} page reads \
         ({} sequential / {} almost-sequential / {} random)",
        rows.rows.len(),
        report.wall,
        report.stats.reads,
        report.stats.disk.sequential,
        report.stats.disk.almost_sequential,
        report.stats.disk.random,
    );
}

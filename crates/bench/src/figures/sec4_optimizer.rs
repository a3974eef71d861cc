//! Section 4: optimizing bushy-tree plans for inter-operation parallelism.
//!
//! Builds a catalog whose relations mix IO-heavy (fat-tuple) and CPU-heavy
//! (thin-tuple) scans, then optimizes multi-join queries three ways:
//!
//! * `HONG91` — left-deep trees ranked by `seqcost` (the prior work);
//! * `bushy + seqcost` — bushy enumeration, conventional ranking;
//! * `bushy + parcost` — the paper's proposal: rank complete plans by
//!   `parcost(p, n) = T_n(F(p))`.
//!
//! For each choice it reports `seqcost`, `parcost` (estimated parallel
//! response time) and the fragment structure.

use xprs::{Costing, PlanShape, Query};

use crate::{header, rate_catalog, row};

/// Print the figure.
pub fn print() {
    // Four relations: two IO-heavy (fat tuples) and two CPU-heavy (thin).
    // Keys are distinct within each relation (a foreign-key-like equi-join),
    // so joins filter rather than multiply.
    let mut sys = rate_catalog(&[
        ("fat_a", 65.0, 2200),
        ("thin_b", 7.0, 42_000),
        ("fat_c", 60.0, 1800),
        ("thin_d", 9.0, 35_000),
    ]);

    println!("# Section 4 — two-phase optimization with parcost");
    println!();
    println!("Catalog: fat_a/fat_c scan at ~60–65 io/s (IO-bound), thin_b/thin_d at ~7–9 io/s (CPU-bound).");
    println!();

    let query = Query::join()
        .rel("fat_a", 1.0)
        .rel("thin_b", 1.0)
        .rel("fat_c", 1.0)
        .rel("thin_d", 1.0)
        .on(0, 1)
        .on(1, 2)
        .on(2, 3)
        .build();

    header(&["strategy", "chosen plan", "seqcost (s)", "parcost = T_n(F(p)) (s)", "fragments", "left-deep?"]);
    let mut results = Vec::new();
    for (label, shape, costing) in [
        ("HONG91: left-deep + seqcost", PlanShape::LeftDeep, Costing::SeqCost),
        ("bushy + seqcost", PlanShape::Bushy, Costing::SeqCost),
        ("bushy + parcost (this paper)", PlanShape::Bushy, Costing::ParCost),
    ] {
        sys.optimizer_mut().shape = shape;
        let o = sys.optimize(&query, costing).expect("plan");
        row(&[
            label.to_string(),
            o.plan.display(),
            format!("{:6.2}", o.seqcost),
            format!("{:6.2}", o.parcost),
            format!("{}", o.fragments.fragments.len()),
            format!("{}", o.plan.is_left_deep()),
        ]);
        results.push((label, o));
    }

    let hong91 = &results[0].1;
    let parcost_choice = &results[2].1;
    println!();
    println!(
        "Estimated single-query response-time speedup of the parcost choice over the \
         HONG91 baseline: {:4.2}× (parcost {:5.2} s vs {:5.2} s).",
        hong91.parcost / parcost_choice.parcost,
        parcost_choice.parcost,
        hong91.parcost
    );
    println!();
    println!("## Fragment profiles of the parcost-chosen plan");
    println!();
    header(&["fragment", "T_i (s)", "D_i (ios)", "C_i (io/s)", "class (B/N = 30)"]);
    for f in &parcost_choice.fragments.fragments {
        let class = if f.profile.io_rate > 30.0 { "IO-bound" } else { "CPU-bound" };
        row(&[
            f.profile.id.to_string(),
            format!("{:6.2}", f.profile.seq_time),
            format!("{:7.0}", f.ios),
            format!("{:5.1}", f.profile.io_rate),
            class.to_string(),
        ]);
    }
    println!();
    println!(
        "In a multi-user setting the paper instead keeps per-query intra-only plans and \
         relies on the Section 2.5 scheduler to pair fragments *across* queries; the \
         single-user case above is where bushy trees and parcost are required."
    );
}

//! Figure 7: turnaround time of the three scheduling algorithms over the
//! four Section 3 workloads (ten selection tasks each, 8 processors, 4
//! disks), averaged over several seeds, on both measurement engines.

use xprs::{PolicyKind, XprsSystem};
use xprs_workload::WorkloadKind;

use crate::{header, mean, row, stddev, Engine, SEEDS};

/// Print the figure.
pub fn print() {
    let sys = XprsSystem::paper_default();

    println!("# Figure 7 — elapsed time (s) of scheduling algorithms by workload");
    println!();
    println!("Machine: 8 processors, 4 disks at 97/60/35 io/s (B = 240 io/s); {} seeds.", SEEDS.len());

    for (engine_name, engine) in [
        ("discrete-event simulator (measured)", Engine::des()),
        ("fluid model (the paper's cost arithmetic)", Engine::Fluid),
    ] {
        println!();
        println!("## Engine: {engine_name}");
        println!();
        header(&[
            "workload",
            "INTRA-ONLY",
            "INTER-W/O-ADJ",
            "INTER-W/-ADJ",
            "W/-ADJ vs INTRA",
            "W/O-ADJ vs INTRA",
        ]);
        for kind in WorkloadKind::all() {
            let intra = engine.elapsed(&sys, kind, PolicyKind::IntraOnly, &SEEDS);
            let noadj = engine.elapsed(&sys, kind, PolicyKind::InterWithoutAdj, &SEEDS);
            let adj = engine.elapsed(&sys, kind, PolicyKind::InterWithAdj, &SEEDS);
            let (mi, mn, ma) = (mean(&intra), mean(&noadj), mean(&adj));
            row(&[
                kind.label().to_string(),
                format!("{mi:7.2} ±{:4.2}", stddev(&intra)),
                format!("{mn:7.2} ±{:4.2}", stddev(&noadj)),
                format!("{ma:7.2} ±{:4.2}", stddev(&adj)),
                format!("{:+5.1}%", 100.0 * (ma / mi - 1.0)),
                format!("{:+5.1}%", 100.0 * (mn / mi - 1.0)),
            ]);
        }
    }
    println!();
    println!(
        "Paper's findings to compare against: all three roughly equal on AllCPU/AllIO; \
         INTER-W/-ADJ up to ~25% faster than INTRA-ONLY on mixed workloads; \
         INTER-W/O-ADJ loses even to INTRA-ONLY."
    );
}

//! Section 5 future work, implemented: memory-constrained scheduling.
//!
//! "We cannot run two hashjoins in parallel unless there is enough memory
//! for both hash tables." Each task carries a shared-memory footprint; the
//! scheduler pairs tasks only when their combined footprint fits. This
//! harness gives every Extreme-workload task a footprint and sweeps the
//! machine's memory from unconstrained down to single-task territory: the
//! INTER-W/-ADJ advantage decays to INTRA-ONLY exactly as pairing becomes
//! impossible.

use xprs::{PolicyKind, XprsSystem};
use xprs_scheduler::{MachineConfig, TaskProfile};
use xprs_workload::WorkloadKind;

use crate::{header, mean, paper_workload, row, Engine, SEEDS};

const MB: f64 = 1024.0 * 1024.0;

/// The Extreme workload for `seed`, each task given a footprint
/// proportional to its sequential time — the longer the scan, the bigger
/// the hash table it would feed.
fn with_footprints(seed: u64) -> Vec<(TaskProfile, f64)> {
    let tasks = paper_workload(WorkloadKind::Extreme, seed);
    tasks.into_iter().map(|t| { let m = t.seq_time * 1.5 * MB; (t.with_memory(m), 0.0) }).collect()
}

/// Mean elapsed time of `policy`, in whole workers, on the fluid model on
/// a machine of `memory` bytes.
fn measure(policy: PolicyKind, memory: f64) -> f64 {
    let sys = XprsSystem::new(MachineConfig { memory, ..MachineConfig::paper_default() });
    let whole = |m: &MachineConfig, _: bool| policy.build(m, true);
    mean(&SEEDS.map(|s| Engine::Fluid.run(&sys, &whole, &with_footprints(s)).elapsed))
}

/// Print the figure.
pub fn print() {
    println!("# Ablation — memory-constrained pairing (Section 5 future work)");
    println!();
    println!(
        "Extreme workload, fluid engine, {} seeds; task footprints 3–30 MB \
         (1.5 MB per second of sequential work).",
        SEEDS.len()
    );
    println!();

    let intra_mean = measure(PolicyKind::IntraOnly, f64::INFINITY);
    println!("INTRA-ONLY baseline (memory-independent: one task at a time): {intra_mean:6.2} s");
    println!();
    header(&["machine memory", "INTER-W/-ADJ elapsed (s)", "win vs INTRA-ONLY"]);
    for budget in [f64::INFINITY, 64.0 * MB, 40.0 * MB, 24.0 * MB, 12.0 * MB, 4.0 * MB] {
        let t = measure(PolicyKind::InterWithAdj, budget);
        let label = if budget.is_infinite() {
            "unconstrained".to_string()
        } else {
            format!("{:4.0} MB", budget / MB)
        };
        row(&[label, format!("{t:6.2}"), format!("{:+5.1}%", 100.0 * (1.0 - t / intra_mean))]);
    }
    println!();
    println!(
        "With plenty of memory every worthwhile pair runs; as the budget shrinks the \
         scheduler first substitutes smaller partners, then runs tasks one at a time — \
         the elapsed time converges to the INTRA-ONLY baseline instead of thrashing."
    );
}

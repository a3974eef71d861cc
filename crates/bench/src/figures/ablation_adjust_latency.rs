//! Ablation: cost of the adjustment protocol.
//!
//! The paper's adjustment mechanism is viable *because* shared-memory
//! message rounds are cheap. This harness sweeps the protocol latency from
//! free to shared-nothing-network territory and measures INTER-W/-ADJ on
//! the Extreme workload; as the protocol gets slower its advantage decays
//! toward (and past) the no-adjustment variant.

use xprs::{PolicyKind, XprsSystem};
use xprs_workload::WorkloadKind;

use crate::{header, mean, row, Engine, SEEDS};

/// Mean elapsed time of the Extreme workload under `policy` on the DES
/// with protocol rounds of `latency` seconds.
fn measure(sys: &XprsSystem, policy: PolicyKind, latency: f64) -> f64 {
    mean(&Engine::Des(latency).elapsed(sys, WorkloadKind::Extreme, policy, &SEEDS))
}

/// Print the figure.
pub fn print() {
    let sys = XprsSystem::paper_default();
    println!("# Ablation — adjustment-protocol latency (Extreme workload, DES, {} seeds)", SEEDS.len());
    println!();

    let baseline = measure(&sys, PolicyKind::IntraOnly, 0.005);
    println!("INTRA-ONLY baseline: {baseline:6.2} s");
    println!();
    header(&["protocol latency", "INTER-W/-ADJ elapsed (s)", "win vs INTRA-ONLY"]);
    for latency in [0.0, 0.005, 0.05, 0.5, 2.0, 5.0] {
        let t = measure(&sys, PolicyKind::InterWithAdj, latency);
        row(&[
            format!("{:>7} ms", (latency * 1000.0) as u64),
            format!("{t:6.2}"),
            format!("{:+5.1}%", 100.0 * (1.0 - t / baseline)),
        ]);
    }
    println!();
    println!(
        "Shared-memory rounds (≤ 5 ms) leave the win intact. Rounds of seconds erode \
         it, though not monotonically: at 5 s the elapsed time is close to that of \
         pairing without adjustment (INTER-W/O-ADJ in fig7_schedulers), which is \
         nearly as fast on this mix. The adjustment pays only while its rounds are \
         short against a task — the paper's argument for why this design needs a \
         shared-memory machine."
    );
}

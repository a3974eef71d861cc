//! Ablation: the task-pairing heuristic.
//!
//! The paper pairs the *most* IO-bound with the *most* CPU-bound task so
//! later pairings stay near the diagonal, and suggests shortest-job-first
//! for multi-user response time. This harness compares MostExtreme, FIFO
//! and SJF on turnaround (batch) and mean response time (Poisson-ish
//! arrival stream), on the fluid engine.

use xprs::XprsSystem;
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::{MachineConfig, Pairing, SchedulePolicy, TaskProfile};
use xprs_workload::WorkloadKind;

use crate::{header, mean, paper_stream, row, Engine, SEEDS};

/// One table: each heuristic's mean elapsed and response time over the
/// arrivals `arrivals(seed)` draws, INTER-W/-ADJ in whole workers.
fn table(arrivals: impl Fn(u64) -> Vec<(TaskProfile, f64)>) {
    let sys = XprsSystem::paper_default();
    header(&["heuristic", "elapsed (s)", "mean response (s)"]);
    for (label, pairing) in [
        ("MostExtreme (paper)", Pairing::MostExtreme),
        ("FIFO", Pairing::Fifo),
        ("ShortestJobFirst", Pairing::ShortestJobFirst),
    ] {
        let policy = |m: &MachineConfig, _: bool| -> Box<dyn SchedulePolicy> {
            let mut cfg = AdaptiveConfig::with_adjustment(m.clone());
            cfg.pairing = pairing;
            Box::new(AdaptiveScheduler::new(cfg))
        };
        let runs = SEEDS.map(|s| Engine::Fluid.run(&sys, &policy, &arrivals(s)));
        row(&[
            label.to_string(),
            format!("{:6.2}", mean(&runs.map(|r| r.elapsed))),
            format!("{:6.2}", mean(&runs.map(|r| r.response))),
        ]);
    }
}

/// Print the figure.
pub fn print() {
    println!("# Ablation — pairing heuristic (INTER-W/-ADJ, fluid engine)");
    println!();
    println!("## Batch turnaround, Random workload (10 tasks at t = 0), mean over {} seeds", SEEDS.len());
    println!();
    table(|s| paper_stream(WorkloadKind::RandomMix, &[s], 0.0));
    println!();
    println!("## Multi-user stream: 20 tasks arriving every 1.5 s (queueing regime)");
    println!();
    table(|s| paper_stream(WorkloadKind::RandomMix, &[s, s + 1000], 1.5));
    println!();
    println!(
        "Expected shape: MostExtreme minimizes turnaround; SJF trades a little \
         turnaround for better mean response time in the stream setting."
    );
}

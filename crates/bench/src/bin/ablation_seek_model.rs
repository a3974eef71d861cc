//! Ablation: the Section 2.3 seek-interference correction.
//!
//! Plans balance points either with the corrected three-equation system or
//! naively against the constant nominal bandwidth `B = 240` io/s, and
//! measures both planners on the fluid model (fractional allocations) and
//! on the discrete-event machine (whole workers).

use xprs_bench::{header, mean, row, stddev};
use xprs_disk::{DiskParams, RelId};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::MachineConfig;
use xprs_sim::{SimConfig, SimTask, Simulator};
use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

fn policy(naive: bool, integral: bool) -> AdaptiveScheduler {
    let mut cfg = AdaptiveConfig::with_adjustment(MachineConfig::paper_default());
    cfg.naive_bandwidth = naive;
    cfg.integral = integral;
    AdaptiveScheduler::new(cfg)
}

fn run_des(kind: WorkloadKind, naive: bool, seeds: &[u64]) -> Vec<f64> {
    let params = DiskParams::paper_default();
    seeds
        .iter()
        .map(|&seed| {
            let tasks: Vec<(SimTask, f64)> = WorkloadGenerator::new()
                .generate(&WorkloadConfig::paper(kind, seed))
                .profiles()
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    let task = SimTask::from_profile(p, RelId(i as u64 + 1), &params);
                    (task.expect("paper profiles are realizable"), 0.0)
                })
                .collect();
            let mut p = policy(naive, true);
            Simulator::new(SimConfig::paper_default()).run(&mut p, &tasks).expect("sim").elapsed
        })
        .collect()
}

fn run_fluid(kind: WorkloadKind, naive: bool, seeds: &[u64]) -> Vec<f64> {
    let sim = FluidSim::new(MachineConfig::paper_default());
    seeds
        .iter()
        .map(|&seed| {
            let tasks = WorkloadGenerator::new()
                .generate(&WorkloadConfig::paper(kind, seed))
                .profiles();
            let mut p = policy(naive, false);
            sim.run(&mut p, &tasks).expect("sim").elapsed
        })
        .collect()
}

fn main() {
    let seeds: Vec<u64> = (1..=10).collect();
    println!("# Ablation — seek-interference-aware vs naive constant-B planning");
    println!();
    println!("Policy: INTER-W/-ADJ; {} seeds.", seeds.len());
    for (engine, runner) in [
        ("fluid model, fractional allocations", run_fluid as fn(WorkloadKind, bool, &[u64]) -> Vec<f64>),
        ("discrete-event simulator, whole workers", run_des),
    ] {
        println!();
        println!("## Engine: {engine}");
        println!();
        header(&["workload", "corrected planner (s)", "naive planner (s)", "naive penalty"]);
        for kind in [WorkloadKind::Extreme, WorkloadKind::RandomMix, WorkloadKind::AllIo] {
            let corrected = runner(kind, false, &seeds);
            let naive = runner(kind, true, &seeds);
            let (mc, mn) = (mean(&corrected), mean(&naive));
            row(&[
                kind.label().to_string(),
                format!("{mc:6.2} ±{:4.2}", stddev(&corrected)),
                format!("{mn:6.2} ±{:4.2}", stddev(&naive)),
                format!("{:+5.1}%", 100.0 * (mn / mc - 1.0)),
            ]);
        }
    }
    println!();
    println!(
        "Reading: the correction moves the balance point by one to two workers at mid \
         I/O-rate ratios. With only 8 processors the integral rounding usually lands \
         both planners on the same split, so the measured difference stays within a \
         few percent either way; the correction's real role is the step-4 \
         T_inter-vs-T_intra decision, where an uncorrected bandwidth estimate would \
         force pairings whose seek penalty eats the gain (see fig4_balance_point's \
         marginal-pair table). On a machine with more processors per disk the \
         allocation error itself would grow."
    );
}

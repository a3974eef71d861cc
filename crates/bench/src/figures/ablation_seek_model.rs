//! Ablation: the Section 2.3 seek-interference correction.
//!
//! Plans balance points either with the corrected three-equation system or
//! naively against the constant nominal bandwidth `B = 240` io/s, and
//! measures both planners on the fluid model (fractional allocations) and
//! on the discrete-event machine (whole workers).

use xprs::XprsSystem;
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::{MachineConfig, SchedulePolicy};
use xprs_workload::WorkloadKind;

use crate::{header, mean, row, stddev, Engine, SEEDS};

/// INTER-W/-ADJ planning against the constant nominal bandwidth when
/// `naive`, with the seek-interference correction otherwise.
fn planner(naive: bool) -> impl Fn(&MachineConfig, bool) -> Box<dyn SchedulePolicy> {
    move |m, integral| {
        let mut cfg = AdaptiveConfig::with_adjustment(m.clone());
        cfg.naive_bandwidth = naive;
        cfg.integral = integral;
        Box::new(AdaptiveScheduler::new(cfg))
    }
}

/// Print the figure.
pub fn print() {
    let sys = XprsSystem::paper_default();
    println!("# Ablation — seek-interference-aware vs naive constant-B planning");
    println!();
    println!("Policy: INTER-W/-ADJ; {} seeds.", SEEDS.len());
    for (name, engine) in [
        ("fluid model, fractional allocations", Engine::Fluid),
        ("discrete-event simulator, whole workers", Engine::des()),
    ] {
        println!();
        println!("## Engine: {name}");
        println!();
        header(&["workload", "corrected planner (s)", "naive planner (s)", "naive penalty"]);
        for kind in [WorkloadKind::Extreme, WorkloadKind::RandomMix, WorkloadKind::AllIo] {
            let corrected = engine.elapsed(&sys, kind, planner(false), &SEEDS);
            let naive = engine.elapsed(&sys, kind, planner(true), &SEEDS);
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

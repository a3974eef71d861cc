//! The continuous-sequence extension (end of Section 2.5): `S_io` and
//! `S_cpu` act as queues, so the same algorithm serves an endless multi-user
//! task stream. This harness sweeps the arrival rate of a 30-task random-mix
//! stream and measures mean response time per policy on the DES — showing
//! the adaptive algorithm's advantage growing as the system saturates.

use xprs_bench::{header, mean, row};
use xprs_disk::{DiskParams, RelId};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::{MachineConfig, Pairing, SchedulePolicy, TaskId, TaskProfile};
use xprs_sim::{SimConfig, SimTask, Simulator};
use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

/// Timed task arrivals plus their release times.
type Stream = (Vec<(SimTask, f64)>, Vec<(TaskId, f64)>);

/// A policy constructor for repeated runs.
type PolicyFactory = Box<dyn Fn() -> Box<dyn SchedulePolicy>>;

fn stream(seed: u64, inter_arrival: f64) -> Stream {
    let params = DiskParams::paper_default();
    let mut tasks: Vec<TaskProfile> = Vec::new();
    for chunk in 0..3u64 {
        let w = WorkloadGenerator::new()
            .generate(&WorkloadConfig::paper(WorkloadKind::RandomMix, seed + 100 * chunk));
        tasks.extend(w.profiles().into_iter().map(|mut t| {
            t.id = TaskId(t.id.0 + chunk * 10);
            t
        }));
    }
    let arrivals: Vec<(SimTask, f64)> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            (
                SimTask::from_profile(t.clone(), RelId(i as u64 + 1), &params)
                    .expect("paper profiles are realizable"),
                inter_arrival * i as f64,
            )
        })
        .collect();
    let releases = arrivals
        .iter()
        .map(|(t, at)| (t.profile.id, *at))
        .collect();
    (arrivals, releases)
}

fn main() {
    let m = MachineConfig::paper_default();
    let seeds: Vec<u64> = (1..=5).collect();
    println!("# Multi-user stream — throughput and response vs arrival rate (DES)");
    println!();
    println!("30 random-mix tasks arriving at a fixed interval; {} seeds.", seeds.len());
    println!();

    let policies: Vec<(&str, PolicyFactory)> = vec![
        ("INTRA-ONLY", {
            let m = m.clone();
            Box::new(move || Box::new(IntraOnly::new(m.clone(), true)) as Box<dyn SchedulePolicy>)
        }),
        ("W/-ADJ most-extreme", {
            let m = m.clone();
            Box::new(move || {
                Box::new(AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m.clone())))
                    as Box<dyn SchedulePolicy>
            })
        }),
        ("W/-ADJ SJF", {
            let m = m.clone();
            Box::new(move || {
                let mut cfg = AdaptiveConfig::with_adjustment(m.clone());
                cfg.pairing = Pairing::ShortestJobFirst;
                Box::new(AdaptiveScheduler::new(cfg)) as Box<dyn SchedulePolicy>
            })
        }),
    ];

    for (metric_name, want_elapsed) in
        [("total elapsed (throughput)", true), ("mean response", false)]
    {
        println!("## Metric: {metric_name} (s)");
        println!();
        header(&["inter-arrival (s)", "INTRA-ONLY", "W/-ADJ most-extreme", "W/-ADJ SJF"]);
        for inter_arrival in [6.0, 4.0, 2.5, 1.5, 0.8] {
            let mut cells = vec![format!("{inter_arrival:4.1}")];
            for (_, make) in &policies {
                let xs: Vec<f64> = seeds
                    .iter()
                    .map(|&s| {
                        let (arrivals, releases) = stream(s, inter_arrival);
                        let mut p = make();
                        let report = Simulator::new(SimConfig::paper_default())
                            .run(p.as_mut(), &arrivals)
                            .expect("sim");
                        if want_elapsed {
                            report.elapsed
                        } else {
                            report.mean_response_time(&releases)
                        }
                    })
                    .collect();
                cells.push(format!("{:7.2}", mean(&xs)));
            }
            row(&cells);
        }
        println!();
    }
    println!(
        "Reading: on throughput the pairing scheduler matches or beats the baseline at \
         every load. On *response time* under saturation, most-extreme pairing holds \
         long tasks in the machine and inflates the mean — which is exactly why the \
         paper prescribes shortest-job-first pairing for multi-user response: the SJF \
         column recovers ground against the baseline."
    );
}

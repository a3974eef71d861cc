//! # xprs-bench
//!
//! The paper's figures and tables and the ablations, one module each under
//! [`figures`], printed by name with `figures <name>…` (`src/bin/figures.rs`).
//! Each figure is deterministic, and its output is the generated block of
//! `docs/results/<name>.md`. They print what they measure and gate
//! nothing: the performance claims they illustrate are asserted by
//! release-mode tests (`crates/executor/tests/perf_gates.rs`,
//! `crates/service/tests/perf_service.rs`), and `benchmark/` is the
//! trajectory.
//!
//! | figure | reproduces |
//! |---|---|
//! | `fig3_classification` | Figure 3 — IO-bound vs CPU-bound task lines |
//! | `fig4_balance_point` | Figure 4 — the IO-CPU balance point |
//! | `protocol_trace` | Figures 5/6 — the dynamic adjustment protocols |
//! | `table_io_rates` | Section 3's task-rate table and disk-bandwidth measurements |
//! | `fig7_schedulers` | Figure 7 — the three algorithms × four workloads |
//! | `sec4_optimizer` | Section 4 — seqcost vs parcost plan choice |
//! | `multiquery_optimizer` | Section 5 — joint optimization of concurrent queries |
//! | `stream_response` | Section 2.5 — the algorithm on a continuous task stream |
//! | `ablation_pairing` | pairing heuristic ablation (most-extreme / FIFO / SJF) |
//! | `ablation_seek_model` | planning with vs without the seek-interference correction |
//! | `ablation_adjust_latency` | sensitivity to the adjustment-protocol latency |
//! | `ablation_two_tasks` | the "two tasks suffice" claim vs k-way co-scheduling |
//! | `ablation_memory` | Section 5 — memory-constrained pairing |

pub mod figures;

use xprs::{PolicyKind, XprsSystem};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::{MachineConfig, SchedulePolicy, TaskId, TaskProfile};
use xprs_sim::{SimConfig, Simulator};
use xprs_storage::{Schema, Tuple};
use xprs_workload::{Calibration, WorkloadConfig, WorkloadGenerator, WorkloadKind};

/// The seeds a figure averages over unless it says otherwise.
pub const SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Generate the paper workload `kind` for `seed`.
pub fn paper_workload(kind: WorkloadKind, seed: u64) -> Vec<TaskProfile> {
    WorkloadGenerator::new()
        .generate(&WorkloadConfig::paper(kind, seed))
        .profiles()
}

/// The paper workloads `kind` for `seeds`, one after another with task ids
/// renumbered to stay distinct, released `gap` seconds apart (all at t = 0
/// for a gap of 0).
pub fn paper_stream(kind: WorkloadKind, seeds: &[u64], gap: f64) -> Vec<(TaskProfile, f64)> {
    let mut tasks: Vec<TaskProfile> = Vec::new();
    for &seed in seeds {
        let first = tasks.len() as u64;
        tasks.extend(paper_workload(kind, seed).into_iter().map(|mut t| {
            t.id = TaskId(t.id.0 + first);
            t
        }));
    }
    tasks.into_iter().enumerate().map(|(i, t)| (t, gap * i as f64)).collect()
}

/// A policy built afresh for each run on machine `m`; `integral` asks for
/// whole workers (the DES) rather than fractional allocations (the fluid
/// model). A [`PolicyKind`] is one, and so is any closure of that shape.
pub trait Policy {
    /// The policy for one run.
    fn build(&self, m: &MachineConfig, integral: bool) -> Box<dyn SchedulePolicy>;
}

impl Policy for PolicyKind {
    fn build(&self, m: &MachineConfig, integral: bool) -> Box<dyn SchedulePolicy> {
        PolicyKind::build(self, m, integral)
    }
}

impl<F: Fn(&MachineConfig, bool) -> Box<dyn SchedulePolicy>> Policy for F {
    fn build(&self, m: &MachineConfig, integral: bool) -> Box<dyn SchedulePolicy> {
        self(m, integral)
    }
}

/// One run's elapsed time and mean response time, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Completion of the last task.
    pub elapsed: f64,
    /// Mean of each task's completion minus its release.
    pub response: f64,
}

/// The two measurement engines.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// The fluid model: the paper's cost arithmetic, fractional allocations.
    Fluid,
    /// The discrete-event machine, whole workers, with each adjustment
    /// protocol round taking this many seconds.
    Des(f64),
}

impl Engine {
    /// The DES at the paper machine's protocol latency.
    pub fn des() -> Engine {
        Engine::Des(SimConfig::paper_default().adjust_latency)
    }

    /// Run `arrivals`, `(task, release time)` pairs, under `policy` on
    /// `sys`'s machine.
    pub fn run(
        self,
        sys: &XprsSystem,
        policy: &(impl Policy + ?Sized),
        arrivals: &[(TaskProfile, f64)],
    ) -> Run {
        let releases: Vec<(TaskId, f64)> = arrivals.iter().map(|(t, at)| (t.id, *at)).collect();
        let m = sys.machine();
        match self {
            Engine::Fluid => {
                let mut p = policy.build(m, false);
                let sim = FluidSim::new(m.clone());
                let r = sim.run_with_arrivals(p.as_mut(), arrivals).expect("fluid run");
                Run { elapsed: r.elapsed, response: r.mean_response_time(&releases) }
            }
            Engine::Des(adjust_latency) => {
                let tasks = sys.sim_tasks(arrivals.iter().cloned());
                let tasks = tasks.expect("paper profiles are realizable");
                let mut p = policy.build(m, true);
                let cfg = SimConfig { machine: m.clone(), adjust_latency };
                let r = Simulator::new(cfg).run(p.as_mut(), &tasks).expect("DES run");
                Run { elapsed: r.elapsed, response: r.mean_response_time(&releases) }
            }
        }
    }

    /// Elapsed times of the paper workload `kind` under `policy`, one per seed.
    pub fn elapsed(
        self,
        sys: &XprsSystem,
        kind: WorkloadKind,
        policy: impl Policy,
        seeds: &[u64],
    ) -> Vec<f64> {
        let run = |s| self.run(sys, &policy, &paper_stream(kind, &[s], 0.0)).elapsed;
        seeds.iter().map(|&s| run(s)).collect()
    }
}

/// Run `kind` × `policy` on the DES over `seeds`, returning elapsed times.
pub fn des_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: impl Policy,
    seeds: &[u64],
) -> Vec<f64> {
    Engine::des().elapsed(sys, kind, policy, seeds)
}

/// Run `kind` × `policy` on the fluid model over `seeds`.
pub fn fluid_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: impl Policy,
    seeds: &[u64],
) -> Vec<f64> {
    Engine::Fluid.elapsed(sys, kind, policy, seeds)
}

/// A system on the paper machine whose catalog holds, for each
/// `(name, io_rate, n_tuples)`, a paper relation of keys `0..n_tuples` whose
/// `b` length makes it scan at `io_rate` io/s, indexed on `a`.
pub fn rate_catalog(rels: &[(&str, f64, u64)]) -> XprsSystem {
    let mut sys = XprsSystem::paper_default();
    let cal = Calibration::paper_default();
    for &(name, rate, n_tuples) in rels {
        let blen = cal.blen_for_rate(rate);
        let cat = sys.catalog_mut();
        cat.create(name, Schema::paper_rel());
        cat.load(name, (0..n_tuples).map(|i| Tuple::paper(i as i32, blen)));
        cat.build_index(name, false);
    }
    sys
}

/// Print a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn workload_helper_is_deterministic() {
        let a = paper_workload(WorkloadKind::Extreme, 3);
        let b = paper_workload(WorkloadKind::Extreme, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }
}

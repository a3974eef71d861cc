//! `sched_sim`: the scheduler core through its other two drivers. No
//! threads, no sleeps: one *job* takes a seeded task set through the DES
//! and the fluid model under all three paper policies and plans one
//! five-relation bushy join by `parcost`. Simulated results repeat exactly
//! for a seed; only host speed may move.

use std::time::Instant;

use super::{stage, Pass, Rng, SetupTimes, Stopwatch, Workload};
use crate::stats;
use crate::sut::{
    CatalogBuilder, Models, PlanChoice, PlanningQuery, Policy, SimOutcome, TaskSet, WorkloadKind,
};
use crate::trace::{Open, Tracer};

/// Latency limit of one job, for `within_limit_share`.
const LIMIT_MS: f64 = 12.0;
/// Task sets per run: sixteen of each paper kind.
const SETS: usize = 64;
pub const POLICIES: [Policy; 3] = [
    Policy::IntraOnly,
    Policy::InterWithoutAdj,
    Policy::InterWithAdj,
];
const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::AllCpu,
    WorkloadKind::AllIo,
    WorkloadKind::Extreme,
    WorkloadKind::RandomMix,
];
/// Model runs per job: DES and fluid under each policy.
const SIM_RUNS_PER_JOB: usize = 2 * POLICIES.len();

pub struct SchedSim {
    models: Models,
    pub sets: Vec<TaskSet>,
    pub planning: PlanningQuery,
}

/// Everything the models said about one task set, in a fixed order.
#[derive(Clone, PartialEq)]
struct SetResult {
    des: Vec<SimOutcome>,
    fluid: Vec<SimOutcome>,
    plan: (f64, f64, usize),
}

impl SchedSim {
    fn simulate(&self, set: &TaskSet) -> Result<(Vec<SimOutcome>, Vec<SimOutcome>), String> {
        let des = POLICIES
            .iter()
            .map(|&p| self.models.des(set, p))
            .collect::<Result<_, _>>()?;
        let fluid = POLICIES
            .iter()
            .map(|&p| self.models.fluid(set, p))
            .collect::<Result<_, _>>()?;
        Ok((des, fluid))
    }
}

fn plan_key(c: &PlanChoice) -> (f64, f64, usize) {
    (c.seqcost, c.parcost, c.fragments)
}

impl Workload for SchedSim {
    const NAME: &'static str = "sched_sim";

    fn setup(seed: u64, tr: &Tracer, parent: &Open<'_>) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let mut rng = Rng::new(seed ^ 0x5C4E);
        let sets = stage(tr, parent, "generate", &mut t.generate_s, || {
            (0..SETS)
                .map(|i| TaskSet::generate(KINDS[i % KINDS.len()], rng.next_u64() >> 16))
                .collect()
        });
        // Five relations mixing IO-heavy (fat) and CPU-heavy (thin) scans,
        // sized from the seed, for the planner to order.
        let specs: Vec<(String, u64, usize)> = [
            (2200u64, 5000usize),
            (42_000, 0),
            (1800, 4000),
            (35_000, 10),
            (9000, 300),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(n, blen))| (format!("plan_r{i}"), n * (90 + rng.below(21)) / 100, blen))
        .collect();
        let mut b = CatalogBuilder::new();
        stage(tr, parent, "load", &mut t.load_s, || {
            for (name, n, blen) in &specs {
                b.load(name, (0..*n).map(|k| (k as i32, *blen)));
            }
        });
        stage(tr, parent, "index", &mut t.index_s, || {
            for (name, _, _) in &specs {
                b.index(name);
            }
        });
        let db = b.finish();
        let planning = stage(tr, parent, "plan", &mut t.plan_s, || {
            let names: Vec<&str> = specs.iter().map(|s| s.0.as_str()).collect();
            PlanningQuery::chain(&db, &names)
        });
        (
            SchedSim {
                models: Models::paper(),
                sets,
                planning,
            },
            t,
        )
    }

    fn measure(&self, seconds: f64, _obs: bool, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut first: Vec<Option<SetResult>> = vec![None; self.sets.len()];
        let (mut sim_s, mut plan_ms) = (0.0f64, Vec::new());
        let mut sim_runs = 0u64;
        let whole = Stopwatch::start();
        let mut k = 0usize;
        // At least two cycles over the sets: the second is the check that
        // the simulated statistics repeat exactly in-process.
        while whole.wall_s() < seconds || k < 2 * self.sets.len() {
            let i = k % self.sets.len();
            let span = tr.is_on().then(|| tr.span("trial", None, Some(k as u64)));
            let t0 = Instant::now();
            let sims = {
                let _s = span
                    .as_ref()
                    .map(|p| tr.span("des.run+fluid.run", Some(p), Some(k as u64)));
                self.simulate(&self.sets[i])
            };
            let t1 = Instant::now();
            let plan = {
                let _s = span
                    .as_ref()
                    .map(|p| tr.span("optimize", Some(p), Some(k as u64)));
                self.planning.optimize_parcost()
            };
            let t2 = Instant::now();
            drop(span);
            k += 1;
            pass.attempted += 1;
            let (des, fluid) = match sims {
                Ok(r) => r,
                Err(e) => {
                    pass.fail(1, format!("job {k}: {e}"));
                    continue;
                }
            };
            let result = SetResult {
                des,
                fluid,
                plan: plan_key(&plan),
            };
            match &first[i] {
                None => first[i] = Some(result),
                Some(f) if *f != result => {
                    pass.fail(
                        1,
                        format!("job {k}: set {i} simulated differently the second time"),
                    );
                    continue;
                }
                Some(_) => {}
            }
            pass.ops += 1;
            pass.completed((t2 - t0).as_secs_f64() * 1e3, LIMIT_MS);
            sim_s += (t1 - t0).as_secs_f64();
            sim_runs += SIM_RUNS_PER_JOB as u64;
            plan_ms.push((t2 - t1).as_secs_f64() * 1e3);
        }
        let (wall, cpu) = whole.stop();
        pass.wall_s = wall;
        pass.cpu_s = cpu;
        pass.trial_ops_per_s.push(pass.ops as f64 / wall);

        // Simulated statistics over the fixed sets (first cycle): exact.
        let adj = POLICIES
            .iter()
            .position(|&p| p == Policy::InterWithAdj)
            .expect("policy listed");
        let intra = POLICIES
            .iter()
            .position(|&p| p == Policy::IntraOnly)
            .expect("policy listed");
        let done: Vec<(&TaskSet, &SetResult)> = self
            .sets
            .iter()
            .zip(&first)
            .filter_map(|(s, r)| Some((s, r.as_ref()?)))
            .collect();
        let makespans: Vec<f64> = done.iter().map(|(_, r)| r.des[adj].makespan).collect();
        let responses: Vec<f64> = done.iter().map(|(_, r)| r.des[adj].mean_response).collect();
        let mixed = |r: &&(&TaskSet, &SetResult)| {
            matches!(r.0.kind, WorkloadKind::Extreme | WorkloadKind::RandomMix)
        };
        let sum = |p: usize| {
            done.iter()
                .filter(mixed)
                .map(|(_, r)| r.des[p].makespan)
                .sum::<f64>()
        };
        pass.named = vec![
            ("sched.makespan_sim_s", stats::mean(&makespans)),
            ("sched.mean_response_sim_s", stats::mean(&responses)),
            ("sched.adj_gain", 1.0 - sum(adj) / sum(intra).max(1e-9)),
            ("sched.tasksets_per_s", sim_runs as f64 / sim_s.max(1e-9)),
            ("sched.plan_ms", stats::median(&plan_ms)),
            (
                "sched.latency_p95_ms",
                stats::percentile(&pass.latencies_ms, 95.0),
            ),
            ("sched.cpu_us_per_job", pass.cpu_us_per_op()),
        ];
        pass
    }
}

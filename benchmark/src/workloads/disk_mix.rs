//! `disk_mix`: the paper's §3 experiment on real threads. Ten selection
//! tasks (T = 2–20 s) are submitted at once under INTER-WITH-ADJ at 20×
//! scaled time, so wall time is disk and CPU sleeps: pairing, adjustment,
//! steal affinity and I/O sequentiality decide it, ns/tuple does not.
//!
//! One operation is a pair of task sets, an Extreme one then a RandomMix
//! one, and its latency is the two makespans together — the paper's own
//! figure of merit. A task's response time is no use as the operation's
//! latency: the ten finish anywhere between 0 and the makespan, and the
//! median of so wide a distribution moved 25 % between runs of the same
//! code, where one set's makespan repeats within 1 %.

use super::{stage, Pass, Rng, SetupTimes, Stopwatch, Workload};
use crate::stats;
use crate::sut::{
    machine_disks, machine_procs, plan_selection, run_once, CatalogBuilder, Db, Models, Planned,
    Policy, RunOutcome, Speed, TaskSet, WorkloadKind,
};
use crate::trace::{Open, Tracer};

/// Simulated seconds per wall second.
pub const SPEEDUP: f64 = 20.0;
/// Latency limit of one pair of sets, in simulated seconds, for
/// `within_limit_share`; a pair takes about 85.
const LIMIT_SIM_S: f64 = 120.0;
/// Pairs of task sets per run, gone through in turn: twice each in 45 s.
/// A pair's latency varies ±6 % with the seed even at nominal pages; the
/// median over five of them moved 3–6 % between ten seeds.
const PAIRS: usize = 5;
const KINDS: [WorkloadKind; 2] = [WorkloadKind::Extreme, WorkloadKind::RandomMix];
/// Expected pages of a paper task set of either kind (10 × 11 s × 37.5
/// io/s). Pages vary ±15–20 % from seed to seed and the disks' share of the
/// makespan with them; keeping only sets within [`PAGE_BAND`] of this makes
/// runs with different seeds comparable.
const NOMINAL_PAGES: f64 = 4125.0;
const PAGE_BAND: f64 = 0.025;

pub struct OneSet {
    pub set: TaskSet,
    queries: Vec<Planned>,
    /// Rows each task must return: every tuple of its relation.
    expected_rows: Vec<u64>,
}

pub struct DiskMix {
    db: Db,
    pub sets: Vec<OneSet>,
}

/// The next task set of `kind` from `rng` whose page count is nominal.
fn nominal_set(kind: WorkloadKind, rng: &mut Rng) -> TaskSet {
    loop {
        let set = TaskSet::generate(kind, rng.next_u64() >> 16);
        if (set.pages() as f64 / NOMINAL_PAGES - 1.0).abs() <= PAGE_BAND {
            return set;
        }
    }
}

impl DiskMix {
    /// Run one set under `policy`. An error, a page still pinned or a task
    /// with the wrong row count fails the whole set.
    pub fn run_set(&self, i: usize, policy: Policy, obs: bool) -> Result<RunOutcome, String> {
        let s = &self.sets[i];
        let out = run_once(&self.db, &s.queries, policy, Speed::Scaled(SPEEDUP), obs)
            .map_err(|e| format!("set {i}: {e}"))?;
        if out.pinned_at_exit != 0 {
            return Err(format!(
                "set {i}: {} pages still pinned at exit",
                out.pinned_at_exit
            ));
        }
        for (q, (&rows, &want)) in out.rows.iter().zip(&s.expected_rows).enumerate() {
            if rows != want {
                return Err(format!(
                    "set {i} task {q}: {rows} rows, relation holds {want}"
                ));
            }
        }
        Ok(out)
    }

    /// DES makespan of set `i` under INTER-WITH-ADJ, for the fidelity ratio.
    pub fn des_makespan(&self, i: usize) -> f64 {
        Models::paper()
            .des(&self.sets[i].set, Policy::InterWithAdj)
            .map_or(0.0, |o| o.makespan)
    }
}

impl Workload for DiskMix {
    const NAME: &'static str = "disk_mix";

    fn setup(seed: u64, tr: &Tracer, parent: &Open<'_>) -> (Self, SetupTimes) {
        let mut t = SetupTimes::default();
        let sets: Vec<TaskSet> = stage(tr, parent, "generate", &mut t.generate_s, || {
            let mut rng = Rng::new(seed ^ 0xD15C);
            (0..PAIRS * KINDS.len())
                .map(|i| nominal_set(KINDS[i % KINDS.len()], &mut rng))
                .collect()
        });
        let mut b = CatalogBuilder::new();
        stage(tr, parent, "load", &mut t.load_s, || {
            for s in &sets {
                b.load_task_set(s);
            }
        });
        let db = b.finish();
        let sets = stage(tr, parent, "plan", &mut t.plan_s, || {
            sets.into_iter()
                .map(|set| {
                    let rels = set.relations();
                    OneSet {
                        queries: rels
                            .iter()
                            .map(|(r, _)| plan_selection(&db, r, (i32::MIN, i32::MAX)))
                            .collect(),
                        expected_rows: rels
                            .iter()
                            .map(|(r, _)| db.scan_count(r, i32::MIN, i32::MAX))
                            .collect(),
                        set,
                    }
                })
                .collect()
        });
        (DiskMix { db, sets }, t)
    }

    fn measure(&self, seconds: f64, obs: bool, tr: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut totals = MixTotals::default();
        let whole = Stopwatch::start();
        let (mut k, mut pair_s) = (0usize, 0.0f64);
        // Another pair starts only while most of it fits in the time asked for.
        while k < 2 || whole.wall_s() + 0.5 * pair_s < seconds {
            let span = tr.span("trial", None, Some(k as u64));
            let first = KINDS.len() * (k % PAIRS);
            let outs: Result<Vec<RunOutcome>, String> = (first..first + KINDS.len())
                .map(|i| {
                    let _s = tr.span("executor.run", Some(&span), Some(i as u64));
                    self.run_set(i, Policy::InterWithAdj, obs)
                })
                .collect();
            drop(span);
            k += 1;
            pass.attempted += 1;
            match outs {
                Ok(outs) => {
                    pair_s = outs.iter().map(|o| o.wall).sum();
                    pass.completed(pair_s * 1e3, LIMIT_SIM_S / SPEEDUP * 1e3);
                    pass.ops += 1;
                    pass.trial_ops_per_s.push(1.0 / pair_s.max(1e-9));
                    for out in &outs {
                        pass.cpu_s += out.cpu_s;
                        totals.add(out);
                    }
                }
                Err(why) => pass.fail(1, why),
            }
        }
        pass.wall_s = whole.wall_s();
        pass.named = totals.named();
        pass.named.push((
            "mix.cpu_us_per_task",
            pass.cpu_s / totals.responses.len().max(1) as f64 * 1e6,
        ));
        pass
    }
}

/// Sums over the task sets a pass ran, reduced to the per-layer metrics.
#[derive(Default)]
pub struct MixTotals {
    makespans: Vec<f64>,
    responses: Vec<f64>,
    units: u64,
    heartbeats: u64,
    adjusts: u64,
    steals: u64,
    steal_fails: u64,
    gate_waits: u64,
    disk: [u64; 3],
    disk_busy: f64,
    cpu_busy: f64,
}

impl MixTotals {
    /// Fold one set's outcome into the totals.
    pub fn add(&mut self, out: &RunOutcome) {
        self.responses
            .extend(out.finished_at.iter().map(|f| f * SPEEDUP));
        self.makespans.push(out.wall * SPEEDUP);
        self.units += out.units;
        self.heartbeats += out.heartbeats;
        self.adjusts += out.adjusts;
        self.steals += out.steals;
        self.steal_fails += out.steal_fails;
        self.gate_waits += out.gate_waits;
        for c in 0..3 {
            self.disk[c] += out.disk_counts[c];
        }
        self.disk_busy += out.disk_busy_sim_s;
        self.cpu_busy += out.cpu_busy_sim_s;
    }

    pub fn named(&self) -> Vec<(&'static str, f64)> {
        let ios = self.disk.iter().sum::<u64>().max(1) as f64;
        let sets = self.makespans.len().max(1) as f64;
        let sim_total = self.makespans.iter().sum::<f64>().max(1e-9);
        vec![
            ("mix.makespan_sim_s", stats::mean(&self.makespans)),
            ("mix.mean_response_sim_s", stats::mean(&self.responses)),
            (
                "mix.tasks_per_s",
                self.responses.len() as f64 * SPEEDUP / sim_total,
            ),
            ("disk.seq_share", self.disk[0] as f64 / ios),
            ("disk.almost_seq_share", self.disk[1] as f64 / ios),
            ("disk.random_share", self.disk[2] as f64 / ios),
            (
                "disk.util",
                self.disk_busy / (f64::from(machine_disks()) * sim_total),
            ),
            ("disk.io_per_sim_s", ios / sim_total),
            (
                "mix.cpu_util",
                self.cpu_busy / (f64::from(machine_procs()) * sim_total),
            ),
            ("mix.gate_waits", self.gate_waits as f64 / sets),
            ("steal.steals", self.steals as f64 / sets),
            ("steal.steal_fails", self.steal_fails as f64 / sets),
            (
                "master.heartbeats_per_unit",
                self.heartbeats as f64 / self.units.max(1) as f64,
            ),
            ("master.adjusts", self.adjusts as f64 / sets),
        ]
    }
}

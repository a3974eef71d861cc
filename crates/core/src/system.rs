//! The `XprsSystem` facade.

use std::sync::Arc;

use xprs_executor::{ExecConfig, ExecError, ExecReport, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, OptError, OptimizedQuery, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::fluid::{FluidResult, FluidSim};
use xprs_scheduler::intra::IntraOnly;
use xprs_scheduler::{MachineConfig, SchedError, SchedulePolicy, TaskProfile};
use xprs_sim::{SimConfig, SimError, SimReport, SimTask, Simulator};
use xprs_storage::Catalog;
use xprs_workload::GeneratedWorkload;

/// The three scheduling algorithms of the paper's Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// One task at a time, intra-operation parallelism only.
    IntraOnly,
    /// Inter-operation pairing, no dynamic adjustment.
    InterWithoutAdj,
    /// The paper's proposal: pairing plus dynamic adjustment.
    InterWithAdj,
}

impl PolicyKind {
    /// All three, in the paper's comparison order.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::IntraOnly, PolicyKind::InterWithoutAdj, PolicyKind::InterWithAdj]
    }

    /// Display label matching Figure 7.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::IntraOnly => "INTRA-ONLY",
            PolicyKind::InterWithoutAdj => "INTER-W/O-ADJ",
            PolicyKind::InterWithAdj => "INTER-W/-ADJ",
        }
    }

    /// Instantiate the policy for machine `m`. `integral` selects whole
    /// workers (execution engines) vs fractional allocations (analysis).
    pub fn build(&self, m: &MachineConfig, integral: bool) -> Box<dyn SchedulePolicy> {
        match self {
            PolicyKind::IntraOnly => Box::new(IntraOnly::new(m.clone(), integral)),
            PolicyKind::InterWithoutAdj => {
                let mut cfg = AdaptiveConfig::without_adjustment(m.clone());
                cfg.integral = integral;
                Box::new(AdaptiveScheduler::new(cfg))
            }
            PolicyKind::InterWithAdj => {
                let mut cfg = AdaptiveConfig::with_adjustment(m.clone());
                cfg.integral = integral;
                Box::new(AdaptiveScheduler::new(cfg))
            }
        }
    }
}

/// The assembled system: machine + catalog + optimizer.
pub struct XprsSystem {
    machine: MachineConfig,
    catalog: Catalog,
    optimizer: TwoPhaseOptimizer,
}

impl XprsSystem {
    /// A system on the paper's machine with an empty catalog.
    pub fn paper_default() -> Self {
        Self::new(MachineConfig::paper_default())
    }

    /// A system on machine `m`.
    pub fn new(m: MachineConfig) -> Self {
        let mut optimizer = TwoPhaseOptimizer::paper_default();
        optimizer.machine = m.clone();
        optimizer.model.machine = m.clone();
        XprsSystem {
            catalog: Catalog::new(xprs_disk::StripedLayout::new(m.n_disks)),
            machine: m,
            optimizer,
        }
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// Mutable catalog access (create/load relations, build indexes).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Read-only catalog access.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The two-phase optimizer (mutable for shape/beam experiments).
    pub fn optimizer_mut(&mut self) -> &mut TwoPhaseOptimizer {
        &mut self.optimizer
    }

    /// Load a generated workload's relations into the catalog.
    pub fn load_workload(&mut self, w: &GeneratedWorkload) {
        w.load_into(&mut self.catalog);
    }

    /// Optimize a query against the catalog.
    ///
    /// # Errors
    /// Propagates the typed [`OptError`] when the query names a relation
    /// the catalog lacks or no plan exists.
    pub fn optimize(&self, q: &Query, costing: Costing) -> Result<OptimizedQuery, OptError> {
        self.optimizer.optimize_catalog(&self.catalog, q, costing)
    }

    /// Jointly optimize several queries for multi-user response time (the
    /// Section 5 extension): each query's plan is chosen to minimize the
    /// elapsed time of *all* queries' fragments scheduled together. Returns
    /// the per-query plans and the joint estimate.
    ///
    /// # Errors
    /// Propagates the typed [`OptError`] for an empty batch, a query naming
    /// a relation the catalog lacks, or a query with no plan.
    pub fn optimize_joint(&self, queries: &[&Query]) -> Result<(Vec<OptimizedQuery>, f64), OptError> {
        let with_rels = queries
            .iter()
            .map(|q| Ok((*q, self.optimizer.try_rel_infos(&self.catalog, q)?)))
            .collect::<Result<Vec<_>, OptError>>()?;
        self.optimizer.optimize_joint(&with_rels)
    }

    /// Derive concrete selection ranges realizing each relation's
    /// selectivity: the query keeps the lowest `selectivity` fraction of the
    /// key domain.
    ///
    /// # Errors
    /// [`OptError::InvalidQuery`] when `q` names a relation the catalog
    /// lacks.
    pub fn bindings(&self, q: &Query) -> Result<Vec<RelBinding>, OptError> {
        q.rels
            .iter()
            .map(|r| {
                let rel = self.catalog.get(&r.name).ok_or_else(|| {
                    OptError::InvalidQuery(format!("relation {} not in catalog", r.name))
                })?;
                let s = rel.stats();
                let (lo, top) = (i64::from(s.min_a), i64::from(s.max_a));
                let hi = if r.selectivity >= 1.0 {
                    s.max_a
                } else {
                    let hi = lo + ((top - lo) as f64 * r.selectivity).round() as i64;
                    hi.clamp(lo, top) as i32
                };
                Ok(RelBinding { name: r.name.clone(), pred: (s.min_a, hi) })
            })
            .collect()
    }

    /// Estimate a task set's elapsed time with the fluid model.
    ///
    /// # Errors
    /// Propagates the typed [`SchedError`] when the policy misbehaves
    /// (diverges, wedges, or issues an invalid action).
    pub fn estimate(
        &self,
        tasks: &[TaskProfile],
        policy: PolicyKind,
    ) -> Result<FluidResult, SchedError> {
        let mut p = policy.build(&self.machine, false);
        FluidSim::new(self.machine.clone()).run(p.as_mut(), tasks)
    }

    /// Measure a task set on the discrete-event simulator. Each profile
    /// becomes a physical scan of its own relation.
    ///
    /// # Errors
    /// Propagates [`SimError`] — the typed scheduler failure plus the
    /// partial statistics up to the failure instant. A profile no disk
    /// stream can realize is refused before anything runs, with an empty
    /// partial report.
    pub fn simulate(
        &self,
        tasks: &[TaskProfile],
        policy: PolicyKind,
    ) -> Result<SimReport, SimError> {
        let sim_tasks = self
            .sim_tasks(tasks.iter().map(|t| (t.clone(), 0.0)))
            .map_err(|source| SimError { source, partial: Box::default() })?;
        let mut p = policy.build(&self.machine, true);
        Simulator::new(SimConfig { machine: self.machine.clone(), ..SimConfig::paper_default() })
            .run(p.as_mut(), &sim_tasks)
    }

    /// The DES tasks of timed `arrivals`, `(profile, release time)` pairs:
    /// profile `i` becomes a physical scan of relation `i + 1` on this
    /// machine's disks.
    ///
    /// # Errors
    /// [`SchedError::InvalidProfile`] for a profile no disk stream can
    /// realize.
    pub fn sim_tasks(
        &self,
        arrivals: impl IntoIterator<Item = (TaskProfile, f64)>,
    ) -> Result<Vec<(SimTask, f64)>, SchedError> {
        let m = &self.machine;
        let params = xprs_disk::DiskParams::from_rates(m.seq_bw, m.almost_seq_bw, m.random_bw);
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, (t, at))| {
                Ok((SimTask::from_profile(t, xprs_disk::RelId(i as u64 + 1), &params)?, at))
            })
            .collect()
    }

    /// Execute optimized queries on the threaded engine.
    ///
    /// # Errors
    /// Propagates [`ExecError`] — worker panics, channel failures and typed
    /// scheduler misbehaviour — with all workers drained first.
    pub fn execute(
        &self,
        runs: &[(OptimizedQuery, Vec<RelBinding>)],
        policy: PolicyKind,
        speedup: Option<f64>,
    ) -> Result<ExecReport, ExecError> {
        let cfg = match speedup {
            None => ExecConfig::unthrottled(),
            Some(s) => ExecConfig::scaled(s),
        };
        let cfg = ExecConfig { machine: self.machine.clone(), ..cfg };
        let exec = Executor::new(cfg, Arc::new(self.catalog.clone()));
        let runs: Vec<QueryRun> = runs
            .iter()
            .map(|(o, b)| QueryRun { optimized: o.clone(), bindings: b.clone() })
            .collect();
        let mut p = policy.build(&self.machine, true);
        exec.run(&runs, p.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_scheduler::{IoKind, TaskId};
    use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

    fn profiles() -> Vec<TaskProfile> {
        vec![
            TaskProfile::new(TaskId(0), 10.0, 65.0, IoKind::Sequential),
            TaskProfile::new(TaskId(1), 10.0, 8.0, IoKind::Sequential),
        ]
    }

    #[test]
    fn policy_kinds_build_their_named_policies() {
        let m = MachineConfig::paper_default();
        for kind in PolicyKind::all() {
            let p = kind.build(&m, true);
            match kind {
                PolicyKind::IntraOnly => assert_eq!(p.name(), "INTRA-ONLY"),
                PolicyKind::InterWithoutAdj => assert_eq!(p.name(), "INTER-WITHOUT-ADJ"),
                PolicyKind::InterWithAdj => assert_eq!(p.name(), "INTER-WITH-ADJ"),
            }
        }
    }

    #[test]
    fn estimate_and_simulate_agree_qualitatively() {
        let sys = XprsSystem::paper_default();
        let est_intra = sys.estimate(&profiles(), PolicyKind::IntraOnly).expect("fluid").elapsed;
        let est_adj = sys.estimate(&profiles(), PolicyKind::InterWithAdj).expect("fluid").elapsed;
        assert!(est_adj < est_intra);
        let sim_intra = sys.simulate(&profiles(), PolicyKind::IntraOnly).expect("sim").elapsed;
        let sim_adj = sys.simulate(&profiles(), PolicyKind::InterWithAdj).expect("sim").elapsed;
        assert!(sim_adj < sim_intra);
    }

    #[test]
    fn simulating_an_unrealizable_profile_is_a_typed_error() {
        let sys = XprsSystem::paper_default();
        let mut tasks = profiles();
        tasks[1].io_rate = 500.0; // no disk stream delivers 500 io/s
        let err = sys.simulate(&tasks, PolicyKind::InterWithAdj).expect_err("refused");
        assert!(
            matches!(err.source, SchedError::InvalidProfile { task: TaskId(1), field: "io_rate", .. }),
            "{err}"
        );
        assert!(err.partial.task_times.is_empty(), "nothing ran");
    }

    #[test]
    fn optimizing_a_relation_the_catalog_lacks_is_a_typed_error() {
        let sys = XprsSystem::paper_default();
        let ghost = Query::selection("ghost", 1.0);
        let want = OptError::InvalidQuery("relation ghost not in catalog".into());
        assert_eq!(sys.optimize(&ghost, Costing::SeqCost).err(), Some(want.clone()));
        assert_eq!(sys.optimize_joint(&[&ghost]).err(), Some(want));
    }

    #[test]
    fn binding_a_relation_the_catalog_lacks_is_a_typed_error() {
        let mut sys = XprsSystem::paper_default();
        sys.catalog_mut().create("r", xprs_storage::Schema::paper_rel());
        let ghost = Query::selection("ghost", 1.0);
        let want = OptError::InvalidQuery("relation ghost not in catalog".into());
        assert_eq!(sys.bindings(&ghost).err(), Some(want));
        let known = sys.bindings(&Query::selection("r", 1.0)).expect("bindings");
        assert_eq!(known.len(), 1);
        assert_eq!(known[0].name, "r");
    }

    #[test]
    fn bindings_span_the_whole_key_domain_without_overflow() {
        use xprs_storage::{Datum, Schema, Tuple};
        let mut sys = XprsSystem::paper_default();
        let cat = sys.catalog_mut();
        cat.create("wide", Schema::paper_rel());
        cat.load("wide", [Tuple::paper(i32::MIN, 0), Tuple::paper(i32::MAX, 0)]);
        // A relation whose only row has a NULL key binds (0, 0), as an empty one does.
        cat.create("nulls", Schema::paper_rel());
        cat.load("nulls", [Tuple::from_values(vec![Datum::Null, Datum::Null])]);
        let pred = |rel: &str, sel: f64| sys.bindings(&Query::selection(rel, sel)).expect("bindings")[0].pred;
        assert_eq!(pred("wide", 0.5), (i32::MIN, 0));
        assert_eq!(pred("wide", 0.0), (i32::MIN, i32::MIN));
        assert_eq!(pred("wide", 1.0), (i32::MIN, i32::MAX));
        for sel in [0.0, 0.5, 1.0] {
            assert_eq!(pred("nulls", sel), (0, 0), "selectivity {sel}");
        }
    }

    #[test]
    fn end_to_end_workload_on_the_threaded_engine() {
        let w = WorkloadGenerator::new().generate(&WorkloadConfig {
            kind: WorkloadKind::Extreme,
            n_tasks: 4,
            length: xprs_workload::LengthModel::Tuples { min: 100, max: 800 },
            seed: 9,
        });
        let mut sys = XprsSystem::paper_default();
        sys.load_workload(&w);
        let runs: Vec<_> = w
            .tasks
            .iter()
            .map(|t| {
                let q = Query::selection(&t.relation, 1.0);
                let o = sys.optimize(&q, Costing::SeqCost).expect("plan");
                let b = sys.bindings(&q).expect("bindings");
                (o, b)
            })
            .collect();
        let report = sys.execute(&runs, PolicyKind::InterWithAdj, None).expect("exec");
        assert_eq!(report.results.len(), 4);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.rows.rows.len() as u64, w.tasks[i].n_tuples);
        }
        // A selection streams its result and holds nothing: the paper's
        // task sets run through admission without reserving, waiting or
        // spilling, whatever their size against the pool.
        let ledger = (report.mem_granted_pages, report.mem_grant_waits, report.spill_chunks);
        assert_eq!(ledger, (0, 0, 0), "(granted, waits, spill chunks)");
    }

    #[test]
    fn bindings_scale_with_selectivity() {
        let w = WorkloadGenerator::new().generate(&WorkloadConfig {
            kind: WorkloadKind::AllCpu,
            n_tasks: 1,
            length: xprs_workload::LengthModel::Tuples { min: 5000, max: 5000 },
            seed: 3,
        });
        let mut sys = XprsSystem::paper_default();
        sys.load_workload(&w);
        let full = Query::selection(&w.tasks[0].relation, 1.0);
        let half = Query::selection(&w.tasks[0].relation, 0.5);
        let bf = sys.bindings(&full).expect("bindings")[0].pred;
        let bh = sys.bindings(&half).expect("bindings")[0].pred;
        assert!(bh.1 < bf.1);
        assert_eq!(bh.0, bf.0);
    }
}

//! The two-phase optimization strategy, with the Section 4 extension.
//!
//! Phase one picks sequential plans at compile time; phase two parallelizes
//! the chosen plan at run time. \[HONG91\] ran phase one with `seqcost` over
//! left-deep trees. This paper keeps the two-phase scheme but, for
//! single-query response time, re-ranks bushy candidates by
//! `parcost(p, n) = T_n(F(p))` — the estimated elapsed time of the plan's
//! fragment DAG under the adaptive scheduler — because a bushy plan whose
//! independent fragments pair IO-bound with CPU-bound work can beat the
//! `seqcost`-optimal plan once inter-operation parallelism exists.

use xprs_scheduler::fluid::{tn_estimate_dag, tn_estimate_dags};
use xprs_scheduler::{FragmentDag, MachineConfig};
use xprs_storage::Catalog;

use crate::cost::{CostModel, RelInfo};
use crate::enumerate::{enumerate, PlanShape};
use crate::fragment::{decompose, FragmentSet};
use crate::plan::Plan;
use crate::query::Query;

/// Which cost function ranks complete plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Costing {
    /// Conventional: minimize total sequential work.
    SeqCost,
    /// Section 4: minimize estimated parallel response time `T_n(F(p))`.
    ParCost,
}

/// Why the optimizer could not produce a plan.
///
/// Until PR 7 these cases were `assert!`s inside [`TwoPhaseOptimizer`]: a
/// query whose join graph admits no cross-product-free plan, or an empty
/// joint-optimization batch, took the whole process down. They are now
/// typed errors the scheduler and executor fold into their own error
/// enums, so a bad query fails that query — not the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The query failed structural validation (no relations, a
    /// disconnected join graph, an out-of-range edge, a bad selectivity).
    InvalidQuery(String),
    /// Phase-one enumeration produced no complete plan.
    NoPlan,
    /// A joint-optimization batch contained no queries.
    EmptyBatch,
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::InvalidQuery(why) => write!(f, "invalid query: {why}"),
            OptError::NoPlan => write!(f, "enumeration produced no plan"),
            OptError::EmptyBatch => write!(f, "nothing to optimize: empty query batch"),
        }
    }
}

impl std::error::Error for OptError {}

/// The optimization result.
#[derive(Debug, Clone)]
pub struct OptimizedQuery {
    /// The chosen sequential plan.
    pub plan: Plan,
    /// Its conventional sequential cost, seconds.
    pub seqcost: f64,
    /// Its estimated parallel response time `T_n(F(p))`, seconds.
    pub parcost: f64,
    /// The phase-two decomposition into schedulable fragments.
    pub fragments: FragmentSet,
}

/// The optimizer: phase-one enumeration plus phase-two parallelization.
#[derive(Debug, Clone)]
pub struct TwoPhaseOptimizer {
    /// Machine the parallelizer plans for.
    pub machine: MachineConfig,
    /// Sequential cost model.
    pub model: CostModel,
    /// Tree shapes phase one may produce.
    pub shape: PlanShape,
    /// Candidates carried per relation subset when ranking by `parcost`
    /// (local pruning is unsound there); `SeqCost` ranking always uses 1.
    pub beam: usize,
}

impl TwoPhaseOptimizer {
    /// Paper-default optimizer: bushy trees, beam of 8 candidates.
    pub fn paper_default() -> Self {
        TwoPhaseOptimizer {
            machine: MachineConfig::paper_default(),
            model: CostModel::paper_default(),
            shape: PlanShape::Bushy,
            beam: 8,
        }
    }

    /// Extract per-relation statistics for `q` from the catalog.
    ///
    /// # Panics
    /// Panics if a referenced relation does not exist; [`Self::try_rel_infos`]
    /// returns that as an error instead.
    pub fn rel_infos(&self, cat: &Catalog, q: &Query) -> Vec<RelInfo> {
        self.try_rel_infos(cat, q).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Extract per-relation statistics for `q` from the catalog.
    ///
    /// # Errors
    /// [`OptError::InvalidQuery`] when `q` names a relation the catalog
    /// lacks.
    pub fn try_rel_infos(&self, cat: &Catalog, q: &Query) -> Result<Vec<RelInfo>, OptError> {
        q.rels
            .iter()
            .map(|r| {
                let rel = cat.get(&r.name).ok_or_else(|| {
                    OptError::InvalidQuery(format!("relation {} not in catalog", r.name))
                })?;
                let s = rel.stats();
                Ok(RelInfo {
                    n_tuples: s.n_tuples as f64,
                    n_blocks: s.n_blocks as f64,
                    n_distinct: s.n_distinct_a as f64,
                    selectivity: r.selectivity,
                    has_index: rel.index_on_a.is_some(),
                    clustered: rel.index_on_a.as_ref().is_some_and(|i| i.is_clustered()),
                })
            })
            .collect()
    }

    /// Optimize `q` (statistics in `rels`) ranking complete plans by
    /// `costing`. Returns the chosen plan with both cost figures and its
    /// fragment decomposition.
    ///
    /// # Errors
    /// [`OptError::NoPlan`] when enumeration produces no complete plan.
    pub fn optimize(
        &self,
        q: &Query,
        rels: &[RelInfo],
        costing: Costing,
    ) -> Result<OptimizedQuery, OptError> {
        q.validate().map_err(OptError::InvalidQuery)?;
        let beam = match costing {
            Costing::SeqCost => 1,
            Costing::ParCost => self.beam.max(1),
        };
        let candidates = enumerate(q, rels, &self.model, self.shape, beam);

        let mut best: Option<OptimizedQuery> = None;
        for cand in candidates {
            let fragments = decompose(&cand.plan, &cand.costed, 0);
            let parcost = tn_estimate_dag(&self.machine, &fragments.dag());
            let seqcost = cand.costed.cost.total_cost;
            let score = match costing {
                Costing::SeqCost => seqcost,
                Costing::ParCost => parcost,
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    let b_score = match costing {
                        Costing::SeqCost => b.seqcost,
                        Costing::ParCost => b.parcost,
                    };
                    score < b_score
                }
            };
            if better {
                best = Some(OptimizedQuery { plan: cand.plan, seqcost, parcost, fragments });
            }
        }
        best.ok_or(OptError::NoPlan)
    }

    /// Convenience: optimize against the catalog directly.
    ///
    /// # Errors
    /// [`OptError::InvalidQuery`] when `q` names a relation the catalog
    /// lacks, [`OptError::NoPlan`] when enumeration produces no complete
    /// plan.
    pub fn optimize_catalog(
        &self,
        cat: &Catalog,
        q: &Query,
        costing: Costing,
    ) -> Result<OptimizedQuery, OptError> {
        let rels = self.try_rel_infos(cat, q)?;
        self.optimize(q, &rels, costing)
    }

    /// Jointly optimize several queries for multi-user response: choose each
    /// query's plan to minimize the **joint** `T_n` of all queries' fragment
    /// DAGs scheduled together (the paper's Section 5 second future-work
    /// item), by coordinate descent over each query's candidate beam.
    ///
    /// Returns one [`OptimizedQuery`] per input, whose fragments carry
    /// globally-unique task ids (`query_index · 10_000 + fragment`), plus
    /// the joint elapsed-time estimate.
    ///
    /// # Errors
    /// [`OptError::EmptyBatch`] for an empty batch, [`OptError::NoPlan`]
    /// when any query in the batch admits no complete plan.
    pub fn optimize_joint(
        &self,
        queries: &[(&Query, Vec<RelInfo>)],
    ) -> Result<(Vec<OptimizedQuery>, f64), OptError> {
        if queries.is_empty() {
            return Err(OptError::EmptyBatch);
        }
        for (q, _) in queries {
            q.validate().map_err(OptError::InvalidQuery)?;
        }
        // Candidate beams per query, each candidate pre-decomposed, beside
        // its fragment DAG.
        let beams: Vec<Vec<(OptimizedQuery, FragmentDag)>> = queries
            .iter()
            .enumerate()
            .map(|(qi, (q, rels))| {
                enumerate(q, rels, &self.model, self.shape, self.beam.max(1))
                    .into_iter()
                    .map(|cand| {
                        let fragments = decompose(&cand.plan, &cand.costed, qi as u64 * 10_000);
                        let dag = fragments.dag();
                        let parcost = tn_estimate_dag(&self.machine, &dag);
                        let seqcost = cand.costed.cost.total_cost;
                        (OptimizedQuery { seqcost, plan: cand.plan, parcost, fragments }, dag)
                    })
                    .collect()
            })
            .collect();

        // Start from each query's solo parcost best.
        let mut chosen: Vec<usize> = Vec::with_capacity(beams.len());
        for beam in &beams {
            let best = beam
                .iter()
                .enumerate()
                .min_by(|(_, (a, _)), (_, (b, _))| a.parcost.total_cmp(&b.parcost))
                .map(|(i, _)| i)
                .ok_or(OptError::NoPlan)?;
            chosen.push(best);
        }

        let joint = |chosen: &[usize]| -> f64 {
            let dags: Vec<&FragmentDag> = chosen
                .iter()
                .enumerate()
                .map(|(qi, &ci)| &beams[qi][ci].1)
                .collect();
            tn_estimate_dags(&self.machine, &dags)
        };

        // Coordinate descent: re-pick each query's candidate holding the
        // others fixed, until a full pass changes nothing (≤ 3 passes).
        let mut best_joint = joint(&chosen);
        for _pass in 0..3 {
            let mut improved = false;
            for qi in 0..beams.len() {
                for ci in 0..beams[qi].len() {
                    if ci == chosen[qi] {
                        continue;
                    }
                    let mut trial = chosen.clone();
                    trial[qi] = ci;
                    let t = joint(&trial);
                    if t < best_joint - 1e-9 {
                        best_joint = t;
                        chosen = trial;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        let picked = chosen
            .into_iter()
            .enumerate()
            .map(|(qi, ci)| beams[qi][ci].0.clone())
            .collect();
        Ok((picked, best_joint))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels(specs: &[(f64, f64)]) -> Vec<RelInfo> {
        // (n_tuples, n_blocks) pairs; distinct fixed.
        specs
            .iter()
            .map(|&(t, b)| RelInfo {
                n_tuples: t,
                n_blocks: b,
                n_distinct: 1000.0,
                selectivity: 1.0,
                has_index: true,
                clustered: false,
            })
            .collect()
    }

    fn chain(n: usize) -> Query {
        let mut b = Query::join();
        for i in 0..n {
            b = b.rel(&format!("r{i}"), 1.0);
        }
        for i in 0..n - 1 {
            b = b.on(i, i + 1);
        }
        b.build()
    }

    fn opt() -> TwoPhaseOptimizer {
        TwoPhaseOptimizer::paper_default()
    }

    #[test]
    fn both_costings_produce_valid_plans() {
        let q = chain(4);
        // Mix of fat (few tuples/page ⇒ IO-bound scans) and thin relations.
        let rs = rels(&[(2_000.0, 2_000.0), (50_000.0, 700.0), (3_000.0, 3_000.0), (40_000.0, 600.0)]);
        for costing in [Costing::SeqCost, Costing::ParCost] {
            let o = opt().optimize(&q, &rs, costing).expect("plan");
            assert!(o.plan.validate(&q).is_ok());
            assert!(o.seqcost > 0.0 && o.parcost > 0.0);
            assert!(!o.fragments.fragments.is_empty());
        }
    }

    #[test]
    fn parcost_never_exceeds_seqcost_times_margin() {
        // Parallel execution of a plan cannot be slower than running it
        // sequentially (the scheduler can always fall back to one task at a
        // time at parallelism ≥ 1).
        let q = chain(3);
        let rs = rels(&[(10_000.0, 500.0), (20_000.0, 400.0), (5_000.0, 800.0)]);
        let o = opt().optimize(&q, &rs, Costing::SeqCost).expect("plan");
        assert!(
            o.parcost <= o.seqcost * 1.01,
            "parcost {} vs seqcost {}",
            o.parcost,
            o.seqcost
        );
    }

    #[test]
    fn parcost_choice_is_at_least_as_fast_as_seqcost_choice() {
        let q = chain(4);
        let rs = rels(&[(2_000.0, 2_000.0), (60_000.0, 800.0), (2_500.0, 2_500.0), (50_000.0, 700.0)]);
        let by_seq = opt().optimize(&q, &rs, Costing::SeqCost).expect("plan");
        let by_par = opt().optimize(&q, &rs, Costing::ParCost).expect("plan");
        assert!(
            by_par.parcost <= by_seq.parcost + 1e-9,
            "parcost ranking regressed: {} vs {}",
            by_par.parcost,
            by_seq.parcost
        );
    }

    #[test]
    fn left_deep_seqcost_matches_hong91_baseline_shape() {
        let mut o = opt();
        o.shape = PlanShape::LeftDeep;
        let q = chain(4);
        let rs = rels(&[(10_000.0, 500.0); 4]);
        let r = o.optimize(&q, &rs, Costing::SeqCost).expect("plan");
        assert!(r.plan.is_left_deep());
    }

    #[test]
    fn joint_optimization_never_loses_to_independent_choices() {
        // One IO-heavy query, one CPU-heavy query.
        let q1 = chain(2);
        let r1 = rels(&[(2_000.0, 2_000.0), (2_500.0, 2_500.0)]); // fat tuples
        let q2 = chain(2);
        let r2 = rels(&[(60_000.0, 800.0), (50_000.0, 700.0)]); // thin tuples
        let o = opt();
        let (plans, joint) =
            o.optimize_joint(&[(&q1, r1.clone()), (&q2, r2.clone())]).expect("plans");
        assert_eq!(plans.len(), 2);
        // Independent parcost choices, merged.
        let solo1 = {
            let mut oo = o.clone();
            oo.machine = o.machine.clone();
            let mut s = oo.optimize(&q1, &r1, Costing::ParCost).expect("plan");
            s.fragments = crate::fragment::decompose(
                &s.plan,
                &oo.model.cost_plan(&s.plan, &r1),
                0,
            );
            s
        };
        let solo2 = {
            let oo = o.clone();
            let mut s = oo.optimize(&q2, &r2, Costing::ParCost).expect("plan");
            s.fragments = crate::fragment::decompose(
                &s.plan,
                &oo.model.cost_plan(&s.plan, &r2),
                10_000,
            );
            s
        };
        let independent = xprs_scheduler::fluid::tn_estimate_dags(
            &o.machine,
            &[&solo1.fragments.dag(), &solo2.fragments.dag()],
        );
        assert!(
            joint <= independent + 1e-9,
            "joint {joint} must not lose to independently-chosen plans {independent}"
        );
        // Task ids are globally unique across the two queries.
        let ids: std::collections::HashSet<u64> = plans
            .iter()
            .flat_map(|p| p.fragments.fragments.iter().map(|f| f.profile.id.0))
            .collect();
        let total: usize = plans.iter().map(|p| p.fragments.fragments.len()).sum();
        assert_eq!(ids.len(), total);
    }

    #[test]
    fn disconnected_join_graph_is_a_typed_error_not_a_panic() {
        // Two relations, no join edge: no cross-product-free plan can
        // exist, and validation says so. This used to panic the process.
        let q = Query {
            rels: chain(2).rels,
            graph: crate::query::JoinGraph::new(),
        };
        let rs = rels(&[(1_000.0, 100.0), (1_000.0, 100.0)]);
        for costing in [Costing::SeqCost, Costing::ParCost] {
            let err = opt().optimize(&q, &rs, costing).expect_err("must not plan");
            assert!(matches!(err, OptError::InvalidQuery(_)), "got {err:?}");
        }
        // The same malformed query poisons a joint batch the same way.
        let err = opt().optimize_joint(&[(&q, rs)]).expect_err("must not plan");
        assert!(matches!(err, OptError::InvalidQuery(_)), "got {err:?}");
    }

    #[test]
    fn empty_joint_batch_is_a_typed_error() {
        assert_eq!(opt().optimize_joint(&[]).err(), Some(OptError::EmptyBatch));
        assert_eq!(OptError::EmptyBatch.to_string(), "nothing to optimize: empty query batch");
        assert_eq!(OptError::NoPlan.to_string(), "enumeration produced no plan");
    }

    #[test]
    fn a_relation_missing_from_the_catalog_is_a_typed_error_not_a_panic() {
        let cat = Catalog::new(xprs_disk::StripedLayout::new(4));
        let err = opt()
            .optimize_catalog(&cat, &Query::selection("ghost", 1.0), Costing::SeqCost)
            .expect_err("must not plan");
        assert_eq!(err, OptError::InvalidQuery("relation ghost not in catalog".into()));
    }

    #[test]
    fn catalog_integration_extracts_stats() {
        use xprs_disk::StripedLayout;
        use xprs_storage::{Datum, Schema, Tuple};
        let mut cat = Catalog::new(StripedLayout::new(4));
        cat.create("t", Schema::paper_rel());
        cat.load(
            "t",
            (0..500).map(|i| Tuple::from_values(vec![Datum::Int(i % 50), Datum::Text("x".repeat(100))])),
        );
        cat.build_index("t", false);
        let q = Query::selection("t", 0.2);
        let infos = opt().rel_infos(&cat, &q);
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].n_tuples, 500.0);
        assert_eq!(infos[0].n_distinct, 50.0);
        assert!(infos[0].has_index);
        assert_eq!(infos[0].selectivity, 0.2);
    }
}

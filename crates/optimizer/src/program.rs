//! A fragment's pipeline program: the vocabulary the optimizer's
//! [`decompose`](crate::fragment::decompose) emits and the executor runs.
//!
//! Every query in this reproduction joins on attribute `a`, so all `a`
//! values inside a joined tuple are equal; a pipeline row is therefore a
//! `(key, tuple)` pair and every join operator matches on `key`.

/// What drives a fragment's data parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Driver {
    /// Page-partitioned heap scan of a relation.
    PageScan {
        /// Query relation index.
        rel: usize,
    },
    /// Range-partitioned index scan of a relation.
    KeyScan {
        /// Query relation index.
        rel: usize,
    },
    /// Range-partitioned walk of a key domain (merge join whose inputs are
    /// all materialized); the domain is the intersection of the inputs'
    /// key ranges, resolved when the fragment starts.
    KeyDomain,
}

/// One operator applied to the pipeline stream, bottom-up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineOp {
    /// Probe the hash table of materialized fragment `dep`.
    ProbeHash {
        /// Fragment index of the build side.
        dep: usize,
    },
    /// Merge-join with the sorted rows of materialized fragment `dep`.
    MergeWith {
        /// Fragment index of the sorted side.
        dep: usize,
    },
    /// Nested-loop against the materialized rows of fragment `dep`
    /// (deliberately a linear scan per probe row — that is the operator).
    NestInner {
        /// Fragment index of the inner side.
        dep: usize,
    },
    /// Merge-join with a base index scan: per stream key, look up the
    /// relation's index and fetch the matching heap tuples (random I/O).
    MergeIndexed {
        /// Query relation index.
        rel: usize,
    },
}

impl PipelineOp {
    /// The fragment this op reads, if any.
    pub fn dep(&self) -> Option<usize> {
        match self {
            PipelineOp::ProbeHash { dep }
            | PipelineOp::MergeWith { dep }
            | PipelineOp::NestInner { dep } => Some(*dep),
            PipelineOp::MergeIndexed { .. } => None,
        }
    }
}

/// A fragment's pipeline: the partitioned driver and the operators each
/// driver row flows through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentProgram {
    /// The partitioned driver.
    pub driver: Driver,
    /// Operators applied to each driver row, in order.
    pub ops: Vec<PipelineOp>,
}

impl FragmentProgram {
    /// The fragment's producers — the fragments whose materialized output
    /// its ops read — in op order.
    pub fn deps(&self) -> impl Iterator<Item = usize> + '_ {
        self.ops.iter().filter_map(PipelineOp::dep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RelInfo};
    use crate::fragment::decompose;
    use crate::plan::Plan;

    fn scan(rel: usize) -> Box<Plan> {
        Box::new(Plan::SeqScan { rel })
    }

    fn rels(n: usize) -> Vec<RelInfo> {
        (0..n)
            .map(|_| RelInfo {
                n_tuples: 1000.0,
                n_blocks: 100.0,
                n_distinct: 100.0,
                selectivity: 1.0,
                has_index: true,
                clustered: false,
            })
            .collect()
    }

    fn iscan(rel: usize) -> Box<Plan> {
        Box::new(Plan::IndexScan { rel })
    }

    /// The pipeline programs of `plan`, in fragment order.
    fn programs(plan: &Plan, n_rels: usize) -> Vec<FragmentProgram> {
        let costed = CostModel::paper_default().cost_plan(plan, &rels(n_rels));
        decompose(plan, &costed, 0).fragments.into_iter().map(|f| f.program).collect()
    }

    #[test]
    fn scan_compiles_to_a_bare_driver() {
        let ps = programs(&Plan::SeqScan { rel: 0 }, 1);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].driver, Driver::PageScan { rel: 0 });
        assert!(ps[0].ops.is_empty());
    }

    #[test]
    fn hash_join_compiles_probe_pipeline() {
        let ps = programs(&Plan::HashJoin { build: scan(0), probe: scan(1) }, 2);
        assert_eq!(ps.len(), 2);
        // Program 0 is the build scan, program 1 probes it.
        assert_eq!(ps[1].ops, vec![PipelineOp::ProbeHash { dep: 0 }]);
        assert_eq!(ps[1].driver, Driver::PageScan { rel: 1 });
    }

    #[test]
    fn merge_of_index_scans_stays_in_one_fragment() {
        let ps = programs(&Plan::MergeJoin { left: iscan(0), right: iscan(1) }, 2);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].driver, Driver::KeyScan { rel: 0 });
        assert_eq!(ps[0].ops, vec![PipelineOp::MergeIndexed { rel: 1 }]);
    }

    #[test]
    fn merge_of_seq_scans_uses_a_key_domain_driver() {
        let ps = programs(&Plan::MergeJoin { left: scan(0), right: scan(1) }, 2);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[2].driver, Driver::KeyDomain);
        let merges = vec![PipelineOp::MergeWith { dep: 0 }, PipelineOp::MergeWith { dep: 1 }];
        assert_eq!(ps[2].ops, merges);
    }

    #[test]
    fn deep_pipeline_chains_probe_in_order() {
        // HJ(build=s0, probe=HJ(build=s1, probe=s2)): the probe pipeline
        // scans rel 2, probes the inner build then the outer build.
        let p = Plan::HashJoin {
            build: scan(0),
            probe: Box::new(Plan::HashJoin { build: scan(1), probe: scan(2) }),
        };
        let ps = programs(&p, 3);
        let root = ps.last().unwrap();
        assert_eq!(root.driver, Driver::PageScan { rel: 2 });
        // Inner probe happens before the outer probe.
        let probes = vec![PipelineOp::ProbeHash { dep: 1 }, PipelineOp::ProbeHash { dep: 0 }];
        assert_eq!(root.ops, probes);
        assert_eq!(ps[1].driver, Driver::PageScan { rel: 1 });
    }

    #[test]
    fn nestloop_materializes_inner() {
        let ps = programs(&Plan::NestLoop { outer: scan(0), inner: iscan(1) }, 2);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[1].ops, vec![PipelineOp::NestInner { dep: 0 }]);
        // Inner was an index scan fragment.
        assert_eq!(ps[0].driver, Driver::KeyScan { rel: 1 });
    }

    #[test]
    fn bushy_tree_alignment() {
        // (0 HJ 1) HJ (2 MJ 3 over index scans): the merge of index scans
        // drives the root, which then probes the inner join's table.
        let p = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: Box::new(Plan::MergeJoin { left: iscan(2), right: iscan(3) }),
        };
        let costed = CostModel::paper_default().cost_plan(&p, &rels(4));
        let fs = decompose(&p, &costed, 0);
        let ps: Vec<&FragmentProgram> = fs.fragments.iter().map(|f| &f.program).collect();
        assert_eq!(ps.len(), 3);
        assert_eq!(*ps[0], FragmentProgram { driver: Driver::PageScan { rel: 0 }, ops: vec![] });
        assert_eq!(ps[1].ops, vec![PipelineOp::ProbeHash { dep: 0 }]);
        assert_eq!(ps[2].driver, Driver::KeyScan { rel: 2 });
        assert_eq!(
            ps[2].ops,
            vec![PipelineOp::MergeIndexed { rel: 3 }, PipelineOp::ProbeHash { dep: 1 }]
        );
        assert_eq!(fs.fragments[2].n_nodes, 4, "root fuses two index scans, a merge and a probe");
    }
}

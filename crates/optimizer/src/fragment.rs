//! Plan-fragment decomposition.
//!
//! Plans are cut at **blocking edges** — edges where one operation must
//! consume its child's entire output before producing anything:
//!
//! * the *build* side of a hash join,
//! * the *inner* (materialized) side of a nested-loop join,
//! * any merge-join input that still needs sorting (an input already ordered
//!   on the join attribute, e.g. an index scan, pipelines straight in).
//!
//! Each maximal pipelineable region becomes one fragment — the paper's unit
//! of parallel execution ("task"). A fragment's sequential time `T_i` is the
//! sum of its member nodes' own costs, its I/O count `D_i` the sum of their
//! I/Os, and its I/O rate `C_i = D_i / T_i`, which is exactly what the
//! scheduler's balance-point machinery consumes. Each fragment also declares
//! what it **holds in shared memory while it runs** — the materialized
//! inputs it probes or merges, plus its own output iff a consumer fragment
//! will read it. The root of a query streams its result to the client and
//! holds none of it, so a single-fragment query declares 0. This is the
//! demand the paper's Section 5 memory-constrained scheduling reserves.

use xprs_scheduler::{FragmentDag, IoKind, TaskId, TaskProfile};

use crate::cost::Costed;
use crate::plan::Plan;

/// One plan fragment, ready to schedule.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Scheduler-facing profile (`T_i`, `C_i`, I/O kind).
    pub profile: TaskProfile,
    /// Estimated I/O count `D_i`.
    pub ios: f64,
    /// Number of plan nodes fused into this fragment.
    pub n_nodes: usize,
}

/// The decomposition result: fragments plus their dependency DAG.
#[derive(Debug, Clone)]
pub struct FragmentSet {
    /// Fragments, index-aligned with the DAG.
    pub fragments: Vec<Fragment>,
    /// Producer→consumer dependencies.
    pub dag: FragmentDag,
}

impl FragmentSet {
    /// Total estimated sequential work across fragments.
    pub fn total_seq_time(&self) -> f64 {
        self.fragments.iter().map(|f| f.profile.seq_time).sum()
    }
}

struct Builder {
    // Accumulators per fragment under construction.
    time: Vec<f64>,
    ios: Vec<f64>,
    random: Vec<bool>,
    nodes: Vec<usize>,
    deps: Vec<Vec<usize>>,
    /// Estimated bytes of the fragment root's materialized output.
    out_bytes: Vec<f64>,
}

impl Builder {
    fn fresh(&mut self) -> usize {
        self.time.push(0.0);
        self.ios.push(0.0);
        self.random.push(false);
        self.nodes.push(0);
        self.deps.push(Vec::new());
        self.out_bytes.push(0.0);
        self.time.len() - 1
    }

    /// Walk `plan`/`costed` attributing nodes to fragment `frag`; blocking
    /// children start fresh fragments that `frag` depends on.
    fn walk(&mut self, plan: &Plan, costed: &Costed, frag: usize) {
        if self.nodes[frag] == 0 {
            // First node walked is the fragment's root: its output is what
            // gets materialized for the consumer.
            self.out_bytes[frag] = costed.cost.out_rows * costed.cost.row_bytes;
        }
        self.time[frag] += costed.cost.own_cost;
        self.ios[frag] += costed.cost.own_ios;
        self.random[frag] |= costed.cost.random_io;
        self.nodes[frag] += 1;
        match plan {
            Plan::SeqScan { .. } | Plan::IndexScan { .. } => {}
            Plan::HashJoin { build, probe } => {
                let b = self.fresh();
                self.walk(build, &costed.children[0], b);
                self.deps[frag].push(b);
                self.walk(probe, &costed.children[1], frag);
            }
            Plan::NestLoop { outer, inner } => {
                let i = self.fresh();
                self.walk(inner, &costed.children[1], i);
                self.deps[frag].push(i);
                self.walk(outer, &costed.children[0], frag);
            }
            Plan::MergeJoin { left, right } => {
                for (child, costed_child) in [(left, &costed.children[0]), (right, &costed.children[1])] {
                    if matches!(&**child, Plan::IndexScan { .. }) {
                        // A base index scan delivers in key order and
                        // pipelines straight into the merge. (Deeper sorted
                        // subtrees are materialized instead — the executor
                        // partitions a fragment by one key domain, and this
                        // keeps the decomposition identical on both sides.)
                        self.walk(child, costed_child, frag);
                    } else {
                        let c = self.fresh();
                        self.walk(child, costed_child, c);
                        self.deps[frag].push(c);
                    }
                }
            }
        }
    }
}

/// Decompose a costed plan into schedulable fragments. Fragment task ids
/// start at `base_id` (so fragments of several queries can coexist in one
/// scheduling run).
pub fn decompose(plan: &Plan, costed: &Costed, base_id: u64) -> FragmentSet {
    let mut b = Builder {
        time: vec![],
        ios: vec![],
        random: vec![],
        nodes: vec![],
        deps: vec![],
        out_bytes: vec![],
    };
    let root = b.fresh();
    b.walk(plan, costed, root);

    // Emit in dependency order (children before parents). Because walk()
    // creates child fragments before filling them, a simple topological
    // emission by depth-first post-order over deps is needed.
    let n = b.time.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    fn visit(i: usize, deps: &[Vec<usize>], visited: &mut [bool], order: &mut Vec<usize>) {
        if visited[i] {
            return;
        }
        visited[i] = true;
        for &d in &deps[i] {
            visit(d, deps, visited, order);
        }
        order.push(i);
    }
    for i in 0..n {
        visit(i, &b.deps, &mut visited, &mut order);
    }
    let mut new_index = vec![0usize; n];
    for (new_i, &old_i) in order.iter().enumerate() {
        new_index[old_i] = new_i;
    }

    let mut fragments = Vec::with_capacity(n);
    let mut dag = FragmentDag::new();
    for &old_i in &order {
        // Guard against degenerate estimates: a fragment always costs some
        // time and issues at least a trickle of I/O (result delivery).
        let time = b.time[old_i].max(1e-6);
        let ios = b.ios[old_i];
        let rate = (ios / time).max(1e-3);
        let kind = if b.random[old_i] { IoKind::Random } else { IoKind::Sequential };
        // Memory held while running: every input table it probes or merges
        // with, plus its own output when a consumer will read it — every
        // fragment but the query root (a plan is a tree: one consumer each).
        let own = if old_i == root { 0.0 } else { b.out_bytes[old_i] };
        let memory = own + b.deps[old_i].iter().map(|&d| b.out_bytes[d]).sum::<f64>();
        let profile = TaskProfile::new(TaskId(base_id + fragments.len() as u64), time, rate, kind)
            .with_memory(memory);
        let deps: Vec<usize> = b.deps[old_i].iter().map(|&d| new_index[d]).collect();
        dag.add(profile.clone(), &deps);
        fragments.push(Fragment { profile, ios, n_nodes: b.nodes[old_i] });
    }
    FragmentSet { fragments, dag }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, RelInfo};

    fn rels(n: usize) -> Vec<RelInfo> {
        (0..n)
            .map(|i| RelInfo {
                n_tuples: 10_000.0 + 1000.0 * i as f64,
                n_blocks: 500.0,
                n_distinct: 1000.0,
                selectivity: 1.0,
                has_index: true,
                clustered: false,
            })
            .collect()
    }

    fn decompose_plan(plan: &Plan, n_rels: usize) -> FragmentSet {
        let m = CostModel::paper_default();
        let costed = m.cost_plan(plan, &rels(n_rels));
        decompose(plan, &costed, 0)
    }

    fn scan(rel: usize) -> Box<Plan> {
        Box::new(Plan::SeqScan { rel })
    }

    #[test]
    fn single_scan_is_one_fragment() {
        let fs = decompose_plan(&Plan::SeqScan { rel: 0 }, 1);
        assert_eq!(fs.fragments.len(), 1);
        assert_eq!(fs.dag.roots(), vec![0]);
        assert_eq!(fs.fragments[0].n_nodes, 1);
        assert_eq!(fs.fragments[0].profile.io_kind, IoKind::Sequential);
    }

    #[test]
    fn hash_join_splits_at_the_build_side() {
        let p = Plan::HashJoin { build: scan(0), probe: scan(1) };
        let fs = decompose_plan(&p, 2);
        // Two fragments: the build scan, and probe-scan+join fused.
        assert_eq!(fs.fragments.len(), 2);
        // One root (the build); the probe fragment depends on it.
        let roots = fs.dag.roots();
        assert_eq!(roots.len(), 1);
        let consumer = (0..2).find(|i| !roots.contains(i)).unwrap();
        assert_eq!(fs.dag.deps_of(consumer), &[roots[0]]);
        // The probe fragment fused two plan nodes (scan + join).
        assert_eq!(fs.fragments[consumer].n_nodes, 2);
    }

    #[test]
    fn merge_join_of_index_scans_is_fully_pipelined() {
        let p = Plan::MergeJoin {
            left: Box::new(Plan::IndexScan { rel: 0 }),
            right: Box::new(Plan::IndexScan { rel: 1 }),
        };
        let fs = decompose_plan(&p, 2);
        assert_eq!(fs.fragments.len(), 1, "sorted inputs pipeline into the merge");
        assert_eq!(fs.fragments[0].n_nodes, 3);
        assert_eq!(fs.fragments[0].profile.io_kind, IoKind::Random);
    }

    #[test]
    fn merge_join_of_seq_scans_blocks_both_sides() {
        let p = Plan::MergeJoin { left: scan(0), right: scan(1) };
        let fs = decompose_plan(&p, 2);
        assert_eq!(fs.fragments.len(), 3);
        // The join fragment depends on both scans.
        let join_frag = (0..3).find(|&i| fs.dag.deps_of(i).len() == 2).unwrap();
        assert_eq!(fs.dag.roots().len(), 2);
        assert!(fs.fragments[join_frag].n_nodes == 1);
    }

    #[test]
    fn bushy_plan_exposes_independent_fragments() {
        // (0 HJ 1) HJ (2 HJ 3): the two inner builds are independent roots —
        // exactly the inter-operation parallelism opportunity.
        let p = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: Box::new(Plan::HashJoin { build: scan(2), probe: scan(3) }),
        };
        let fs = decompose_plan(&p, 4);
        // Four fragments: scan 0; HJ(0,1) with its probe scan; scan 2; and
        // the top join fused with probe scan 3.
        assert_eq!(fs.fragments.len(), 4);
        assert_eq!(fs.dag.roots().len(), 2, "two independent build fragments");
    }

    #[test]
    fn fragment_times_partition_the_seqcost() {
        let p = Plan::HashJoin {
            build: Box::new(Plan::MergeJoin { left: scan(0), right: scan(1) }),
            probe: scan(2),
        };
        let m = CostModel::paper_default();
        let costed = m.cost_plan(&p, &rels(3));
        let fs = decompose(&p, &costed, 100);
        assert!((fs.total_seq_time() - costed.cost.total_cost).abs() < 1e-6);
        // Base ids respected.
        assert!(fs.fragments.iter().all(|f| f.profile.id.0 >= 100));
    }

    #[test]
    fn fragment_memory_accounts_for_held_tables() {
        let memory = |fs: &FragmentSet| -> Vec<f64> {
            fs.fragments.iter().map(|f| f.profile.memory).collect()
        };
        // A lone selection streams its result: it holds nothing.
        assert_eq!(memory(&decompose_plan(&Plan::SeqScan { rel: 0 }, 1)), [0.0]);

        // HJ(build = scan 0, probe = scan 1): the build holds its output (a
        // consumer reads it); the probe root holds exactly the build table.
        let p = Plan::HashJoin { build: scan(0), probe: scan(1) };
        let m = memory(&decompose_plan(&p, 2));
        assert!(m[0] > 0.0);
        assert_eq!(m[1], m[0], "the root declares the build table and none of its own output");

        // HJ(build = HJ(0, 1), probe = scan 2): the inner join is not the
        // root, so it declares the table it probes *and* the output it
        // materializes for the top join, which in turn holds only that.
        let p = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: scan(2),
        };
        let m = memory(&decompose_plan(&p, 3));
        assert!(m[1] > m[0], "inner join holds scan 0's table ({}) plus its own output", m[0]);
        assert_eq!(m[2], m[1] - m[0], "the root holds the inner join's output only");
    }

    #[test]
    fn dag_emission_is_topological() {
        let p = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: scan(2),
        };
        let fs = decompose_plan(&p, 3);
        for i in 0..fs.fragments.len() {
            for &d in fs.dag.deps_of(i) {
                assert!(d < i, "dependency {d} of {i} must be emitted first");
            }
        }
    }
}

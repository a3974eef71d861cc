//! Plan-fragment decomposition: the one place a plan is cut.
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
//!
//! The same walk emits each fragment's [`FragmentProgram`] — a partitioned
//! driver followed by operators over the materialized outputs of earlier
//! fragments — so the fragment set the optimizer costs is the one the
//! executor runs, and a fragment's producers are the fragments its ops
//! read.

use xprs_scheduler::{FragmentDag, IoKind, TaskId, TaskProfile};

use crate::cost::Costed;
use crate::plan::Plan;
use crate::program::{Driver, FragmentProgram, PipelineOp};

/// One plan fragment, ready to schedule and to run.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Scheduler-facing profile (`T_i`, `C_i`, I/O kind).
    pub profile: TaskProfile,
    /// Estimated I/O count `D_i`.
    pub ios: f64,
    /// Number of plan nodes fused into this fragment.
    pub n_nodes: usize,
    /// The pipeline the executor runs.
    pub program: FragmentProgram,
}

/// The decomposition result.
#[derive(Debug, Clone)]
pub struct FragmentSet {
    /// Fragments in dependency order — every producer before the fragments
    /// that read it — with the query root last.
    pub fragments: Vec<Fragment>,
}

impl FragmentSet {
    /// The producer→consumer DAG the scheduler consumes, index-aligned with
    /// the fragments: each profile with the producers its program reads.
    pub fn dag(&self) -> FragmentDag {
        let mut dag = FragmentDag::new();
        for f in &self.fragments {
            dag.add(f.profile.clone(), &f.program.deps().collect::<Vec<_>>());
        }
        dag
    }
}

/// A fragment under construction.
#[derive(Default)]
struct Part {
    time: f64,
    ios: f64,
    random: bool,
    nodes: usize,
    /// Producers in the order the walk cut them, which fixes the numbering.
    deps: Vec<usize>,
    /// Estimated bytes of the fragment root's materialized output.
    out_bytes: f64,
    program: Option<FragmentProgram>,
}

#[derive(Default)]
struct Builder {
    parts: Vec<Part>,
}

impl Builder {
    /// Cut `plan` into a fragment of its own; returns its index.
    fn cut(&mut self, plan: &Plan, costed: &Costed) -> usize {
        self.parts.push(Part::default());
        let frag = self.parts.len() - 1;
        let (driver, ops) = self.walk(plan, costed, frag);
        self.parts[frag].program = Some(FragmentProgram { driver, ops });
        frag
    }

    /// A blocking child of `consumer`: cut, then recorded as a producer.
    fn block(&mut self, plan: &Plan, costed: &Costed, consumer: usize) -> usize {
        let frag = self.cut(plan, costed);
        self.parts[consumer].deps.push(frag);
        frag
    }

    /// Walk `stream` into `frag`, then apply `op` to its rows.
    fn then(
        &mut self,
        stream: &Plan,
        costed: &Costed,
        frag: usize,
        op: PipelineOp,
    ) -> (Driver, Vec<PipelineOp>) {
        let (driver, mut ops) = self.walk(stream, costed, frag);
        ops.push(op);
        (driver, ops)
    }

    /// Walk `plan`/`costed` attributing nodes to fragment `frag` and return
    /// the pipeline they form; blocking children become fragments `frag`
    /// depends on.
    fn walk(&mut self, plan: &Plan, costed: &Costed, frag: usize) -> (Driver, Vec<PipelineOp>) {
        let part = &mut self.parts[frag];
        if part.nodes == 0 {
            // First node walked is the fragment's root: its output is what
            // gets materialized for the consumer.
            part.out_bytes = costed.cost.out_rows * costed.cost.row_bytes;
        }
        part.time += costed.cost.own_cost;
        part.ios += costed.cost.own_ios;
        part.random |= costed.cost.random_io;
        part.nodes += 1;
        match plan {
            Plan::SeqScan { rel } => (Driver::PageScan { rel: *rel }, Vec::new()),
            Plan::IndexScan { rel } => (Driver::KeyScan { rel: *rel }, Vec::new()),
            Plan::HashJoin { build, probe } => {
                let dep = self.block(build, &costed.children[0], frag);
                self.then(probe, &costed.children[1], frag, PipelineOp::ProbeHash { dep })
            }
            Plan::NestLoop { outer, inner } => {
                let dep = self.block(inner, &costed.children[1], frag);
                self.then(outer, &costed.children[0], frag, PipelineOp::NestInner { dep })
            }
            // A base index scan delivers in key order and pipelines straight
            // into the merge; any other input is materialized, because the
            // executor partitions a fragment by one key domain.
            Plan::MergeJoin { left, right } => {
                let (l, r) = (&costed.children[0], &costed.children[1]);
                match (&**left, &**right) {
                    (Plan::IndexScan { .. }, Plan::IndexScan { rel }) => {
                        let pipeline =
                            self.then(left, l, frag, PipelineOp::MergeIndexed { rel: *rel });
                        // The right side's cost only: the merge probes its
                        // index per stream key.
                        self.walk(right, r, frag);
                        pipeline
                    }
                    (Plan::IndexScan { .. }, _) => {
                        let dep = self.block(right, r, frag);
                        self.then(left, l, frag, PipelineOp::MergeWith { dep })
                    }
                    (_, Plan::IndexScan { .. }) => {
                        let dep = self.block(left, l, frag);
                        self.then(right, r, frag, PipelineOp::MergeWith { dep })
                    }
                    _ => {
                        let ops = vec![
                            PipelineOp::MergeWith { dep: self.block(left, l, frag) },
                            PipelineOp::MergeWith { dep: self.block(right, r, frag) },
                        ];
                        (Driver::KeyDomain, ops)
                    }
                }
            }
        }
    }
}

/// Decompose a costed plan into schedulable fragments and their pipeline
/// programs. Fragment task ids start at `base_id` (so fragments of several
/// queries can coexist in one scheduling run).
pub fn decompose(plan: &Plan, costed: &Costed, base_id: u64) -> FragmentSet {
    let mut b = Builder::default();
    let root = b.cut(plan, costed);

    // Emit in dependency order (children before parents): the walk numbers
    // a fragment before the producers it cuts, so renumber by depth-first
    // post-order over the producers, which leaves the root last.
    fn post_order(i: usize, parts: &[Part], order: &mut Vec<usize>) {
        for &d in &parts[i].deps {
            post_order(d, parts, order);
        }
        order.push(i);
    }
    let mut order = Vec::with_capacity(b.parts.len());
    post_order(root, &b.parts, &mut order);
    let mut new_index = vec![0usize; order.len()];
    for (new_i, &old_i) in order.iter().enumerate() {
        new_index[old_i] = new_i;
    }

    let mut fragments = Vec::with_capacity(order.len());
    for (new_i, &old_i) in order.iter().enumerate() {
        let mut program = b.parts[old_i].program.take().expect("every fragment is walked");
        for op in &mut program.ops {
            if let PipelineOp::ProbeHash { dep }
            | PipelineOp::MergeWith { dep }
            | PipelineOp::NestInner { dep } = op
            {
                *dep = new_index[*dep];
            }
        }
        let part = &b.parts[old_i];
        // Guard against degenerate estimates: a fragment always costs some
        // time and issues at least a trickle of I/O (result delivery).
        let time = part.time.max(1e-6);
        let rate = (part.ios / time).max(1e-3);
        let kind = if part.random { IoKind::Random } else { IoKind::Sequential };
        // Memory held while running: every input table it probes or merges
        // with, plus its own output when a consumer will read it — every
        // fragment but the query root (a plan is a tree: one consumer each).
        let own = if old_i == root { 0.0 } else { part.out_bytes };
        let memory = own + part.deps.iter().map(|&d| b.parts[d].out_bytes).sum::<f64>();
        let profile = TaskProfile::new(TaskId(base_id + new_i as u64), time, rate, kind)
            .with_memory(memory);
        fragments.push(Fragment { profile, ios: part.ios, n_nodes: part.nodes, program });
    }
    FragmentSet { fragments }
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
        assert_eq!(fs.dag().roots(), vec![0]);
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
        let roots = fs.dag().roots();
        assert_eq!(roots.len(), 1);
        let consumer = (0..2).find(|i| !roots.contains(i)).unwrap();
        assert_eq!(fs.dag().deps_of(consumer), &[roots[0]]);
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
        let join_frag = (0..3).find(|&i| fs.dag().deps_of(i).len() == 2).unwrap();
        assert_eq!(fs.dag().roots().len(), 2);
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
        assert_eq!(fs.dag().roots().len(), 2, "two independent build fragments");
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
        let seq_time: f64 = fs.fragments.iter().map(|f| f.profile.seq_time).sum();
        assert!((seq_time - costed.cost.total_cost).abs() < 1e-6);
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
            for &d in fs.dag().deps_of(i) {
                assert!(d < i, "dependency {d} of {i} must be emitted first");
            }
        }
    }

    /// A seeded random plan over relations `next_rel..`: every node kind,
    /// depth at most `depth`.
    fn random_plan(rng: &mut u64, depth: u32, next_rel: &mut usize) -> Plan {
        let mut draw = |n: u64| {
            // splitmix64
            *rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let kind = if depth == 0 { draw(2) } else { draw(5) };
        let leaf = |next_rel: &mut usize| {
            *next_rel += 1;
            *next_rel - 1
        };
        match kind {
            0 => Plan::SeqScan { rel: leaf(next_rel) },
            1 => Plan::IndexScan { rel: leaf(next_rel) },
            k => {
                let a = Box::new(random_plan(rng, depth - 1, next_rel));
                let b = Box::new(random_plan(rng, depth - 1, next_rel));
                match k {
                    2 => Plan::HashJoin { build: a, probe: b },
                    3 => Plan::NestLoop { outer: a, inner: b },
                    _ => Plan::MergeJoin { left: a, right: b },
                }
            }
        }
    }

    #[test]
    fn random_plans_cut_into_well_formed_programs() {
        let mut rng = 0x5eed_u64;
        let mut fragments = 0;
        for _ in 0..2_000 {
            let mut n_rels = 0;
            let plan = random_plan(&mut rng, 4, &mut n_rels);
            let fs = decompose_plan(&plan, n_rels);
            let dag = fs.dag();
            fragments += fs.fragments.len();
            for (i, f) in fs.fragments.iter().enumerate() {
                let deps: Vec<usize> = f.program.deps().collect();
                let shown = plan.display();
                assert!(deps.iter().all(|&d| d < i), "{shown}: fragment {i} reads ahead {deps:?}");
                let rels = f.program.ops.iter().filter_map(|op| match op {
                    PipelineOp::MergeIndexed { rel } => Some(*rel),
                    _ => None,
                });
                let driver_rel = match f.program.driver {
                    Driver::PageScan { rel } | Driver::KeyScan { rel } => Some(rel),
                    Driver::KeyDomain => None,
                };
                assert!(driver_rel.into_iter().chain(rels).all(|r| r < n_rels), "{shown}");
                assert_eq!(dag.deps_of(i), &deps[..], "{shown}: dag and ops disagree");
            }
            // The root is last: nothing reads it, and every other fragment
            // is read by exactly one consumer.
            let mut readers = vec![0usize; fs.fragments.len()];
            for f in &fs.fragments {
                for d in f.program.deps() {
                    readers[d] += 1;
                }
            }
            let (root, rest) = readers.split_last().unwrap();
            assert_eq!(*root, 0, "{}", plan.display());
            assert!(rest.iter().all(|&r| r == 1), "{}: readers {readers:?}", plan.display());
        }
        assert!(fragments > 4_000, "the generator exercises multi-fragment plans ({fragments})");
    }
}

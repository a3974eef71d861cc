//! Fragment compilation: from a sequential [`Plan`] to data-parallel
//! pipeline programs.
//!
//! The compiler cuts the plan at the same blocking edges as
//! [`xprs_optimizer::fragment::decompose`] (hash-join build sides, nestloop
//! inner sides, merge-join inputs other than bare index scans) — the two
//! walks share their traversal order, so program index `i` corresponds to
//! fragment `i` of the optimizer's [`FragmentSet`](xprs_optimizer::FragmentSet), which the master asserts
//! at run time.
//!
//! Every query in this reproduction joins on attribute `a`, so all `a`
//! values inside a joined tuple are equal; a pipeline row is therefore a
//! `(key, tuple)` pair and every join operator matches on `key`.

use xprs_optimizer::Plan;
use xprs_storage::runs::{merge_runs, CsrIndex};
use xprs_storage::Tuple;

/// A materialized fragment output: rows sorted by key plus a CSR key index
/// (sorted unique keys + offsets + positions, built by one counting pass
/// over the already-sorted rows). A probe is a binary search (or cursor
/// seek) plus a slice borrow, with zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct Materialized {
    /// `(key, tuple)` rows in ascending key order.
    pub rows: Vec<(i32, Tuple)>,
    /// key → positions into `rows`.
    index: CsrIndex,
}

impl Materialized {
    /// Build from rows already sorted by key: one counting pass erects the
    /// CSR index, no re-sort, no per-key allocation.
    pub fn from_sorted_rows(rows: Vec<(i32, Tuple)>) -> Self {
        let index = CsrIndex::from_sorted(&rows);
        Materialized { rows, index }
    }

    /// Build from locally sorted worker runs by stable k-way merge
    /// (O(n log k)) plus the CSR counting pass. Equal keys keep run order,
    /// so merging consecutive stably-sorted chunks of a vector reproduces
    /// a stable sort of the whole vector exactly.
    pub fn from_runs(runs: Vec<Vec<(i32, Tuple)>>) -> Self {
        Materialized::from_sorted_rows(merge_runs(runs))
    }

    /// Smallest key present (None if empty).
    pub fn min_key(&self) -> Option<i32> {
        self.rows.first().map(|(k, _)| *k)
    }

    /// Largest key present.
    pub fn max_key(&self) -> Option<i32> {
        self.rows.last().map(|(k, _)| *k)
    }

    fn tuples_at<'a>(&'a self, positions: &'a [u32]) -> impl Iterator<Item = &'a Tuple> + 'a {
        positions.iter().map(move |&p| &self.rows[p as usize].1)
    }

    /// Rows bearing `key`: a binary search + slice borrow (zero
    /// allocation).
    pub fn matches(&self, key: i32) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples_at(self.index.lookup(key))
    }

    /// Cursor-based variant of [`Materialized::matches`] for merge joins:
    /// over an ascending probe-key stream the cursor only moves forward
    /// (amortized O(1) per probe), falling back to a binary re-seek when
    /// the stream regresses (e.g. after an interval re-partitioning).
    pub fn matches_from(&self, key: i32, cursor: &mut usize) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples_at(self.index.seek(key, cursor))
    }
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
    /// The fragment this op depends on, if any.
    pub fn dep(&self) -> Option<usize> {
        match self {
            PipelineOp::ProbeHash { dep }
            | PipelineOp::MergeWith { dep }
            | PipelineOp::NestInner { dep } => Some(*dep),
            PipelineOp::MergeIndexed { .. } => None,
        }
    }
}

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

/// A compiled fragment.
#[derive(Debug, Clone)]
pub struct FragmentProgram {
    /// The partitioned driver.
    pub driver: Driver,
    /// Operators applied to each driver row, in order.
    pub ops: Vec<PipelineOp>,
    /// Fragments whose materialized output this fragment consumes.
    pub deps: Vec<usize>,
}

/// All programs of one plan, index-aligned with the optimizer's fragments.
#[derive(Debug, Clone)]
pub struct ProgramSet {
    /// Programs in dependency (topological) order.
    pub programs: Vec<FragmentProgram>,
}

struct Compiler {
    programs: Vec<Option<FragmentProgram>>,
    deps: Vec<Vec<usize>>,
}

impl Compiler {
    fn fresh(&mut self) -> usize {
        self.programs.push(None);
        self.deps.push(Vec::new());
        self.programs.len() - 1
    }

    /// Compile `plan` into fragment `frag`, returning its driver and ops.
    fn pipe(&mut self, plan: &Plan, frag: usize) -> (Driver, Vec<PipelineOp>) {
        match plan {
            Plan::SeqScan { rel } => (Driver::PageScan { rel: *rel }, Vec::new()),
            Plan::IndexScan { rel } => (Driver::KeyScan { rel: *rel }, Vec::new()),
            Plan::HashJoin { build, probe } => {
                let b = self.block(build);
                self.deps[frag].push(b);
                let (d, mut ops) = self.pipe(probe, frag);
                ops.push(PipelineOp::ProbeHash { dep: b });
                (d, ops)
            }
            Plan::NestLoop { outer, inner } => {
                let i = self.block(inner);
                self.deps[frag].push(i);
                let (d, mut ops) = self.pipe(outer, frag);
                ops.push(PipelineOp::NestInner { dep: i });
                (d, ops)
            }
            Plan::MergeJoin { left, right } => {
                match (is_index_scan(left), is_index_scan(right)) {
                    (Some(_), Some(rr)) => {
                        let (d, mut ops) = self.pipe(left, frag);
                        ops.push(PipelineOp::MergeIndexed { rel: rr });
                        (d, ops)
                    }
                    (Some(_), None) => {
                        let (d, mut ops) = self.pipe(left, frag);
                        let r = self.block(right);
                        self.deps[frag].push(r);
                        ops.push(PipelineOp::MergeWith { dep: r });
                        (d, ops)
                    }
                    (None, Some(_)) => {
                        let l = self.block(left);
                        self.deps[frag].push(l);
                        let (d, mut ops) = self.pipe(right, frag);
                        ops.push(PipelineOp::MergeWith { dep: l });
                        (d, ops)
                    }
                    (None, None) => {
                        let l = self.block(left);
                        let r = self.block(right);
                        self.deps[frag].push(l);
                        self.deps[frag].push(r);
                        (
                            Driver::KeyDomain,
                            vec![PipelineOp::MergeWith { dep: l }, PipelineOp::MergeWith { dep: r }],
                        )
                    }
                }
            }
        }
    }

    fn block(&mut self, plan: &Plan) -> usize {
        let frag = self.fresh();
        let (driver, ops) = self.pipe(plan, frag);
        let deps = self.deps[frag].clone();
        self.programs[frag] = Some(FragmentProgram { driver, ops, deps });
        frag
    }
}

fn is_index_scan(p: &Plan) -> Option<usize> {
    match p {
        Plan::IndexScan { rel } => Some(*rel),
        _ => None,
    }
}

/// Compile `plan` into data-parallel fragment programs, emitted in the same
/// topological order as the optimizer's fragment decomposition.
pub fn compile(plan: &Plan) -> ProgramSet {
    let mut c = Compiler { programs: Vec::new(), deps: Vec::new() };
    let root = c.fresh();
    let (driver, ops) = c.pipe(plan, root);
    let deps = c.deps[root].clone();
    c.programs[root] = Some(FragmentProgram { driver, ops, deps });

    // Same topological re-ordering as the optimizer's decompose().
    let n = c.programs.len();
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
        visit(i, &c.deps, &mut visited, &mut order);
    }
    let mut new_index = vec![0usize; n];
    for (new_i, &old_i) in order.iter().enumerate() {
        new_index[old_i] = new_i;
    }
    let programs = order
        .iter()
        .map(|&old_i| {
            let mut p = c.programs[old_i].take().expect("every fragment compiled");
            for d in &mut p.deps {
                *d = new_index[*d];
            }
            for op in &mut p.ops {
                match op {
                    PipelineOp::ProbeHash { dep }
                    | PipelineOp::MergeWith { dep }
                    | PipelineOp::NestInner { dep } => *dep = new_index[*dep],
                    PipelineOp::MergeIndexed { .. } => {}
                }
            }
            p
        })
        .collect();
    ProgramSet { programs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_optimizer::cost::{CostModel, RelInfo};
    use xprs_optimizer::fragment::decompose;

    fn scan(rel: usize) -> Box<Plan> {
        Box::new(Plan::SeqScan { rel })
    }

    fn iscan(rel: usize) -> Box<Plan> {
        Box::new(Plan::IndexScan { rel })
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

    /// The compiler must agree with the optimizer's decomposition.
    fn assert_aligned(plan: &Plan, n_rels: usize) -> ProgramSet {
        let ps = compile(plan);
        let m = CostModel::paper_default();
        let costed = m.cost_plan(plan, &rels(n_rels));
        let fs = decompose(plan, &costed, 0);
        assert_eq!(ps.programs.len(), fs.fragments.len(), "fragment counts differ");
        for i in 0..ps.programs.len() {
            let mut a = ps.programs[i].deps.clone();
            let mut b = fs.dag.deps_of(i).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "deps of fragment {i} differ");
        }
        ps
    }

    #[test]
    fn scan_compiles_to_a_bare_driver() {
        let ps = assert_aligned(&Plan::SeqScan { rel: 0 }, 1);
        assert_eq!(ps.programs.len(), 1);
        assert_eq!(ps.programs[0].driver, Driver::PageScan { rel: 0 });
        assert!(ps.programs[0].ops.is_empty());
    }

    #[test]
    fn hash_join_compiles_probe_pipeline() {
        let p = Plan::HashJoin { build: scan(0), probe: scan(1) };
        let ps = assert_aligned(&p, 2);
        assert_eq!(ps.programs.len(), 2);
        // Program 0 is the build scan, program 1 probes it.
        assert_eq!(ps.programs[1].ops, vec![PipelineOp::ProbeHash { dep: 0 }]);
        assert_eq!(ps.programs[1].driver, Driver::PageScan { rel: 1 });
    }

    #[test]
    fn merge_of_index_scans_stays_in_one_fragment() {
        let p = Plan::MergeJoin { left: iscan(0), right: iscan(1) };
        let ps = assert_aligned(&p, 2);
        assert_eq!(ps.programs.len(), 1);
        assert_eq!(ps.programs[0].driver, Driver::KeyScan { rel: 0 });
        assert_eq!(ps.programs[0].ops, vec![PipelineOp::MergeIndexed { rel: 1 }]);
    }

    #[test]
    fn merge_of_seq_scans_uses_a_key_domain_driver() {
        let p = Plan::MergeJoin { left: scan(0), right: scan(1) };
        let ps = assert_aligned(&p, 2);
        assert_eq!(ps.programs.len(), 3);
        let root = &ps.programs[2];
        assert_eq!(root.driver, Driver::KeyDomain);
        assert_eq!(root.ops.len(), 2);
    }

    #[test]
    fn deep_pipeline_chains_probe_in_order() {
        // HJ(build=s0, probe=HJ(build=s1, probe=s2)): the probe pipeline
        // scans rel 2, probes the inner build then the outer build.
        let p = Plan::HashJoin {
            build: scan(0),
            probe: Box::new(Plan::HashJoin { build: scan(1), probe: scan(2) }),
        };
        let ps = assert_aligned(&p, 3);
        let root = ps.programs.last().unwrap();
        assert_eq!(root.driver, Driver::PageScan { rel: 2 });
        assert_eq!(root.ops.len(), 2);
        // Inner probe happens before the outer probe.
        let dep_order: Vec<usize> = root.ops.iter().filter_map(|o| o.dep()).collect();
        assert_eq!(dep_order.len(), 2);
        assert_ne!(dep_order[0], dep_order[1]);
    }

    #[test]
    fn nestloop_materializes_inner() {
        let p = Plan::NestLoop { outer: scan(0), inner: iscan(1) };
        let ps = assert_aligned(&p, 2);
        assert_eq!(ps.programs.len(), 2);
        let root = &ps.programs[1];
        assert_eq!(root.ops, vec![PipelineOp::NestInner { dep: 0 }]);
        // Inner was an index scan fragment.
        assert_eq!(ps.programs[0].driver, Driver::KeyScan { rel: 1 });
    }

    #[test]
    fn bushy_tree_alignment() {
        let p = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: Box::new(Plan::MergeJoin { left: iscan(2), right: iscan(3) }),
        };
        assert_aligned(&p, 4);
    }

    fn tagged(key: i32, tag: i32) -> (i32, Tuple) {
        (key, Tuple::from_values(vec![xprs_storage::Datum::Int(tag)]))
    }

    #[test]
    fn materialized_from_sorted_rows_and_lookup() {
        let m = Materialized::from_sorted_rows(vec![tagged(1, 0), tagged(5, 1), tagged(5, 2)]);
        assert_eq!(m.min_key(), Some(1));
        assert_eq!(m.max_key(), Some(5));
        assert_eq!(m.matches(5).count(), 2);
        assert_eq!(m.matches(2).count(), 0);
    }

    #[test]
    fn from_runs_equals_a_stable_sort_of_the_whole_input() {
        let rows = vec![
            tagged(5, 0),
            tagged(-1, 1),
            tagged(5, 2),
            tagged(3, 3),
            tagged(-1, 4),
            tagged(5, 5),
            tagged(7, 6),
        ];
        let mut sorted = rows.clone();
        sorted.sort_by_key(|(k, _)| *k);
        // Worker emulation: consecutive chunks, each stably sorted locally.
        let mut runs: Vec<Vec<(i32, Tuple)>> = rows.chunks(3).map(|c| c.to_vec()).collect();
        for r in &mut runs {
            r.sort_by_key(|(k, _)| *k);
        }
        let m = Materialized::from_runs(runs);
        assert_eq!(m.rows, sorted, "stable merge must reproduce the stable sort");
        assert_eq!(m.min_key(), Some(-1));
        assert_eq!(m.max_key(), Some(7));
        for key in -2..9 {
            let want: Vec<&Tuple> =
                sorted.iter().filter(|(k, _)| *k == key).map(|(_, t)| t).collect();
            let got: Vec<&Tuple> = m.matches(key).collect();
            assert_eq!(got, want, "matches({key})");
        }
    }

    #[test]
    fn csr_cursor_matches_agree_with_plain_matches() {
        let mut rows: Vec<(i32, Tuple)> = (0..200).map(|i| tagged(i % 17, i)).collect();
        rows.sort_by_key(|(k, _)| *k);
        let m = Materialized::from_sorted_rows(rows);
        let mut cursor = 0usize;
        // Ascending probes, then a regression, then ascent again.
        for key in [-3, 0, 0, 4, 4, 5, 16, 20, 2, 11, 11, 16] {
            let a: Vec<&Tuple> = m.matches(key).collect();
            let b: Vec<&Tuple> = m.matches_from(key, &mut cursor).collect();
            assert_eq!(a, b, "probe {key}");
        }
    }

    #[test]
    fn empty_materialized_probes_cleanly() {
        for m in [
            Materialized::default(),
            Materialized::from_sorted_rows(Vec::new()),
            Materialized::from_runs(Vec::new()),
        ] {
            assert_eq!(m.min_key(), None);
            assert_eq!(m.max_key(), None);
            assert_eq!(m.matches(0).count(), 0);
            let mut cur = 0;
            assert_eq!(m.matches_from(0, &mut cur).count(), 0);
        }
    }
}

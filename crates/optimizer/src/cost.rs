//! The sequential cost model (`seqcost`).
//!
//! Conventional System-R style estimation: page I/Os are charged the disk's
//! sequential or random service time, tuples a fixed qualification-
//! evaluation cost, hash and comparison work their own constants. Costs are
//! in **seconds** and I/Os are counted separately so a plan fragment can be
//! turned into a schedulable task profile (`T_i`, `D_i`, `C_i = D_i/T_i`).

use xprs_scheduler::MachineConfig;

use crate::plan::Plan;

/// Per-query-relation statistics and physical properties, extracted from
/// the catalog (selectivity already reflects the query's selection).
#[derive(Debug, Clone)]
pub struct RelInfo {
    /// Cardinality before selection.
    pub n_tuples: f64,
    /// Heap pages.
    pub n_blocks: f64,
    /// Distinct values of the join attribute `a`.
    pub n_distinct: f64,
    /// Selection selectivity applied by the query (1.0 = none).
    pub selectivity: f64,
    /// Is there a B-tree index on `a`?
    pub has_index: bool,
    /// Is the heap clustered on `a` (index order = heap order)?
    pub clustered: bool,
}

/// Estimated properties of one plan node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCost {
    /// Output cardinality.
    pub out_rows: f64,
    /// Distinct join-attribute values in the output.
    pub out_distinct: f64,
    /// Seconds of work in this subtree (the conventional `seqcost`).
    pub total_cost: f64,
    /// Seconds of work attributable to this node alone.
    pub own_cost: f64,
    /// I/O requests issued by this node alone.
    pub own_ios: f64,
    /// Does this node issue random (vs sequential) I/O?
    pub random_io: bool,
    /// Is the output ordered on the join attribute?
    pub sorted: bool,
    /// Estimated bytes per output row (for memory footprints of hash tables
    /// and materialized outputs).
    pub row_bytes: f64,
}

/// A plan annotated with per-node cost estimates, mirroring the plan shape.
#[derive(Debug, Clone)]
pub struct Costed {
    /// This node's estimates.
    pub cost: NodeCost,
    /// Children in plan order (build/probe, left/right, outer/inner).
    pub children: Vec<Costed>,
}

/// Seconds to evaluate one tuple's qualifications on the paper's machine:
/// what the cost model declares with and what the executor's workers charge.
pub const CPU_TUPLE: f64 = 0.25e-3;

/// The cost model: machine service times plus CPU constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Machine whose disks define the I/O service times.
    pub machine: MachineConfig,
    /// Seconds to evaluate one tuple's qualifications (the paper's fixed
    /// per-tuple overhead).
    pub cpu_tuple: f64,
    /// Seconds to hash one tuple.
    pub cpu_hash: f64,
    /// Seconds per comparison (sorts, merges, nestloop predicates).
    pub cpu_cmp: f64,
}

impl CostModel {
    /// Defaults calibrated to the paper's machine: a minimal-tuple page
    /// (hundreds of tuples at ~0.25 ms each) takes ≈0.2 s of CPU, giving
    /// the 5 I/Os-per-second rate measured for `r_min`.
    pub fn paper_default() -> Self {
        CostModel {
            machine: MachineConfig::paper_default(),
            cpu_tuple: CPU_TUPLE,
            cpu_hash: 0.1e-3,
            cpu_cmp: 0.05e-3,
        }
    }

    fn t_seq_io(&self) -> f64 {
        1.0 / self.machine.seq_bw
    }

    fn t_rand_io(&self) -> f64 {
        1.0 / self.machine.random_bw
    }

    /// Annotate `plan` with estimates. `rels[i]` describes the query's
    /// `i`-th relation.
    pub fn cost_plan(&self, plan: &Plan, rels: &[RelInfo]) -> Costed {
        match plan {
            Plan::SeqScan { rel } => {
                let r = &rels[*rel];
                let own_ios = r.n_blocks;
                let own_cost = own_ios * self.t_seq_io() + r.n_tuples * self.cpu_tuple;
                let out_rows = r.n_tuples * r.selectivity;
                Costed {
                    cost: NodeCost {
                        out_rows,
                        out_distinct: r.n_distinct.min(out_rows).max(1.0),
                        total_cost: own_cost,
                        own_cost,
                        own_ios,
                        random_io: false,
                        sorted: false,
                        row_bytes: rel_row_bytes(r),
                    },
                    children: vec![],
                }
            }
            Plan::IndexScan { rel } => {
                let r = &rels[*rel];
                debug_assert!(r.has_index, "index scan over unindexed relation");
                let matching = r.n_tuples * r.selectivity;
                let (own_ios, own_cost, random_io) = if r.clustered {
                    // Clustered: matching tuples are contiguous; read the
                    // covering fraction of the heap almost-sequentially
                    // after the tree descent ("more or less the same
                    // situation as that of sequential scans").
                    let ios = 3.0 + (r.n_blocks * r.selectivity).ceil();
                    let cost = 3.0 * self.t_rand_io()
                        + (ios - 3.0) / self.machine.almost_seq_bw * self.machine.n_disks as f64
                            / self.machine.n_disks as f64
                        + matching * self.cpu_tuple;
                    (ios, cost, false)
                } else {
                    // Unclustered: descend the tree (~3 levels) then one heap
                    // page per matching tuple — the random pattern that makes
                    // index scans IO-bound.
                    let ios = 3.0 + matching;
                    (ios, ios * self.t_rand_io() + matching * self.cpu_tuple, true)
                };
                Costed {
                    cost: NodeCost {
                        out_rows: matching,
                        out_distinct: r.n_distinct.min(matching).max(1.0),
                        total_cost: own_cost,
                        own_cost,
                        own_ios,
                        random_io,
                        sorted: true,
                        row_bytes: rel_row_bytes(r),
                    },
                    children: vec![],
                }
            }
            Plan::HashJoin { build, probe } => {
                let b = self.cost_plan(build, rels);
                let p = self.cost_plan(probe, rels);
                let (out_rows, out_distinct) = join_card(&b.cost, &p.cost);
                let own_cost = (b.cost.out_rows + p.cost.out_rows) * self.cpu_hash
                    + out_rows * self.cpu_tuple;
                Costed {
                    cost: NodeCost {
                        out_rows,
                        out_distinct,
                        total_cost: b.cost.total_cost + p.cost.total_cost + own_cost,
                        own_cost,
                        own_ios: 0.0,
                        random_io: false,
                        sorted: false,
                        row_bytes: b.cost.row_bytes + p.cost.row_bytes,
                    },
                    children: vec![b, p],
                }
            }
            Plan::MergeJoin { left, right } => {
                let l = self.cost_plan(left, rels);
                let r = self.cost_plan(right, rels);
                let (out_rows, out_distinct) = join_card(&l.cost, &r.cost);
                let sort = |c: &NodeCost| {
                    if c.sorted {
                        0.0
                    } else {
                        let n = c.out_rows.max(2.0);
                        n * n.log2() * self.cpu_cmp
                    }
                };
                let own_cost = sort(&l.cost)
                    + sort(&r.cost)
                    + (l.cost.out_rows + r.cost.out_rows) * self.cpu_cmp
                    + out_rows * self.cpu_tuple;
                Costed {
                    cost: NodeCost {
                        out_rows,
                        out_distinct,
                        total_cost: l.cost.total_cost + r.cost.total_cost + own_cost,
                        own_cost,
                        own_ios: 0.0,
                        random_io: false,
                        sorted: true,
                        row_bytes: l.cost.row_bytes + r.cost.row_bytes,
                    },
                    children: vec![l, r],
                }
            }
            Plan::NestLoop { outer, inner } => {
                let o = self.cost_plan(outer, rels);
                let i = self.cost_plan(inner, rels);
                let (out_rows, out_distinct) = join_card(&o.cost, &i.cost);
                // Inner materialized once, then o.rows × i.rows predicate
                // evaluations.
                let own_cost = i.cost.out_rows * self.cpu_tuple
                    + o.cost.out_rows * i.cost.out_rows * self.cpu_cmp
                    + out_rows * self.cpu_tuple;
                Costed {
                    cost: NodeCost {
                        out_rows,
                        out_distinct,
                        total_cost: o.cost.total_cost + i.cost.total_cost + own_cost,
                        own_cost,
                        own_ios: 0.0,
                        random_io: false,
                        sorted: false,
                        row_bytes: o.cost.row_bytes + i.cost.row_bytes,
                    },
                    children: vec![o, i],
                }
            }
        }
    }

    /// The conventional sequential cost of a plan, in seconds.
    pub fn seqcost(&self, plan: &Plan, rels: &[RelInfo]) -> f64 {
        self.cost_plan(plan, rels).cost.total_cost
    }
}

/// Average stored bytes per row of a base relation.
fn rel_row_bytes(r: &RelInfo) -> f64 {
    if r.n_tuples > 0.0 {
        (r.n_blocks * 8192.0 / r.n_tuples).max(8.0)
    } else {
        8.0
    }
}

/// Equi-join cardinality: `|L|·|R| / max(d_L, d_R)`, distinct values the
/// smaller side's.
fn join_card(l: &NodeCost, r: &NodeCost) -> (f64, f64) {
    let d = l.out_distinct.max(r.out_distinct).max(1.0);
    let out = l.out_rows * r.out_rows / d;
    (out, l.out_distinct.min(r.out_distinct).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels() -> Vec<RelInfo> {
        vec![
            RelInfo { n_tuples: 10_000.0, n_blocks: 500.0, n_distinct: 1000.0, selectivity: 1.0, has_index: true, clustered: false },
            RelInfo { n_tuples: 2_000.0, n_blocks: 100.0, n_distinct: 500.0, selectivity: 0.1, has_index: true, clustered: false },
        ]
    }

    fn model() -> CostModel {
        CostModel::paper_default()
    }

    #[test]
    fn seq_scan_cost_components() {
        let c = model().cost_plan(&Plan::SeqScan { rel: 0 }, &rels());
        // 500 ios at 1/97 s + 10k tuples at 0.25 ms.
        let expect = 500.0 / 97.0 + 10_000.0 * 0.25e-3;
        assert!((c.cost.own_cost - expect).abs() < 1e-9);
        assert_eq!(c.cost.out_rows, 10_000.0);
        assert!(!c.cost.sorted);
        assert!(!c.cost.random_io);
    }

    #[test]
    fn index_scan_is_random_and_sorted() {
        let c = model().cost_plan(&Plan::IndexScan { rel: 1 }, &rels());
        assert_eq!(c.cost.out_rows, 200.0);
        assert!(c.cost.random_io);
        assert!(c.cost.sorted);
        assert!((c.cost.own_ios - 203.0).abs() < 1e-9);
    }

    #[test]
    fn selective_index_scan_beats_seq_scan() {
        // 10% selection on a 100-page relation: 203 random ios vs 100
        // sequential ios... here the seq scan actually wins on I/O but loses
        // on CPU? Verify the model simply produces finite, ordered costs and
        // that higher selectivity favours the scan.
        let m = model();
        let mut rs = rels();
        rs[1].selectivity = 0.001;
        let idx = m.seqcost(&Plan::IndexScan { rel: 1 }, &rs);
        let seq = m.seqcost(&Plan::SeqScan { rel: 1 }, &rs);
        assert!(idx < seq, "a 0.1% selection should prefer the index: {idx} vs {seq}");
    }

    #[test]
    fn hash_join_cardinality_uses_max_distinct() {
        let m = model();
        let p = Plan::HashJoin {
            build: Box::new(Plan::SeqScan { rel: 1 }),
            probe: Box::new(Plan::SeqScan { rel: 0 }),
        };
        let c = m.cost_plan(&p, &rels());
        // |L|=200 (sel 0.1), |R|=10k, d = max(500·?, ...) — distincts are
        // capped by out_rows: d_build = min(500,200)=200, d_probe = 1000.
        let expect = 200.0 * 10_000.0 / 1000.0;
        assert!((c.cost.out_rows - expect).abs() < 1e-6);
        assert!(c.cost.total_cost > c.cost.own_cost);
    }

    #[test]
    fn merge_join_of_sorted_inputs_skips_sorts() {
        let m = model();
        let sorted_in = Plan::MergeJoin {
            left: Box::new(Plan::IndexScan { rel: 0 }),
            right: Box::new(Plan::IndexScan { rel: 1 }),
        };
        let unsorted_in = Plan::MergeJoin {
            left: Box::new(Plan::SeqScan { rel: 0 }),
            right: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let cs = m.cost_plan(&sorted_in, &rels());
        let cu = m.cost_plan(&unsorted_in, &rels());
        assert!(cs.cost.own_cost < cu.cost.own_cost, "sorts must cost something");
        assert!(cs.cost.sorted && cu.cost.sorted);
    }

    #[test]
    fn nestloop_grows_quadratically() {
        let m = model();
        let p = Plan::NestLoop {
            outer: Box::new(Plan::SeqScan { rel: 0 }),
            inner: Box::new(Plan::SeqScan { rel: 1 }),
        };
        let c = m.cost_plan(&p, &rels());
        // 10_000 × 200 comparisons dominate.
        assert!(c.cost.own_cost > 10_000.0 * 200.0 * 0.05e-3 * 0.99);
    }

    #[test]
    fn row_bytes_propagate_through_joins() {
        let m = model();
        let c = m.cost_plan(
            &Plan::HashJoin {
                build: Box::new(Plan::SeqScan { rel: 0 }),
                probe: Box::new(Plan::SeqScan { rel: 1 }),
            },
            &rels(),
        );
        // rel 0: 500 pages / 10k tuples ≈ 410 B; rel 1: 100/2k ≈ 410 B.
        let b0 = c.children[0].cost.row_bytes;
        let b1 = c.children[1].cost.row_bytes;
        assert!((b0 - 409.6).abs() < 0.1);
        assert!((c.cost.row_bytes - (b0 + b1)).abs() < 1e-9);
    }

    #[test]
    fn clustered_index_scan_is_sequentialish_and_cheap() {
        let m = model();
        let mut rs = rels();
        rs[0].selectivity = 0.2;
        let unclustered = m.cost_plan(&Plan::IndexScan { rel: 0 }, &rs);
        rs[0].clustered = true;
        let clustered = m.cost_plan(&Plan::IndexScan { rel: 0 }, &rs);
        assert!(clustered.cost.own_cost < unclustered.cost.own_cost);
        assert!(clustered.cost.own_ios < unclustered.cost.own_ios);
        assert!(!clustered.cost.random_io && unclustered.cost.random_io);
        assert!(clustered.cost.sorted);
    }

    #[test]
    fn total_cost_sums_subtrees() {
        let m = model();
        let l = m.seqcost(&Plan::SeqScan { rel: 0 }, &rels());
        let r = m.seqcost(&Plan::SeqScan { rel: 1 }, &rels());
        let j = Plan::HashJoin {
            build: Box::new(Plan::SeqScan { rel: 1 }),
            probe: Box::new(Plan::SeqScan { rel: 0 }),
        };
        let c = m.cost_plan(&j, &rels());
        assert!((c.cost.total_cost - (l + r + c.cost.own_cost)).abs() < 1e-9);
    }
}

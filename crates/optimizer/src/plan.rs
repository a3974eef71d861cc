//! Sequential plan trees.
//!
//! A sequential plan is a binary tree of the basic relational operations —
//! sequential scan, index scan, nestloop join, merge join and hash join —
//! exactly the operator vocabulary the paper names. Sorts required by a
//! merge join are folded into the join node (`sort_left` / `sort_right`).

use crate::query::Query;

/// A sequential execution plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full scan of relation `rel` (index into the query's relation list).
    SeqScan {
        /// Relation index.
        rel: usize,
    },
    /// Index scan of relation `rel` (selection pushed into the index).
    IndexScan {
        /// Relation index.
        rel: usize,
    },
    /// Nested-loop join; the inner side is materialized once and rescanned.
    NestLoop {
        /// Pipelined side.
        outer: Box<Plan>,
        /// Materialized side (blocking edge).
        inner: Box<Plan>,
    },
    /// Sort-merge join; sides sort (and therefore block) unless already
    /// ordered on the join attribute.
    MergeJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Hash join: `build` is consumed to build the table (blocking edge),
    /// `probe` streams through.
    HashJoin {
        /// Build side.
        build: Box<Plan>,
        /// Probe side.
        probe: Box<Plan>,
    },
}

impl Plan {
    /// Bitset of relations this plan covers.
    pub fn rel_set(&self) -> u32 {
        match self {
            Plan::SeqScan { rel } | Plan::IndexScan { rel } => 1u32 << rel,
            Plan::NestLoop { outer: a, inner: b }
            | Plan::MergeJoin { left: a, right: b }
            | Plan::HashJoin { build: a, probe: b } => a.rel_set() | b.rel_set(),
        }
    }

    /// Number of join nodes.
    pub fn n_joins(&self) -> usize {
        match self {
            Plan::SeqScan { .. } | Plan::IndexScan { .. } => 0,
            Plan::NestLoop { outer: a, inner: b }
            | Plan::MergeJoin { left: a, right: b }
            | Plan::HashJoin { build: a, probe: b } => 1 + a.n_joins() + b.n_joins(),
        }
    }

    /// Is this a left-deep tree (every join's second input is a base scan)?
    pub fn is_left_deep(&self) -> bool {
        match self {
            Plan::SeqScan { .. } | Plan::IndexScan { .. } => true,
            Plan::NestLoop { outer: a, inner: b }
            | Plan::MergeJoin { left: a, right: b }
            | Plan::HashJoin { build: a, probe: b } => {
                a.is_left_deep() && matches!(**b, Plan::SeqScan { .. } | Plan::IndexScan { .. })
            }
        }
    }

    /// Validate against `q`: every relation appears exactly once.
    pub fn validate(&self, q: &Query) -> Result<(), String> {
        fn count(plan: &Plan, seen: &mut [u32]) {
            match plan {
                Plan::SeqScan { rel } | Plan::IndexScan { rel } => seen[*rel] += 1,
                Plan::NestLoop { outer: a, inner: b }
                | Plan::MergeJoin { left: a, right: b }
                | Plan::HashJoin { build: a, probe: b } => {
                    count(a, seen);
                    count(b, seen);
                }
            }
        }
        let mut seen = vec![0u32; q.n_rels()];
        count(self, &mut seen);
        for (i, &c) in seen.iter().enumerate() {
            if c != 1 {
                return Err(format!("relation {i} appears {c} times"));
            }
        }
        Ok(())
    }

    /// Render as a one-line s-expression, e.g.
    /// `(HJ (scan 0) (MJ (scan 1) (iscan 2)))`.
    pub fn display(&self) -> String {
        match self {
            Plan::SeqScan { rel } => format!("(scan {rel})"),
            Plan::IndexScan { rel } => format!("(iscan {rel})"),
            Plan::NestLoop { outer, inner } => {
                format!("(NL {} {})", outer.display(), inner.display())
            }
            Plan::MergeJoin { left, right } => {
                format!("(MJ {} {})", left.display(), right.display())
            }
            Plan::HashJoin { build, probe } => {
                format!("(HJ {} {})", build.display(), probe.display())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(rel: usize) -> Box<Plan> {
        Box::new(Plan::SeqScan { rel })
    }

    #[test]
    fn rel_set_unions_children() {
        let p = Plan::HashJoin { build: scan(0), probe: Box::new(Plan::MergeJoin { left: scan(2), right: scan(3) }) };
        assert_eq!(p.rel_set(), 0b1101);
        assert_eq!(p.n_joins(), 2);
    }

    #[test]
    fn left_deep_detection() {
        // ((0 ⋈ 1) ⋈ 2) is left-deep.
        let ld = Plan::HashJoin {
            build: Box::new(Plan::HashJoin { build: scan(0), probe: scan(1) }),
            probe: scan(2),
        };
        assert!(ld.is_left_deep());
        // (0 ⋈ (1 ⋈ 2)) is not.
        let bushy = Plan::HashJoin {
            build: scan(0),
            probe: Box::new(Plan::HashJoin { build: scan(1), probe: scan(2) }),
        };
        assert!(!bushy.is_left_deep());
    }

    #[test]
    fn validation_catches_duplicates_and_gaps() {
        let q = Query::join().rel("a", 1.0).rel("b", 1.0).on(0, 1).build();
        let ok = Plan::HashJoin { build: scan(0), probe: scan(1) };
        assert!(ok.validate(&q).is_ok());
        let dup = Plan::HashJoin { build: scan(0), probe: scan(0) };
        assert!(dup.validate(&q).is_err());
    }

    #[test]
    fn display_is_readable() {
        let p = Plan::NestLoop { outer: scan(0), inner: Box::new(Plan::IndexScan { rel: 1 }) };
        assert_eq!(p.display(), "(NL (scan 0) (iscan 1))");
    }
}

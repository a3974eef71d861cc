//! # xprs-optimizer
//!
//! The two-phase query optimizer of XPRS, extended per Section 4 of the
//! paper to bushy trees and inter-operation parallelism.
//!
//! Phase one is a conventional System-R style optimizer: dynamic programming
//! over join orders with a textbook sequential cost model ([`cost`]),
//! enumerating either left-deep trees only (the \[HONG91\] baseline) or full
//! bushy trees ([`enumerate`]).
//!
//! Phase two parallelizes the chosen sequential plan: the plan is decomposed
//! at its **blocking edges** into plan fragments — maximal pipelineable
//! subtrees — each of which becomes a schedulable task with an estimated
//! sequential time `T_i`, I/O count `D_i`, and I/O rate `C_i = D_i / T_i`
//! ([`fragment`]). The same cut gives each fragment the pipeline program
//! ([`program`]) the executor runs, so the fragments the optimizer costs are
//! the ones that execute.
//!
//! The paper's contribution is the cost function that ties the phases
//! together: `parcost(p, n) = T_n(F(p))` — the elapsed time of running the
//! plan's fragment DAG under the adaptive scheduling algorithm — replaces
//! `seqcost(p)` when optimizing response time in a single-user environment
//! ([`twophase`]). Because `parcost` depends on the *whole* fragment set,
//! local pruning is unsound; the enumerator therefore carries a beam of
//! candidate subplans per relation subset instead of a single winner.

pub mod cost;
pub mod enumerate;
pub mod fragment;
pub mod plan;
pub mod program;
pub mod query;
pub mod twophase;

pub use cost::{CostModel, NodeCost};
pub use enumerate::{enumerate_best, PlanShape};
pub use fragment::{decompose, Fragment, FragmentSet};
pub use plan::Plan;
pub use query::{JoinGraph, Query};
pub use twophase::{Costing, OptError, OptimizedQuery, TwoPhaseOptimizer};

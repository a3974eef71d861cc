//! Test-only plan pinning: cost and decompose a hand-written plan as given,
//! so the optimizer cannot reshape the join a test measures.

use xprs_optimizer::cost::{CostModel, RelInfo};
use xprs_optimizer::{decompose, OptimizedQuery, Plan};
use xprs_storage::Catalog;

/// `plan` over the catalog relations `names` (its `rel` 0, 1, …), every
/// relation fully selected, costed by the paper cost model and cut into
/// fragments.
pub fn pinned_plan(cat: &Catalog, plan: Plan, names: &[&str]) -> OptimizedQuery {
    let rels: Vec<RelInfo> = names
        .iter()
        .map(|n| {
            let rel = cat.get(n).expect("pinned relation");
            let s = rel.stats();
            RelInfo {
                n_tuples: s.n_tuples as f64,
                n_blocks: s.n_blocks as f64,
                n_distinct: s.n_distinct_a as f64,
                selectivity: 1.0,
                has_index: rel.index_on_a.is_some(),
                clustered: false,
            }
        })
        .collect();
    let costed = CostModel::paper_default().cost_plan(&plan, &rels);
    let fragments = decompose(&plan, &costed, 0);
    OptimizedQuery { seqcost: costed.cost.total_cost, parcost: 0.0, plan, fragments }
}

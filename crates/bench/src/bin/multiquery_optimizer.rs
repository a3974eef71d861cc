//! Section 5 future work, implemented: joint parallel optimization of
//! multiple queries.
//!
//! Two concurrent queries — one whose cheapest solo plan is IO-heavy and
//! one CPU-heavy — are optimized (a) independently by solo `parcost` and
//! (b) jointly, choosing each plan to minimize the elapsed time of both
//! queries' fragments scheduled together by the Section 2.5 algorithm.

use xprs::{Costing, Query, XprsSystem};
use xprs::scheduler::fluid::tn_estimate_dags;
use xprs_bench::{header, row};
use xprs_storage::{Schema, Tuple};
use xprs_workload::Calibration;

fn main() {
    let mut sys = XprsSystem::paper_default();
    let cal = Calibration::paper_default();
    for (name, rate, n) in [
        ("fat_x", 63.0, 1600u64),
        ("fat_y", 58.0, 1400),
        ("fat_z", 66.0, 1800),
        ("thin_u", 7.0, 36_000),
        ("thin_v", 10.0, 30_000),
        ("thin_w", 8.0, 28_000),
    ] {
        let blen = cal.blen_for_rate(rate);
        let cat = sys.catalog_mut();
        cat.create(name, Schema::paper_rel());
        cat.load(name, (0..n).map(|i| Tuple::paper(i as i32, blen)));
        cat.build_index(name, false);
    }

    // Each query mixes IO-heavy and CPU-heavy relations, so its choice of
    // join order decides which of its fragments end up IO- vs CPU-bound.
    let q1 = Query::join()
        .rel("fat_x", 1.0)
        .rel("thin_u", 1.0)
        .rel("fat_y", 1.0)
        .on(0, 1)
        .on(1, 2)
        .build();
    let q2 = Query::join()
        .rel("thin_v", 1.0)
        .rel("fat_z", 1.0)
        .rel("thin_w", 1.0)
        .on(0, 1)
        .on(1, 2)
        .build();

    println!("# Section 5 extension — joint multi-query parallel optimization");
    println!();

    // Independent solo choices, then scheduled together.
    let solo1 = sys.optimize(&q1, Costing::ParCost).expect("plan");
    let solo2 = {
        // Re-decompose with non-colliding ids for joint scheduling.
        let mut o = sys.optimize(&q2, Costing::ParCost).expect("plan");
        let rels = Vec::new();
        let _ = rels as Vec<u8>;
        o.fragments = {
            let model = xprs_optimizer::CostModel::paper_default();
            let infos: Vec<xprs_optimizer::cost::RelInfo> = q2
                .rels
                .iter()
                .map(|r| {
                    let rel = sys.catalog().get(&r.name).unwrap();
                    let s = rel.stats();
                    xprs_optimizer::cost::RelInfo {
                        n_tuples: s.n_tuples as f64,
                        n_blocks: s.n_blocks as f64,
                        n_distinct: s.n_distinct_a as f64,
                        selectivity: r.selectivity,
                        has_index: rel.index_on_a.is_some(),
                        clustered: false,
                    }
                })
                .collect();
            let costed = model.cost_plan(&o.plan, &infos);
            xprs_optimizer::fragment::decompose(&o.plan, &costed, 10_000)
        };
        o
    };
    let independent = tn_estimate_dags(
        sys.machine(),
        &[&solo1.fragments.dag(), &solo2.fragments.dag()],
    );

    let (joint_plans, joint) = sys.optimize_joint(&[&q1, &q2]).expect("plans");

    header(&["strategy", "q1 plan", "q2 plan", "joint elapsed (s)"]);
    row(&[
        "independent solo parcost".into(),
        solo1.plan.display(),
        solo2.plan.display(),
        format!("{independent:6.2}"),
    ]);
    row(&[
        "joint optimization".into(),
        joint_plans[0].plan.display(),
        joint_plans[1].plan.display(),
        format!("{joint:6.2}"),
    ]);
    println!();
    println!(
        "Joint win: {:+.1}%. Optimized alone, each query picks the plan that best \
         overlaps *its own* fragments; optimized together, the planner can pick plan \
         shapes whose fragments pair across queries — e.g. keeping a query's plan \
         IO-lean because its partner query supplies the CPU-bound work.",
        100.0 * (1.0 - joint / independent)
    );
}

//! Section 4 in action: a single four-way join optimized three ways —
//! left-deep with `seqcost` (the [HONG91] baseline), bushy with `seqcost`,
//! and bushy with `parcost` — then executed for real on the threaded engine
//! to confirm all three plans agree on the answer.
//!
//! ```sh
//! cargo run --example bushy_join
//! ```

use xprs::optimizer::PlanShape;
use xprs::storage::{Schema, Tuple};
use xprs::{Costing, PolicyKind, Query, XprsSystem};
use xprs_workload::Calibration;

fn main() {
    let mut sys = XprsSystem::paper_default();
    let cal = Calibration::paper_default();

    // Two IO-heavy relations (fat tuples) and two CPU-heavy ones (thin).
    for (name, rate, n) in [
        ("orders", 62.0, 1500u64),
        ("lines", 8.0, 30_000),
        ("parts", 58.0, 1200),
        ("notes", 10.0, 24_000),
    ] {
        let blen = cal.blen_for_rate(rate);
        let cat = sys.catalog_mut();
        cat.create(name, Schema::paper_rel());
        cat.load(name, (0..n).map(|i| Tuple::paper(i as i32, blen)));
        cat.build_index(name, false);
    }

    let query = Query::join()
        .rel("orders", 1.0)
        .rel("lines", 1.0)
        .rel("parts", 1.0)
        .rel("notes", 1.0)
        .on(0, 1)
        .on(1, 2)
        .on(2, 3)
        .build();

    println!("four-way equi-join over orders ⋈ lines ⋈ parts ⋈ notes\n");
    let mut plans = Vec::new();
    for (label, shape, costing) in [
        ("left-deep + seqcost (HONG91)", PlanShape::LeftDeep, Costing::SeqCost),
        ("bushy + seqcost", PlanShape::Bushy, Costing::SeqCost),
        ("bushy + parcost (this paper)", PlanShape::Bushy, Costing::ParCost),
    ] {
        sys.optimizer_mut().shape = shape;
        let o = sys.optimize(&query, costing).expect("plan");
        println!("{label}:");
        println!("  plan    {}", o.plan.display());
        println!(
            "  seqcost {:6.2} s   parcost {:5.2} s   {} fragments, roots can run in parallel: {}",
            o.seqcost,
            o.parcost,
            o.fragments.fragments.len(),
            o.fragments.dag().roots().len() > 1
        );
        plans.push(o);
    }
    println!(
        "\nestimated response-time win of parcost choice over HONG91: {:.2}×\n",
        plans[0].parcost / plans[2].parcost
    );

    // Execute the baseline and the parcost plan for real; answers must match.
    let bindings = sys.bindings(&query).expect("bindings");
    let r_base = sys
        .execute(&[(plans[0].clone(), bindings.clone())], PolicyKind::InterWithAdj, None)
        .expect("exec");
    let r_par = sys
        .execute(&[(plans[2].clone(), bindings)], PolicyKind::InterWithAdj, None)
        .expect("exec");
    let a = &r_base.results[0].rows.rows;
    let b = &r_par.results[0].rows.rows;
    println!(
        "executed both plans on the threaded engine: {} rows each — answers {}",
        a.len(),
        if a.iter().map(|(k, _)| k).eq(b.iter().map(|(k, _)| k)) { "match ✓" } else { "DIFFER ✗" }
    );
}

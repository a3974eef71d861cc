//! Guard rails on the headline reproduction: the qualitative shape of
//! Figure 7 must hold on both measurement engines, averaged over seeds.

use xprs::{PolicyKind, XprsSystem};
use xprs_bench::{des_elapsed, fluid_elapsed, mean};
use xprs_workload::WorkloadKind;

const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 13];

/// One measurement engine: elapsed times of a workload × policy over seeds.
type Engine = fn(&XprsSystem, WorkloadKind, PolicyKind, &[u64]) -> Vec<f64>;

/// Mean elapsed time of `kind` × `policy` over [`SEEDS`] on `engine`.
fn mean_elapsed(sys: &XprsSystem, kind: WorkloadKind, policy: PolicyKind, engine: Engine) -> f64 {
    mean(&engine(sys, kind, policy, &SEEDS))
}

fn shapes(elapsed: Engine, engine: &str) {
    let sys = XprsSystem::paper_default();

    // Uniform workloads: the three algorithms are essentially equal
    // (INTER-W/O-ADJ may pay a modest penalty for naive stacking).
    for kind in [WorkloadKind::AllCpu, WorkloadKind::AllIo] {
        let intra = mean_elapsed(&sys, kind, PolicyKind::IntraOnly, elapsed);
        let adj = mean_elapsed(&sys, kind, PolicyKind::InterWithAdj, elapsed);
        assert!(
            (adj - intra).abs() / intra < 0.02,
            "{engine}/{}: WITH-ADJ must match INTRA-ONLY on a uniform workload ({adj} vs {intra})",
            kind.label()
        );
    }

    // Mixed workloads: WITH-ADJ clearly beats INTRA-ONLY on Extreme and is
    // at least as good on Random.
    let intra_x = mean_elapsed(&sys, WorkloadKind::Extreme, PolicyKind::IntraOnly, elapsed);
    let adj_x = mean_elapsed(&sys, WorkloadKind::Extreme, PolicyKind::InterWithAdj, elapsed);
    assert!(
        adj_x < intra_x * 0.97,
        "{engine}/Extreme: WITH-ADJ must win clearly ({adj_x} vs {intra_x})"
    );
    let intra_r = mean_elapsed(&sys, WorkloadKind::RandomMix, PolicyKind::IntraOnly, elapsed);
    let adj_r = mean_elapsed(&sys, WorkloadKind::RandomMix, PolicyKind::InterWithAdj, elapsed);
    assert!(
        adj_r <= intra_r * 1.01,
        "{engine}/Random: WITH-ADJ must not lose ({adj_r} vs {intra_r})"
    );

    // The paper's negative result: pairing WITHOUT dynamic adjustment is
    // not competitive — it loses to WITH-ADJ everywhere and even to
    // INTRA-ONLY on the random mix.
    for kind in WorkloadKind::all() {
        let noadj = mean_elapsed(&sys, kind, PolicyKind::InterWithoutAdj, elapsed);
        let adj = mean_elapsed(&sys, kind, PolicyKind::InterWithAdj, elapsed);
        assert!(
            adj <= noadj * 1.02,
            "{engine}/{}: WITHOUT-ADJ must not beat WITH-ADJ ({noadj} vs {adj})",
            kind.label()
        );
    }
    let noadj_r = mean_elapsed(&sys, WorkloadKind::RandomMix, PolicyKind::InterWithoutAdj, elapsed);
    assert!(
        noadj_r > intra_r * 1.05,
        "{engine}/Random: WITHOUT-ADJ should lose to INTRA-ONLY ({noadj_r} vs {intra_r})"
    );
}

#[test]
fn figure7_shape_holds_on_the_fluid_engine() {
    shapes(fluid_elapsed, "fluid");
}

#[test]
fn figure7_shape_holds_on_the_des_engine() {
    shapes(des_elapsed, "DES");
}

#[test]
fn des_and_fluid_agree_on_the_winner_per_workload() {
    let sys = XprsSystem::paper_default();
    for kind in [WorkloadKind::Extreme, WorkloadKind::RandomMix] {
        let fluid_best = PolicyKind::all()
            .into_iter()
            .min_by(|a, b| {
                mean_elapsed(&sys, kind, *a, fluid_elapsed)
                    .total_cmp(&mean_elapsed(&sys, kind, *b, fluid_elapsed))
            })
            .unwrap();
        let des_best = PolicyKind::all()
            .into_iter()
            .min_by(|a, b| {
                mean_elapsed(&sys, kind, *a, des_elapsed)
                    .total_cmp(&mean_elapsed(&sys, kind, *b, des_elapsed))
            })
            .unwrap();
        assert_eq!(
            fluid_best.label(),
            des_best.label(),
            "engines disagree on the best policy for {}",
            kind.label()
        );
    }
}

//! One decide loop, three call sites: the fluid driver, the DES and the
//! threaded executor must all settle on a policy that acts for exactly
//! `FIXPOINT_ROUNDS` rounds at one instant, and all declare
//! `FixpointDiverged` on one round more — so a captured executor trace and
//! its fluid replay cannot disagree at the edge.

use std::sync::Arc;

use xprs_disk::{DiskParams, RelId, StripedLayout};
use xprs_executor::{ExecConfig, ExecError, Executor, QueryRun, RelBinding};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::fluid::FluidSim;
use xprs_scheduler::policy::FIXPOINT_ROUNDS;
use xprs_scheduler::{IoKind, MachineConfig, SchedError, TaskId, TaskProfile};
use xprs_sim::{SimConfig, SimTask, Simulator};
use xprs_storage::{Catalog, Datum, Schema, Tuple};

#[path = "../crates/scheduler/tests/common/flipper.rs"]
mod flipper;
use flipper::Flipper;

fn task() -> TaskProfile {
    TaskProfile::new(TaskId(0), 2.0, 10.0, IoKind::Sequential)
}

fn fluid(rounds: u32) -> Result<(), SchedError> {
    FluidSim::new(MachineConfig::paper_default()).run(&mut Flipper::new(rounds), &[task()]).map(drop)
}

fn des(rounds: u32) -> Result<(), SchedError> {
    let m = MachineConfig::paper_default();
    let params = DiskParams::from_rates(m.seq_bw, m.almost_seq_bw, m.random_bw);
    let arrivals = [(SimTask::from_profile(task(), RelId(1), &params), 0.0)];
    Simulator::new(SimConfig::paper_default())
        .run(&mut Flipper::new(rounds), &arrivals)
        .map(drop)
        .map_err(|e| e.source)
}

fn executor(rounds: u32) -> Result<(), SchedError> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    cat.create("r", Schema::paper_rel());
    cat.load("r", (0..400).map(|i| Tuple::from_values(vec![Datum::Int(i), Datum::Text("x".repeat(64))])));
    let cat = Arc::new(cat);
    let optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(&cat, &Query::selection("r", 1.0), Costing::SeqCost)
        .expect("plan");
    let run = QueryRun {
        optimized,
        bindings: vec![RelBinding { name: "r".into(), pred: (i32::MIN, i32::MAX) }],
    };
    match Executor::new(ExecConfig::unthrottled(), cat).run(&[run], &mut Flipper::new(rounds)) {
        Ok(report) => {
            assert_eq!(report.results[0].rows.rows.len(), 400, "the settled run must finish");
            Ok(())
        }
        Err(ExecError::Sched { source, .. }) => Err(source),
        Err(other) => panic!("unexpected failure: {other}"),
    }
}

#[test]
fn all_three_drivers_settle_on_the_last_round_and_diverge_on_the_next() {
    let diverged = SchedError::FixpointDiverged { policy: "FLIPPER", rounds: FIXPOINT_ROUNDS };
    for (name, driver) in [
        ("fluid", fluid as fn(u32) -> Result<(), SchedError>),
        ("des", des),
        ("executor", executor),
    ] {
        assert_eq!(driver(FIXPOINT_ROUNDS), Ok(()), "{name}: the last allowed round settles");
        assert_eq!(driver(FIXPOINT_ROUNDS + 1), Err(diverged.clone()), "{name}");
    }
}

//! The online prediction layer, end to end: declared profiles seeded wrong
//! by 4x converge onto the realized rates after a few repetitions of the
//! same plan shape, concurrent joins declared wrong by 2–8x are learned
//! without changing an answer, traces containing `predict` records still
//! replay through the fluid model, and prediction stays a pure function of
//! the observation stream under randomized (seeded) streams.

use std::sync::{Arc, Mutex, PoisonError};

use proptest::prelude::*;
use xprs_disk::{FaultPlan, StripedLayout};
use xprs_executor::{ExecConfig, ExecReport, Executor, QueryRun, RelBinding};
use xprs_obs::json::{parse, JsonValue};
use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_scheduler::predict::{Observation, PredictKey, Predictor};
use xprs_scheduler::trace::{
    action_signature, action_stream, replay_through_fluid, SharedSink, TraceRecord,
};
use xprs_scheduler::{IoKind, MachineConfig, TaskId, TaskProfile};
use xprs_storage::{Catalog, Datum, Schema, Tuple, PAGE_SIZE};
use xprs_testkit::{oracle, wrong_joins};

/// Wall-clock speedup of the throttled runs; observations only train the
/// model when the executor runs on a (scaled) clock. Kept low enough that
/// each rep's wall time dwarfs host-scheduler noise.
const SPEEDUP: f64 = 20.0;

/// Warm-up repetitions of the identical plan shape before measuring.
const REPS: usize = 5;

/// Measured repetitions averaged into the realized ground truth, so one
/// noisy rep cannot fail the convergence bound.
const MEASURED: usize = 3;

/// Held by every test that runs the executor: the convergence test
/// measures realized times off the wall clock at 20×, so a sibling's paced
/// run on the same cores is host lateness it would learn as the model.
static PACED: Mutex<()> = Mutex::new(());

fn lcg(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *seed >> 33
}

/// One IO-heavy relation: few tuples per page, so the scan's cost is disk
/// time the throttled machine actually simulates.
fn catalog() -> Arc<Catalog> {
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xBEEF_u64;
    cat.create("fat", Schema::paper_rel());
    let rows: Vec<Tuple> = (0..1500u64)
        .map(|_| {
            let a = (lcg(&mut seed) % 100) as i32;
            Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(800))])
        })
        .collect();
    cat.load("fat", rows);
    cat.build_index("fat", false);
    Arc::new(cat)
}

/// A single processor pins the applied parallelism at 1, so the realized
/// sequential time of the scan is exactly its simulated elapsed time —
/// measurable from the report without knowing the policy's decisions.
fn machine() -> MachineConfig {
    MachineConfig { n_procs: 1, ..MachineConfig::paper_default() }
}

/// Full scan of `fat` with every declared scalar seeded wrong by 4x:
/// `T_i` four times too short, `C_i` four times too high, footprint four
/// times too small. The prior is wrong in the direction that makes the
/// scheduler over-admit and under-provision.
fn wrong_by_4x_run(cat: &Arc<Catalog>) -> QueryRun {
    let q = Query::selection("fat", 1.0);
    let mut optimized = TwoPhaseOptimizer::paper_default()
        .optimize_catalog(cat, &q, Costing::SeqCost)
        .expect("plan");
    for f in &mut optimized.fragments.fragments {
        f.profile.seq_time /= 4.0;
        f.profile.io_rate *= 4.0;
        f.profile.memory /= 4.0;
    }
    QueryRun {
        optimized,
        bindings: vec![RelBinding { name: "fat".into(), pred: (i32::MIN, i32::MAX) }],
    }
}

fn scaled_cfg(predictor: &Arc<Predictor>) -> ExecConfig {
    let mut cfg = ExecConfig::scaled(SPEEDUP).with_predictor(predictor.clone());
    cfg.machine = machine();
    cfg
}

fn run_once(cfg: ExecConfig, cat: &Arc<Catalog>, run: &QueryRun, sink: Option<SharedSink>) -> ExecReport {
    let mut policy = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine()));
    let mut exec = Executor::new(cfg, cat.clone());
    if let Some(s) = sink {
        exec = exec.with_trace(s);
    }
    exec.run(std::slice::from_ref(run), &mut policy).expect("predicted run")
}

#[test]
fn wrong_by_4x_declarations_converge_onto_realized_rates() {
    let _paced = PACED.lock().unwrap_or_else(PoisonError::into_inner);
    let cat = catalog();
    let run = wrong_by_4x_run(&cat);
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));

    for _ in 0..REPS {
        run_once(scaled_cfg(&predictor), &cat, &run, None);
    }
    // Measured phase: realized ground truth is the average of several
    // reps (one processor ⇒ applied parallelism 1 ⇒ realized T_i is the
    // fragment's simulated elapsed), and the prediction under test is the
    // substitution the last rep's trace records.
    let mut realized_t_sum = 0.0;
    let mut pages = 0.0;
    let mut records = Vec::new();
    for _ in 0..MEASURED {
        let trace = SharedSink::default();
        let report = run_once(scaled_cfg(&predictor), &cat, &run, Some(trace.clone()));
        let frag = &report.profiles[0].fragments[0];
        realized_t_sum += (frag.finished_at - frag.started_at) / report.scale;
        pages = frag.observed_pages as f64;
        records = trace.lock().unwrap().clone();
    }
    let realized_t = realized_t_sum / MEASURED as f64;
    let realized_c = pages / realized_t;
    assert!(realized_t > 0.0 && realized_c.is_finite());

    let predict = records
        .iter()
        .find_map(|r| match r {
            TraceRecord::Predict {
                declared_seq_time,
                declared_io_rate,
                predicted_seq_time,
                predicted_io_rate,
                observations,
                ..
            } => Some((
                *declared_seq_time,
                *declared_io_rate,
                *predicted_seq_time,
                *predicted_io_rate,
                *observations,
            )),
            _ => None,
        })
        .expect("a warm model must substitute by the final rep");
    let (d_t, d_c, p_t, p_c, n_obs) = predict;
    assert!(n_obs as usize >= REPS, "every clean rep must train the model");

    let rel = |pred: f64, truth: f64| (pred - truth).abs() / truth;
    assert!(
        rel(p_t, realized_t) <= 0.2,
        "predicted T_i {p_t:.3} must land within 20% of realized {realized_t:.3}"
    );
    assert!(
        rel(p_c, realized_c) <= 0.2,
        "predicted C_i {p_c:.3} must land within 20% of realized {realized_c:.3}"
    );
    // And the prediction must actually beat the seeded-wrong prior.
    assert!(rel(p_t, realized_t) < rel(d_t, realized_t));
    assert!(rel(p_c, realized_c) < rel(d_c, realized_c));
}

/// Repetitions per mode of the declared-vs-predicted A/B.
const AB_REPS: usize = 4;

/// Four concurrent joins declared wrong by 2–8x, run `AB_REPS` times
/// trusting the declarations and `AB_REPS` times with one shared predictor.
/// Every repetition of either mode returns the declared first run's rows
/// and closes both ledgers; by the last one the warm model substitutes
/// profiles, the planted footprint overruns are fewer than at first (or
/// gone), and the two modes' whole-worker schedules differ — prediction
/// changed a decision.
#[test]
fn concurrent_joins_declared_wrong_are_learned_without_changing_an_answer() {
    const SEED: u64 = 0x9D1C;
    let _paced = PACED.lock().unwrap_or_else(PoisonError::into_inner);
    let cat = wrong_joins::catalog(SEED);
    let runs = wrong_joins::wrong_runs(&cat, SEED);
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));
    let declared: Vec<_> = (0..AB_REPS).map(|_| wrong_joins::run(&cat, &runs, None)).collect();
    let predicted: Vec<_> =
        (0..AB_REPS).map(|_| wrong_joins::run(&cat, &runs, Some(&predictor))).collect();

    let rows = |r: &ExecReport| r.results.iter().map(|q| q.rows.rows.len()).sum::<usize>();
    let want = rows(&declared[0].0);
    assert!(want > 0, "vacuous joins");
    let answers: Vec<_> =
        runs.iter().map(|q| oracle::eval(&cat, &q.optimized.plan, &q.bindings)).collect();
    for (mode, reps) in [("declared", &declared), ("predicted", &predicted)] {
        for (i, (r, _)) in reps.iter().enumerate() {
            assert_eq!(rows(r), want, "{mode} rep {i}: prediction changed an answer");
            for (q, answer) in answers.iter().enumerate() {
                let label = format!("{mode} rep {i} query {q}");
                oracle::assert_matches(&label, &r.results[q].rows.rows, answer);
            }
            assert_eq!(r.mem_granted_pages, r.mem_released_pages, "{mode} rep {i}: grant ledger");
            assert_eq!(r.pool_pinned_at_exit, 0, "{mode} rep {i}: pages pinned at exit");
        }
    }
    let (first, last) = (&predicted[0].0, &predicted[AB_REPS - 1]);
    let predicts = last.1.iter().filter(|r| matches!(r, TraceRecord::Predict { .. })).count();
    assert!(predicts > 0, "the warm predictor never substituted a profile");
    let (before, after) = (first.footprint_overruns(), last.0.footprint_overruns());
    assert!(before > after || after == 0, "footprint overruns did not fall: {before} -> {after}");
    let n_procs = MachineConfig::paper_default().n_procs;
    let signature = |records: &[TraceRecord]| action_signature(&action_stream(records), n_procs);
    assert_ne!(
        signature(&declared[AB_REPS - 1].1),
        signature(&last.1),
        "declared and predicted modes made identical decisions"
    );
}

#[test]
fn traces_with_predict_records_replay_through_the_fluid_model() {
    let _paced = PACED.lock().unwrap_or_else(PoisonError::into_inner);
    let cat = catalog();
    let run = wrong_by_4x_run(&cat);
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));
    for _ in 0..3 {
        run_once(scaled_cfg(&predictor), &cat, &run, None);
    }
    let trace = SharedSink::default();
    run_once(scaled_cfg(&predictor), &cat, &run, Some(trace.clone()));

    let records = trace.lock().unwrap().clone();
    assert!(
        records.iter().any(|r| matches!(r, TraceRecord::Predict { .. })),
        "a warm predictor must leave predict records in the trace"
    );

    // The substituted profile rides the Arrival records, so the analytic
    // replay re-derives the same whole-worker schedule from a trace that
    // interleaves predict records with decisions.
    let recorded = action_stream(&records);
    assert!(!recorded.is_empty());
    let replayed = replay_through_fluid(&records).expect("fluid replay");
    assert_eq!(
        action_signature(&recorded, machine().n_procs),
        action_signature(&replayed, machine().n_procs),
        "threaded capture and fluid replay disagree on a predicted trace"
    );
}

/// A run's prediction outcomes are its fragments' facts: `metrics.json`
/// counts every substitution a warm predictor made — one per `predict`
/// trace record.
#[test]
fn substitutions_are_counted_once_per_predict_record() {
    let _paced = PACED.lock().unwrap_or_else(PoisonError::into_inner);
    let cat = catalog();
    let run = wrong_by_4x_run(&cat);
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));
    for _ in 0..3 {
        run_once(scaled_cfg(&predictor), &cat, &run, None);
    }
    let trace = SharedSink::default();
    let report = run_once(scaled_cfg(&predictor), &cat, &run, Some(trace.clone()));

    let records = trace.lock().unwrap().clone();
    let predicts = records.iter().filter(|r| matches!(r, TraceRecord::Predict { .. })).count();
    let doc = parse(&report.metrics_json()).expect("metrics.json must parse");
    let substitutions = doc
        .get("predict")
        .and_then(|p| p.get("substitutions"))
        .and_then(JsonValue::num)
        .expect("predict.substitutions");
    assert!(substitutions > 0.0, "a warm predictor substituted nothing");
    assert_eq!(substitutions as usize, predicts);
}

/// A worker death truncates only its own fragment's observation. Scan A
/// (20 pages, fragment 0) loses slot 0 after its first unit while scan B
/// (400 pages) runs beside it, twice: A's observations are discarded, B's
/// two are clean, so B run alone is announced with a warm model.
#[test]
fn a_worker_death_truncates_only_its_own_fragments_observation() {
    let _paced = PACED.lock().unwrap_or_else(PoisonError::into_inner);
    let mut cat = Catalog::new(StripedLayout::new(4));
    let mut seed = 0xD1E5_u64;
    for (name, n) in [("short", 200u64), ("long", 4_000)] {
        cat.create(name, Schema::paper_rel());
        let rows: Vec<Tuple> = (0..n)
            .map(|_| {
                let a = (lcg(&mut seed) % 100) as i32;
                Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(800))])
            })
            .collect();
        cat.load(name, rows);
    }
    let cat = Arc::new(cat);
    let scan = |name: &str| QueryRun {
        optimized: TwoPhaseOptimizer::paper_default()
            .optimize_catalog(&cat, &Query::selection(name, 1.0), Costing::SeqCost)
            .expect("plan"),
        bindings: vec![RelBinding { name: name.into(), pred: (i32::MIN, i32::MAX) }],
    };
    let (a, b) = (scan("short"), scan("long"));
    let predictor = Arc::new(Predictor::new(PAGE_SIZE as u64));
    let run = |cfg: ExecConfig, queries: &[QueryRun]| {
        let mut policy =
            AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
        Executor::new(cfg, cat.clone()).run(queries, &mut policy).expect("run")
    };
    let cfg = || ExecConfig::scaled(SPEEDUP).with_predictor(predictor.clone());

    for _ in 0..2 {
        let plan = Arc::new(FaultPlan::new().with_worker_death(0, 0, 1));
        let report = run(cfg().with_faults(plan.clone()), &[a.clone(), b.clone()]);
        assert_eq!(plan.stats().deaths_fired(), 1, "the worker death must fire");
        let (fa, fb) = (&report.profiles[0].fragments[0], &report.profiles[1].fragments[0]);
        assert_eq!(fa.recoveries, plan.stats().deaths_fired(), "A's dead slot, replaced once");
        assert_eq!(fb.recoveries, 0, "B lost no worker");
        assert!(fb.finished_at > fa.finished_at, "the premise: B outlasts A's recovery");
    }
    let alone = run(cfg(), &[b]);
    assert_eq!(
        alone.profiles[0].fragments[0].prediction,
        Some(true),
        "B's two clean observations must warm its model"
    );
}

/// Strategy for one (possibly degenerate) observation: finite-positive
/// and junk values both appear, so the purity claim covers the guard
/// paths (discarded observations must be discarded identically).
fn observation_strategy() -> impl Strategy<Value = Observation> {
    (
        prop_oneof![0.1f64..100.0, Just(f64::NAN), Just(0.0)],
        0.1f64..100.0,
        prop_oneof![0.01f64..500.0, Just(-1.0), Just(f64::INFINITY)],
        0.0f64..2000.0,
        0u32..6,
        proptest::bool::ANY,
    )
        .prop_map(|(realized, d_t, pages, d_c, co, truncated)| Observation {
            declared_seq_time: d_t,
            declared_io_rate: d_c.max(0.01),
            realized_seq_time: realized,
            observed_pages: pages,
            co_runners: co,
            truncated,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two predictors fed the identical observation stream answer every
    /// query bit-for-bit identically: no clocks, no randomness, no
    /// map-order dependence — the replay harness depends on this.
    #[test]
    fn prediction_is_a_pure_function_of_the_observation_stream(
        stream in proptest::collection::vec((0u64..4, 0u64..4, observation_strategy()), 1..80),
    ) {
        let a = Predictor::new(PAGE_SIZE as u64);
        let b = Predictor::new(PAGE_SIZE as u64);
        let declared = TaskProfile::new(TaskId(1), 10.0, 20.0, IoKind::Sequential)
            .with_memory(64.0 * PAGE_SIZE as f64);
        for (shape, mag, obs) in &stream {
            let key = PredictKey::new(*shape, 50 << mag);
            a.observe(key, obs);
            b.observe(key, obs);
        }
        for (shape, mag, _) in &stream {
            let key = PredictKey::new(*shape, 50 << mag);
            for co in 0..6 {
                let pa = a.predict(key, &declared, co);
                let pb = b.predict(key, &declared, co);
                prop_assert_eq!(pa.profile.seq_time.to_bits(), pb.profile.seq_time.to_bits());
                prop_assert_eq!(pa.profile.io_rate.to_bits(), pb.profile.io_rate.to_bits());
                prop_assert_eq!(pa.profile.memory.to_bits(), pb.profile.memory.to_bits());
                prop_assert_eq!(pa.observations, pb.observations);
                prop_assert_eq!(pa.from_model, pb.from_model);
                // Whatever the stream contained, the scheduler never sees
                // a poisoned profile.
                prop_assert!(pa.profile.validate().is_ok());
            }
        }
    }
}

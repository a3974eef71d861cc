//! Fluid (rate-based) replay of a scheduling policy, and the paper's
//! `T_n(S)` parallel-execution-time estimator built on top of it.
//!
//! The fluid model advances virtual time between scheduling events. A task
//! running with parallelism `x_i` progresses at `x_i` sequential-seconds per
//! second, throttled when the running mix over-commits either resource:
//!
//! * if the aggregate I/O demand `Σ C_i·x_i` exceeds the interference-
//!   corrected effective bandwidth, every task is scaled by the delivered
//!   fraction (a pipelined fragment advances exactly as fast as its pages
//!   arrive);
//! * if the policy over-allocates processors (`Σ x_i > N`), progress is
//!   scaled by `N / Σ x_i`.
//!
//! A policy that keeps the system at the IO-CPU balance point never incurs
//! either penalty — that is the point of the paper. Replaying the
//! `INTER-WITH-ADJ` policy with fractional allocations therefore computes
//! exactly the recursive `T_n(S)` formula of Section 4, including the
//! order-dependency extension for fragments of a bushy plan, which is what
//! the optimizer's `parcost(p, n)` evaluates.
//!
//! Control-path anomalies — a policy that never reaches a fixpoint, an
//! action naming an unknown or non-running task, a wedged schedule — are
//! returned as [`SchedError`]s, not panics, and every decision is optionally
//! recorded into a [`crate::trace::RingSink`] attached with
//! [`FluidSim::with_sink`].

use crate::balance::effective_bandwidth;
use crate::deps::FragmentDag;
use crate::error::SchedError;
use crate::frag_table::FragTable;
use crate::machine::MachineConfig;
use crate::policy::{decide_fixpoint, Action, RunningTask, SchedulePolicy};
use crate::task::{TaskId, TaskProfile};
use crate::trace::{emit, SharedSink, TraceRecord};

/// One interval of the schedule during which the running set was constant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSegment {
    /// Segment start, seconds of virtual time.
    pub start: f64,
    /// Segment end.
    pub end: f64,
    /// `(task, parallelism, progress rate)` for every running task.
    pub running: Vec<(TaskId, f64, f64)>,
}

/// The full schedule trace: contiguous segments from 0 to completion.
#[derive(Debug, Clone, Default)]
pub struct ScheduleTrace {
    /// Segments in time order.
    pub segments: Vec<TraceSegment>,
}

impl ScheduleTrace {
    /// Time-averaged processor utilization (allocated workers / N).
    pub fn cpu_utilization(&self, m: &MachineConfig) -> f64 {
        let total: f64 = self.segments.iter().map(|s| s.end - s.start).sum();
        if total == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .segments
            .iter()
            .map(|s| {
                let x: f64 = s.running.iter().map(|(_, x, _)| x).sum();
                (s.end - s.start) * x.min(m.n_procs as f64)
            })
            .sum();
        busy / (total * m.n_procs as f64)
    }
}

/// Outcome of one fluid replay.
#[derive(Debug, Clone)]
pub struct FluidResult {
    /// Completion time of the last task.
    pub elapsed: f64,
    /// Per-task `(start, finish)` times, in input order.
    pub task_times: Vec<(TaskId, f64, f64)>,
    /// The schedule trace.
    pub trace: ScheduleTrace,
}

impl FluidResult {
    /// Mean response time (finish − release) over all tasks; releases are
    /// the arrival (or readiness) times passed to the simulator.
    pub fn mean_response_time(&self, releases: &[(TaskId, f64)]) -> f64 {
        if self.task_times.is_empty() {
            return 0.0;
        }
        let rel = |id: TaskId| releases.iter().find(|(t, _)| *t == id).map(|(_, r)| *r).unwrap_or(0.0);
        let sum: f64 = self.task_times.iter().map(|(id, _, fin)| fin - rel(*id)).sum();
        sum / self.task_times.len() as f64
    }
}

/// What the fluid model holds for a running fragment.
struct RunState {
    parallelism: f64,
    remaining: f64,
    started_at: f64,
}

/// The lifecycle table plus the running fragments in *start* order — the
/// order the policy's snapshot and the rate sums have always used.
struct Frags {
    table: FragTable<RunState>,
    order: Vec<usize>,
}

impl Frags {
    fn running(&self) -> impl Iterator<Item = (usize, &RunState)> {
        self.order.iter().map(|&i| {
            (i, self.table.running(i).expect("`order` lists exactly the running fragments"))
        })
    }
}

/// Fluid-model driver: replays any [`SchedulePolicy`] over a task set (with
/// optional arrival times and dependencies) in virtual time.
pub struct FluidSim {
    machine: MachineConfig,
    sink: Option<SharedSink>,
    /// Scheduled machine corrections as `(finish_count, machine)`: once that
    /// many tasks have finished, the sim and the policy re-base on the
    /// corrected machine. This is how a captured degradation-aware run (see
    /// [`crate::trace::replay_through_fluid`]) replays in virtual time — the
    /// recalibration fires at the same *causal* position it was recorded at,
    /// not at a meaningless wall-clock timestamp.
    recalibrations: Vec<(usize, MachineConfig)>,
}

impl FluidSim {
    /// Driver for machine `m` (must match the policy's machine).
    pub fn new(machine: MachineConfig) -> Self {
        FluidSim { machine, sink: None, recalibrations: Vec::new() }
    }

    /// Record every arrival, decision and applied action into `sink`.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Schedule machine corrections to apply after the given numbers of task
    /// completions (see the field docs on `recalibrations`).
    pub fn with_recalibrations(mut self, mut recals: Vec<(usize, MachineConfig)>) -> Self {
        recals.sort_by_key(|(after, _)| *after);
        self.recalibrations = recals;
        self
    }

    /// Replay `policy` over tasks that are all runnable at time zero.
    ///
    /// # Errors
    /// Any control-path [`SchedError`] the policy provokes; the lifecycle
    /// half of the taxonomy is [`FragTable`]'s.
    pub fn run<P: SchedulePolicy + ?Sized>(
        &self,
        policy: &mut P,
        tasks: &[TaskProfile],
    ) -> Result<FluidResult, SchedError> {
        let mut table = FragTable::new();
        let due: Vec<(usize, f64)> = tasks.iter().map(|t| (table.add(t.id, &[]), 0.0)).collect();
        self.run_inner(policy, tasks, table, &due)
    }

    /// Replay `policy` over a stream of `(task, arrival time)` pairs.
    ///
    /// # Errors
    /// Any control-path [`SchedError`] the policy provokes.
    pub fn run_with_arrivals<P: SchedulePolicy + ?Sized>(
        &self,
        policy: &mut P,
        arrivals: &[(TaskProfile, f64)],
    ) -> Result<FluidResult, SchedError> {
        let mut table = FragTable::new();
        let (tasks, mut due): (Vec<TaskProfile>, Vec<(usize, f64)>) = arrivals
            .iter()
            .map(|(t, at)| (t.clone(), (table.add(t.id, &[]), *at)))
            .unzip();
        due.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.run_inner(policy, &tasks, table, &due)
    }

    /// Replay `policy` over a fragment DAG: a fragment is released when all
    /// of its producers have finished (Section 4's ready check).
    ///
    /// # Errors
    /// Any control-path [`SchedError`] the policy provokes.
    pub fn run_dag<P: SchedulePolicy + ?Sized>(
        &self,
        policy: &mut P,
        dag: &FragmentDag,
    ) -> Result<FluidResult, SchedError> {
        let due: Vec<(usize, f64)> = dag.roots().into_iter().map(|i| (i, 0.0)).collect();
        self.run_inner(policy, dag.tasks(), FragTable::from_dag(dag), &due)
    }

    /// Emit an [`TraceRecord::Error`] and return the error — every `Err`
    /// path funnels through here so a captured trace always ends with the
    /// failure it led up to.
    fn fail(&self, now: f64, err: SchedError) -> SchedError {
        emit(&self.sink, || TraceRecord::Error { now, message: err.to_string() });
        err
    }

    /// `tasks[i]` is the profile of the table's fragment `i`; `due` lists the
    /// root fragments with their arrival times, earliest first.
    fn run_inner<P: SchedulePolicy + ?Sized>(
        &self,
        policy: &mut P,
        tasks: &[TaskProfile],
        table: FragTable<RunState>,
        due: &[(usize, f64)],
    ) -> Result<FluidResult, SchedError> {
        // The machine may be re-based mid-run by a scheduled recalibration.
        let mut machine = self.machine.clone();
        let mut recal_idx = 0usize;
        let eps = 1e-9;

        emit(&self.sink, || TraceRecord::RunStart {
            driver: "fluid".to_string(),
            policy: policy.name().to_string(),
            machine: machine.clone(),
        });

        let mut due_idx = 0;
        let mut frags = Frags { table, order: Vec::new() };
        let mut task_times: Vec<(TaskId, f64, f64)> = Vec::new();
        let mut trace = ScheduleTrace::default();
        let mut now = 0.0_f64;
        let announce = |policy: &mut P, now: f64, idx: usize| {
            emit(&self.sink, || TraceRecord::Arrival { now, profile: tasks[idx].clone() });
            policy.on_arrival(now, tasks[idx].clone());
        };

        // Generous bound: each task contributes at most a handful of events.
        let max_steps = 64 * (tasks.len() + 1);
        for _step in 0..max_steps {
            // Apply machine corrections whose causal position (number of
            // completed tasks) has been reached, before the next decide.
            while recal_idx < self.recalibrations.len()
                && self.recalibrations[recal_idx].0 <= task_times.len()
            {
                let modeled = machine.total_bandwidth();
                machine = self.recalibrations[recal_idx].1.clone();
                recal_idx += 1;
                emit(&self.sink, || TraceRecord::Recalibrate {
                    now,
                    observed_b: machine.total_bandwidth(),
                    modeled_b: modeled,
                    machine: machine.clone(),
                });
                policy.recalibrate(now, machine.clone());
            }

            // Deliver arrivals due now.
            while let Some(&(idx, at)) = due.get(due_idx).filter(|d| d.1 <= now + eps) {
                if frags.table.release(idx) {
                    announce(policy, at.max(now), idx);
                }
                due_idx += 1;
            }

            // Let the policy reach a fixpoint of starts/adjusts.
            decide_fixpoint(
                policy,
                &self.sink,
                now,
                &mut frags,
                |frags| {
                    frags
                        .running()
                        .map(|(i, r)| RunningTask {
                            profile: tasks[i].clone(),
                            parallelism: r.parallelism,
                            remaining_seq_time: r.remaining,
                        })
                        .collect()
                },
                |frags, a| {
                    let idx = frags.table.lookup(a.task())?;
                    let parallelism = a.parallelism();
                    match a {
                        Action::Start { .. } => {
                            let remaining = tasks[idx].seq_time;
                            frags.table.start(idx, || {
                                Ok::<_, SchedError>(RunState { parallelism, remaining, started_at: now })
                            })?;
                            frags.order.push(idx);
                        }
                        Action::Adjust { .. } => {
                            frags.table.running_mut(idx)?.parallelism = parallelism;
                        }
                    }
                    Ok(true)
                },
            )
            .map_err(|e| self.fail(now, e))?;

            if frags.order.is_empty() {
                if frags.table.all_done() {
                    break;
                }
                // Idle until the next timed arrival; with none left, nothing
                // can ever run again.
                let Some(&(_, at)) = due.get(due_idx) else {
                    frags.table.wedge_check(policy.name()).map_err(|e| self.fail(now, e))?;
                    break;
                };
                now = at;
                continue;
            }

            // Progress rates under resource throttling.
            let n = machine.n_procs as f64;
            let total_x: f64 = frags.running().map(|(_, r)| r.parallelism).sum();
            let cpu_scale = (n / total_x).min(1.0);
            let streams: Vec<(f64, crate::task::IoKind)> = frags
                .running()
                .map(|(i, r)| (tasks[i].io_rate * r.parallelism * cpu_scale, tasks[i].io_kind))
                .collect();
            let bw = effective_bandwidth(&machine, &streams);
            let demand: f64 = streams.iter().map(|(d, _)| d).sum();
            let io_scale = if demand > bw { bw / demand } else { 1.0 };
            let scale = cpu_scale * io_scale;
            let rates: Vec<f64> = frags.running().map(|(_, r)| r.parallelism * scale).collect();

            // Next event: earliest completion or next arrival.
            let mut dt = f64::INFINITY;
            for ((_, r), &rate) in frags.running().zip(&rates) {
                debug_assert!(rate > 0.0);
                dt = dt.min(r.remaining / rate);
            }
            if let Some(&(_, at)) = due.get(due_idx) {
                dt = dt.min(at - now);
            }
            debug_assert!(dt.is_finite() && dt >= 0.0);

            trace.segments.push(TraceSegment {
                start: now,
                end: now + dt,
                running: frags
                    .running()
                    .zip(&rates)
                    .map(|((i, r), &rate)| (tasks[i].id, r.parallelism, rate))
                    .collect(),
            });

            now += dt;

            // Retire finished tasks — every `on_finish` of the instant first
            // — then announce the fragments they unblocked, in index order.
            let mut released = Vec::new();
            let mut still_running = Vec::with_capacity(frags.order.len());
            for (idx, rate) in std::mem::take(&mut frags.order).into_iter().zip(rates) {
                let r = frags.table.running_mut(idx).map_err(|e| self.fail(now, e))?;
                r.remaining -= rate * dt;
                if r.remaining > eps * tasks[idx].seq_time.max(1.0) {
                    still_running.push(idx);
                    continue;
                }
                let (r, ready) = frags.table.finish(idx).map_err(|e| self.fail(now, e))?;
                let id = tasks[idx].id;
                task_times.push((id, r.started_at, now));
                emit(&self.sink, || TraceRecord::Finish { now, task: id });
                policy.on_finish(now, id);
                released.extend(ready);
            }
            frags.order = still_running;
            released.sort_unstable();
            for idx in released {
                announce(policy, now, idx);
            }
        }

        if task_times.len() != tasks.len() {
            return Err(self.fail(
                now,
                SchedError::Incomplete {
                    policy: policy.name(),
                    completed: task_times.len(),
                    total: tasks.len(),
                },
            ));
        }
        Ok(FluidResult { elapsed: now, task_times, trace })
    }
}

/// Joint `T_n` over the fragments of several queries scheduled together —
/// the multi-query parallel optimization the paper's Section 5 plans as
/// future work. Task ids must be globally unique across the DAGs.
pub fn tn_estimate_dags(m: &MachineConfig, dags: &[&FragmentDag]) -> f64 {
    let mut merged = FragmentDag::new();
    for dag in dags {
        merged.append(dag);
    }
    tn_estimate_dag(m, &merged)
}

/// `T_n(F(p))` over a fragment DAG with order dependencies — the quantity
/// the optimizer calls `parcost(p, n)`: the paper's `T_n(S)`, the elapsed
/// time of the fragments on `m.n_procs` processors under the adaptive
/// scheduling algorithm (fractional allocations, dynamic adjustment
/// enabled). Returns `f64::INFINITY` if the replay fails — a plan whose
/// schedule cannot even be replayed must never win a cost comparison.
pub fn tn_estimate_dag(m: &MachineConfig, dag: &FragmentDag) -> f64 {
    use crate::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    if dag.is_empty() {
        return 0.0;
    }
    let mut cfg = AdaptiveConfig::with_adjustment(m.clone());
    cfg.integral = false;
    let mut policy = AdaptiveScheduler::new(cfg);
    FluidSim::new(m.clone())
        .run_dag(&mut policy, dag)
        .map(|r| r.elapsed)
        .unwrap_or(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use crate::estimate::t_intra;
    use crate::intra::IntraOnly;
    use crate::policy::FIXPOINT_ROUNDS;
    use crate::task::IoKind;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn seq(id: u64, t: f64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), t, rate, IoKind::Sequential)
    }

    #[test]
    fn intra_only_elapsed_is_the_sum_of_t_intra() {
        let tasks = vec![seq(0, 24.0, 10.0), seq(1, 12.0, 60.0), seq(2, 8.0, 20.0)];
        let mut p = IntraOnly::new(m(), false);
        let res = FluidSim::new(m()).run(&mut p, &tasks).expect("replay");
        let expected: f64 = tasks.iter().map(|t| t_intra(t, &m())).sum();
        assert!((res.elapsed - expected).abs() < 1e-6, "{} vs {expected}", res.elapsed);
    }

    #[test]
    fn single_task_runs_at_maxp() {
        let tasks = vec![seq(0, 40.0, 60.0)]; // maxp = 4
        let mut p = IntraOnly::new(m(), false);
        let res = FluidSim::new(m()).run(&mut p, &tasks).expect("replay");
        assert!((res.elapsed - 10.0).abs() < 1e-6);
    }

    #[test]
    fn adaptive_beats_intra_on_a_mixed_pair() {
        let tasks = vec![seq(0, 30.0, 65.0), seq(1, 30.0, 8.0)];
        let sim = FluidSim::new(m());
        let mut intra = IntraOnly::new(m(), false);
        let t_base = sim.run(&mut intra, &tasks).expect("replay").elapsed;
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut adj = AdaptiveScheduler::new(cfg);
        let t_adj = sim.run(&mut adj, &tasks).expect("replay").elapsed;
        assert!(
            t_adj < t_base * 0.95,
            "expected a clear win: with-adj {t_adj} vs intra {t_base}"
        );
    }

    #[test]
    fn adaptive_matches_intra_on_uniform_cpu_workload() {
        let tasks: Vec<_> = (0..6).map(|i| seq(i, 10.0 + i as f64, 10.0 + i as f64)).collect();
        let sim = FluidSim::new(m());
        let mut intra = IntraOnly::new(m(), false);
        let t_base = sim.run(&mut intra, &tasks).expect("replay").elapsed;
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut adj = AdaptiveScheduler::new(cfg);
        let t_adj = sim.run(&mut adj, &tasks).expect("replay").elapsed;
        assert!((t_adj - t_base).abs() < 1e-6 * t_base);
    }

    #[test]
    fn elapsed_never_beats_physical_lower_bounds() {
        let tasks = vec![
            seq(0, 30.0, 65.0),
            seq(1, 30.0, 8.0),
            seq(2, 12.0, 45.0),
            seq(3, 20.0, 15.0),
        ];
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut adj = AdaptiveScheduler::new(cfg);
        let res = FluidSim::new(m()).run(&mut adj, &tasks).expect("replay");
        let total_work: f64 = tasks.iter().map(|t| t.seq_time).sum();
        let total_ios: f64 = tasks.iter().map(|t| t.total_ios()).sum();
        // CPU bound: N processors; IO bound: the best bandwidth the array
        // can ever deliver.
        assert!(res.elapsed >= total_work / 8.0 - 1e-9);
        assert!(res.elapsed >= total_ios / m().total_bandwidth() - 1e-9);
    }

    #[test]
    fn trace_utilization_is_high_for_a_balanced_pair() {
        let tasks = vec![seq(0, 60.0, 60.0), seq(1, 60.0, 10.0)];
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut adj = AdaptiveScheduler::new(cfg);
        let res = FluidSim::new(m()).run(&mut adj, &tasks).expect("replay");
        // While both run, CPU is fully allocated (utilization 1.0); the
        // average dips only during the survivor's maxp-limited tail. For
        // this pair the exact value is (8·t_pair + 4·t_tail)/(8·total) ≈ 0.78.
        assert!(res.trace.cpu_utilization(&m()) > 0.75, "{}", res.trace.cpu_utilization(&m()));
    }

    #[test]
    fn timed_arrivals_delay_starts() {
        let arrivals = vec![(seq(0, 10.0, 10.0), 0.0), (seq(1, 10.0, 10.0), 100.0)];
        let mut p = IntraOnly::new(m(), false);
        let res = FluidSim::new(m()).run_with_arrivals(&mut p, &arrivals).expect("replay");
        // Task 0 finishes at 1.25; task 1 cannot start before 100.
        assert!((res.elapsed - 101.25).abs() < 1e-6);
        let t1 = res.task_times.iter().find(|(id, _, _)| *id == TaskId(1)).unwrap();
        assert!((t1.1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn dag_dependencies_serialize_fragments() {
        let mut dag = FragmentDag::new();
        let a = dag.add(seq(0, 16.0, 10.0), &[]);
        let _b = dag.add(seq(1, 16.0, 10.0), &[a]);
        let mut p = IntraOnly::new(m(), false);
        let res = FluidSim::new(m()).run_dag(&mut p, &dag).expect("replay");
        // Both CPU-bound at maxp 8: 2 + 2 seconds, strictly sequential.
        assert!((res.elapsed - 4.0).abs() < 1e-6);
    }

    #[test]
    fn tn_estimate_of_empty_dag_is_zero() {
        assert_eq!(tn_estimate_dag(&m(), &FragmentDag::new()), 0.0);
    }

    #[test]
    fn joint_tn_beats_serializing_the_queries() {
        // One IO-heavy query and one CPU-heavy query: scheduled together,
        // their fragments pair; one after the other, they cannot.
        let mut io_dag = FragmentDag::new();
        io_dag.add(seq(0, 20.0, 60.0), &[]);
        let mut cpu_dag = FragmentDag::new();
        cpu_dag.add(seq(100, 20.0, 8.0), &[]);
        let joint = tn_estimate_dags(&m(), &[&io_dag, &cpu_dag]);
        let serial = tn_estimate_dag(&m(), &io_dag) + tn_estimate_dag(&m(), &cpu_dag);
        assert!(joint < serial * 0.9, "joint {joint} vs serial {serial}");
    }

    #[test]
    fn tn_estimate_is_consistent_with_direct_replay() {
        let tasks = vec![seq(0, 30.0, 65.0), seq(1, 30.0, 8.0), seq(2, 10.0, 40.0)];
        let direct = {
            let mut cfg = AdaptiveConfig::with_adjustment(m());
            cfg.integral = false;
            let mut p = AdaptiveScheduler::new(cfg);
            FluidSim::new(m()).run(&mut p, &tasks).expect("replay").elapsed
        };
        let mut dag = FragmentDag::new();
        for t in tasks {
            dag.add(t, &[]);
        }
        assert!((tn_estimate_dag(&m(), &dag) - direct).abs() < 1e-9);
    }

    #[test]
    fn mean_response_time_uses_releases() {
        let tasks = vec![seq(0, 8.0, 10.0), seq(1, 8.0, 10.0)];
        let mut p = IntraOnly::new(m(), false);
        let res = FluidSim::new(m()).run(&mut p, &tasks).expect("replay");
        let releases: Vec<(TaskId, f64)> = tasks.iter().map(|t| (t.id, 0.0)).collect();
        // Finishes at 1 and 2 seconds ⇒ mean response 1.5.
        assert!((res.mean_response_time(&releases) - 1.5).abs() < 1e-6);
    }

    /// A policy that starts a task the driver was never told about.
    struct RogueStart(MachineConfig);
    impl SchedulePolicy for RogueStart {
        fn name(&self) -> &'static str {
            "ROGUE-START"
        }
        fn machine(&self) -> &MachineConfig {
            &self.0
        }
        fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
        fn on_finish(&mut self, _now: f64, _task: TaskId) {}
        fn decide(&mut self, _now: f64, running: &[RunningTask]) -> Vec<Action> {
            if running.is_empty() {
                vec![Action::Start { id: TaskId(999), parallelism: 1.0 }]
            } else {
                vec![]
            }
        }
    }

    /// A policy that re-adjusts forever: never reaches a fixpoint.
    struct NeverSettles {
        m: MachineConfig,
        started: bool,
        flip: f64,
    }
    impl SchedulePolicy for NeverSettles {
        fn name(&self) -> &'static str {
            "NEVER-SETTLES"
        }
        fn machine(&self) -> &MachineConfig {
            &self.m
        }
        fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
        fn on_finish(&mut self, _now: f64, _task: TaskId) {}
        fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
            if !self.started {
                self.started = true;
                return vec![Action::Start { id: TaskId(0), parallelism: 1.0 }];
            }
            self.flip = if self.flip == 1.0 { 2.0 } else { 1.0 };
            vec![Action::Adjust { id: TaskId(0), parallelism: self.flip }]
        }
    }

    #[test]
    fn scheduled_recalibration_rebases_the_policy() {
        use crate::trace::{action_stream, RingSink};
        use std::sync::{Arc, Mutex};
        // Two IO-bound tasks run one at a time; after the first finishes the
        // machine is recalibrated to half its bandwidth, so the second must
        // start at half the intra-operation parallelism.
        let tasks = vec![seq(0, 10.0, 60.0), seq(1, 10.0, 60.0)];
        let mut degraded = m();
        degraded.almost_seq_bw = 30.0; // B: 240 → 120
        let ring = Arc::new(Mutex::new(RingSink::unbounded()));
        let sink: crate::trace::SharedSink = ring.clone();
        let mut p = IntraOnly::new(m(), true);
        FluidSim::new(m())
            .with_recalibrations(vec![(1, degraded)])
            .with_sink(sink)
            .run(&mut p, &tasks)
            .expect("replay");
        let records = ring.lock().unwrap().records();
        assert!(records.iter().any(|r| matches!(r, TraceRecord::Recalibrate { .. })));
        let starts: Vec<f64> = action_stream(&records)
            .into_iter()
            .filter(|(_, a)| matches!(a, Action::Start { .. }))
            .map(|(_, a)| a.parallelism())
            .collect();
        assert_eq!(starts, vec![4.0, 2.0], "second start must plan against the degraded machine");
    }

    #[test]
    fn unknown_task_is_a_typed_error_not_a_panic() {
        let mut p = RogueStart(m());
        let err = FluidSim::new(m()).run(&mut p, &[seq(0, 10.0, 10.0)]).unwrap_err();
        assert_eq!(err, SchedError::UnknownTask { task: TaskId(999) });
    }

    #[test]
    fn diverging_policy_is_a_typed_error_not_a_hang() {
        let mut p = NeverSettles { m: m(), started: false, flip: 1.0 };
        let err = FluidSim::new(m()).run(&mut p, &[seq(0, 10.0, 10.0)]).unwrap_err();
        assert_eq!(
            err,
            SchedError::FixpointDiverged { policy: "NEVER-SETTLES", rounds: FIXPOINT_ROUNDS }
        );
    }

    #[test]
    fn error_paths_record_a_trace_error_record() {
        use crate::trace::RingSink;
        use std::sync::{Arc, Mutex};
        let ring = Arc::new(Mutex::new(RingSink::unbounded()));
        let sink: crate::trace::SharedSink = ring.clone();
        let mut p = RogueStart(m());
        let err = FluidSim::new(m())
            .with_sink(sink)
            .run(&mut p, &[seq(0, 10.0, 10.0)])
            .unwrap_err();
        let records = ring.lock().unwrap().records();
        let last = records.last().expect("trace is non-empty");
        match last {
            TraceRecord::Error { message, .. } => assert_eq!(message, &err.to_string()),
            other => panic!("expected a trailing Error record, got {other:?}"),
        }
    }

    #[test]
    fn sinked_run_replays_identically() {
        use crate::trace::{action_stream, parse_jsonl, to_jsonl, RingSink};
        use std::sync::{Arc, Mutex};

        let tasks = vec![seq(0, 30.0, 65.0), seq(1, 30.0, 8.0), seq(2, 10.0, 40.0)];
        let ring = Arc::new(Mutex::new(RingSink::unbounded()));
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut p = AdaptiveScheduler::new(cfg);
        FluidSim::new(m()).with_sink(ring.clone()).run(&mut p, &tasks).expect("replay");

        // Replay reads the capture back from its JSONL rendering.
        let text = to_jsonl(&ring.lock().unwrap().records());
        let records = parse_jsonl(&text).expect("well-formed trace");
        let recorded = action_stream(&records);
        assert!(!recorded.is_empty());

        // A fresh policy fed the recorded event stream re-derives every
        // recorded decision.
        let mut cfg = AdaptiveConfig::with_adjustment(m());
        cfg.integral = false;
        let mut fresh = AdaptiveScheduler::new(cfg);
        let checked = crate::trace::replay_decisions(&records, &mut fresh).expect("replay");
        assert!(checked > 0);
    }
}

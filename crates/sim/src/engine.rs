//! The discrete-event engine.
//!
//! Entities: one FIFO queue per disk (a disk serves one request at a time at
//! the service rate `xprs-disk` dictates), one processor pool of `N` CPUs
//! with a FIFO ready queue, and per-task worker sets whose page/key
//! assignments come from the Section 2.4 partitioning structures. A worker
//! is a synchronous slave backend: it requests a block, waits for the disk,
//! burns CPU evaluating the qualifications of the tuples on the block, and
//! loops.
//!
//! The engine is the *driver* for a scheduling policy in the sense of
//! [`xprs_scheduler::policy`]: arrivals and completions flow to the policy,
//! its `Start`/`Adjust` actions flow back. `Adjust` runs the real
//! adjustment protocols — the master's round trip is modelled by
//! [`SimConfig::adjust_latency`] and the gradual hand-over (old workers
//! finishing their pages below `maxpage`) happens by construction.

use xprs_disk::{ArrayStats, DiskState, IoRequest, ServiceClass, StripedLayout, WorkerId};
use xprs_scheduler::error::SchedError;
use xprs_scheduler::policy::{
    decide_fixpoint, round_parallelism, Action, RunningTask, SchedulePolicy,
};
use xprs_scheduler::trace::{emit, SharedSink, TraceRecord};
use xprs_scheduler::{FragTable, MachineConfig, Phase};
use xprs_storage::partition::{PagePartition, RangePartition};

use crate::event::{EventKind, EventQueue};
use crate::metrics::SimReport;
use crate::task::{AccessPattern, SimTask};

/// A control-path failure during a simulation, with the statistics gathered
/// up to the instant of failure — a wedged or diverging policy still leaves
/// a usable partial report (and, with a trace sink attached, a replayable
/// record of how it got there).
#[derive(Debug, Clone)]
pub struct SimError {
    /// What went wrong.
    pub source: SchedError,
    /// The report as of the failure instant (task times of finished tasks,
    /// disk statistics, event count). `elapsed` is the failure time.
    pub partial: Box<SimReport>,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation failed at t={:.6}: {} ({} task(s) finished)",
            self.partial.elapsed,
            self.source,
            self.partial.task_times.iter().filter(|(_, _, fin)| *fin > 0.0).count()
        )
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine (processor count, disk count, service rates).
    pub machine: MachineConfig,
    /// Seconds between the master deciding to adjust a task's parallelism
    /// and the new assignment landing at the slaves (the two message rounds
    /// of Figures 5/6 over shared memory). The paper's point is that this is
    /// tiny on a shared-memory machine.
    pub adjust_latency: f64,
}

impl SimConfig {
    /// Paper machine, 5 ms adjustment protocol.
    pub fn paper_default() -> Self {
        SimConfig { machine: MachineConfig::paper_default(), adjust_latency: 0.005 }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

enum Partition {
    Page(PagePartition),
    Range(RangePartition),
}

struct TaskRt {
    spec: SimTask,
    target_parallelism: u32,
    ios_done: u64,
    started_at: f64,
    finished_at: f64,
}

struct WorkerRt {
    task: usize,
    slot: usize,
    /// True when the worker found no work at its last fetch. An adjustment
    /// can hand an idle slot new pages, so `apply_adjust` re-kicks idlers.
    idle: bool,
    /// A prefetch request is queued or in service at a disk.
    io_inflight: bool,
    /// The CPU stage (queued or executing) holds a page.
    processing: bool,
    /// A fetched page is buffered, waiting for the CPU stage to free up.
    buffered: bool,
}

struct DiskRt {
    state: DiskState,
    queue: std::collections::VecDeque<(usize, IoRequest)>,
    in_service: Option<usize>,
}

/// The simulator. Construct once, [`run`](Simulator::run) per experiment.
pub struct Simulator {
    cfg: SimConfig,
    sink: Option<SharedSink>,
}

struct Run {
    cfg: SimConfig,
    layout: StripedLayout,
    queue: EventQueue,
    tasks: Vec<TaskRt>,
    /// The tasks' lifecycle, index for index with `tasks`: `Blocked` until
    /// the `Arrival` event, holding the partition while `Running`.
    table: FragTable<Partition>,
    workers: Vec<WorkerRt>,
    disks: Vec<DiskRt>,
    cpu_free: u32,
    cpu_ready: std::collections::VecDeque<usize>,
    cpu_busy_total: f64,
    now: f64,
    n_events: u64,
    need_decide: bool,
    sink: Option<SharedSink>,
}

impl Simulator {
    /// A simulator with configuration `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator { cfg, sink: None }
    }

    /// Record every arrival, decision and applied action into `sink`.
    pub fn with_trace(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Simulate `policy` over tasks released at the given times.
    ///
    /// # Errors
    /// A policy that wedges (tasks remain but it never starts them), never
    /// reaches a decision fixpoint, double-starts a task or references an
    /// unknown one yields a [`SimError`] carrying the typed [`SchedError`]
    /// and the partial statistics up to the failure instant.
    pub fn run(
        &self,
        policy: &mut dyn SchedulePolicy,
        arrivals: &[(SimTask, f64)],
    ) -> Result<SimReport, SimError> {
        let machine = self.cfg.machine.clone();
        let disk_params = xprs_disk::DiskParams::from_rates(
            machine.seq_bw,
            machine.almost_seq_bw,
            machine.random_bw,
        );
        let mut table = FragTable::new();
        for (spec, _) in arrivals {
            table.add(spec.profile.id, &[]);
        }
        let mut run = Run {
            table,
            layout: StripedLayout::new(machine.n_disks),
            cfg: self.cfg.clone(),
            queue: EventQueue::new(),
            tasks: arrivals
                .iter()
                .map(|(spec, _)| TaskRt {
                    spec: spec.clone(),
                    target_parallelism: 0,
                    ios_done: 0,
                    started_at: 0.0,
                    finished_at: 0.0,
                })
                .collect(),
            workers: Vec::new(),
            disks: (0..machine.n_disks)
                .map(|_| DiskRt {
                    state: DiskState::new(disk_params.clone()),
                    queue: Default::default(),
                    in_service: None,
                })
                .collect(),
            cpu_free: machine.n_procs,
            cpu_ready: Default::default(),
            cpu_busy_total: 0.0,
            now: 0.0,
            n_events: 0,
            need_decide: false,
            sink: self.sink.clone(),
        };
        emit(&run.sink, || TraceRecord::RunStart {
            driver: "des".to_string(),
            policy: policy.name().to_string(),
            machine: machine.clone(),
        });
        for (i, (_, at)) in arrivals.iter().enumerate() {
            run.queue.push(*at, EventKind::Arrival(i));
        }
        match run.main_loop(policy) {
            Ok(()) => Ok(run.report()),
            Err(e) => {
                emit(&run.sink, || TraceRecord::Error {
                    now: run.now,
                    message: e.to_string(),
                });
                Err(SimError { source: e, partial: Box::new(run.report()) })
            }
        }
    }
}

impl Run {
    fn main_loop(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), SchedError> {
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            self.handle(policy, ev)?;
            // Drain every event at this exact instant before consulting the
            // policy, so simultaneous arrivals are seen as one batch.
            while self.queue.peek_time() == Some(self.now) {
                let (_, ev) = self.queue.pop().expect("peeked");
                self.handle(policy, ev)?;
            }
            if self.need_decide {
                self.need_decide = false;
                self.decide(policy)?;
            }
        }
        // The event queue is dry: nothing more will arrive or complete.
        self.table.wedge_check(policy.name())?;
        if !self.table.all_done() {
            return Err(SchedError::Incomplete {
                policy: policy.name(),
                completed: self.table.count(Phase::Done),
                total: self.table.len(),
            });
        }
        Ok(())
    }

    fn handle(
        &mut self,
        policy: &mut dyn SchedulePolicy,
        ev: EventKind,
    ) -> Result<(), SchedError> {
        self.n_events += 1;
        match ev {
            EventKind::Arrival(i) => {
                if self.table.release(i) {
                    let profile = self.tasks[i].spec.profile.clone();
                    let now = self.now;
                    emit(&self.sink, || TraceRecord::Arrival { now, profile: profile.clone() });
                    policy.on_arrival(now, profile);
                }
                self.need_decide = true;
            }
            EventKind::DiskDone(d) => self.disk_done(d),
            EventKind::CpuDone(w) => self.cpu_done(policy, w)?,
            EventKind::ApplyAdjust(task, x) => self.apply_adjust(task, x),
        }
        Ok(())
    }

    // -- disk stage --------------------------------------------------------

    fn enqueue_io(&mut self, w: usize, global_block: u64) {
        let task = &self.tasks[self.workers[w].task];
        let d = self.layout.disk_of(global_block) as usize;
        let req = IoRequest {
            rel: task.spec.rel,
            local_block: self.layout.local_block(global_block),
            worker: WorkerId(w as u64),
            solo: task.target_parallelism == 1,
        };
        self.disks[d].queue.push_back((w, req));
        if self.disks[d].in_service.is_none() {
            self.start_disk(d);
        }
    }

    fn start_disk(&mut self, d: usize) {
        if let Some((w, req)) = self.disks[d].queue.pop_front() {
            let (_, dur) = self.disks[d].state.serve(&req);
            self.disks[d].in_service = Some(w);
            self.queue.push(self.now + dur, EventKind::DiskDone(d as u32));
        }
    }

    fn disk_done(&mut self, d: u32) {
        let d = d as usize;
        let w = self.disks[d].in_service.take().expect("DiskDone without service");
        self.start_disk(d);
        self.workers[w].io_inflight = false;
        if self.workers[w].processing {
            // The CPU stage is still chewing on the previous page; hold this
            // one in the worker's read-ahead buffer.
            self.workers[w].buffered = true;
        } else {
            // Page goes straight to the CPU stage, and the worker issues its
            // next read-ahead so I/O overlaps computation.
            self.begin_cpu(w);
            self.worker_fetch_next(w);
        }
    }

    /// Enter the CPU stage (queueing on the processor pool if necessary).
    fn begin_cpu(&mut self, w: usize) {
        self.workers[w].processing = true;
        if self.cpu_free > 0 {
            self.cpu_free -= 1;
            self.schedule_cpu(w);
        } else {
            self.cpu_ready.push_back(w);
        }
    }

    // -- cpu stage ----------------------------------------------------------

    fn schedule_cpu(&mut self, w: usize) {
        let burst = self.tasks[self.workers[w].task].spec.cpu_per_io;
        self.cpu_busy_total += burst;
        self.queue.push(self.now + burst, EventKind::CpuDone(w));
    }

    fn cpu_done(
        &mut self,
        policy: &mut dyn SchedulePolicy,
        w: usize,
    ) -> Result<(), SchedError> {
        match self.cpu_ready.pop_front() {
            Some(next) => self.schedule_cpu(next),
            None => self.cpu_free += 1,
        }
        self.workers[w].processing = false;
        self.complete_io(policy, w)
    }

    fn complete_io(
        &mut self,
        policy: &mut dyn SchedulePolicy,
        w: usize,
    ) -> Result<(), SchedError> {
        let ti = self.workers[w].task;
        self.tasks[ti].ios_done += 1;
        if self.tasks[ti].ios_done == self.tasks[ti].spec.n_ios {
            // Tasks have no producers here, so a completion releases nobody.
            self.table.finish(ti)?;
            self.tasks[ti].finished_at = self.now;
            let id = self.tasks[ti].spec.profile.id;
            let now = self.now;
            emit(&self.sink, || TraceRecord::Finish { now, task: id });
            policy.on_finish(now, id);
            self.need_decide = true;
        } else if self.workers[w].buffered {
            // The read-ahead already landed: process it and keep the
            // pipeline full.
            self.workers[w].buffered = false;
            self.begin_cpu(w);
            self.worker_fetch_next(w);
        } else if !self.workers[w].io_inflight {
            // Pipeline empty (start-up, or the partition had nothing at the
            // last fetch): try again.
            self.worker_fetch_next(w);
        }
        // Otherwise the prefetch is still in flight; DiskDone continues.
        Ok(())
    }

    // -- worker loop ---------------------------------------------------------

    fn worker_fetch_next(&mut self, w: usize) {
        let ti = self.workers[w].task;
        let slot = self.workers[w].slot;
        let spec = &self.tasks[ti].spec;
        let next_block = match self.table.running_mut(ti) {
            Ok(Partition::Page(p)) => p.next_page(slot),
            Ok(Partition::Range(r)) => r.next_key(slot).map(|k| spec.block_of_key(k as u64)),
            Err(_) => None, // task already completed
        };
        match next_block {
            Some(b) => {
                self.workers[w].idle = false;
                self.workers[w].io_inflight = true;
                self.enqueue_io(w, b);
            }
            None => {
                // Worker retired or drained for now. A later adjustment may
                // assign this slot more pages, so remember it is idle;
                // completion is detected by the ios_done counter.
                self.workers[w].idle = true;
            }
        }
    }

    // -- policy integration --------------------------------------------------

    fn decide(&mut self, policy: &mut dyn SchedulePolicy) -> Result<(), SchedError> {
        let (sink, now) = (self.sink.clone(), self.now);
        decide_fixpoint(
            policy,
            &sink,
            now,
            self,
            |run| {
                run.table
                    .iter_running()
                    .map(|(ti, _)| {
                        let t = &run.tasks[ti];
                        RunningTask {
                            profile: t.spec.profile.clone(),
                            parallelism: t.target_parallelism as f64,
                            remaining_seq_time: t.spec.profile.seq_time
                                * (1.0 - t.ios_done as f64 / t.spec.n_ios as f64),
                        }
                    })
                    .collect()
            },
            |run, a| {
                let ti = run.table.lookup(a.task())?;
                let parallelism = a.parallelism();
                match a {
                    Action::Start { .. } => run.start_task(ti, parallelism)?,
                    Action::Adjust { .. } => {
                        run.table.running(ti)?;
                        let x = round_parallelism(parallelism, run.cfg.machine.n_procs) as u32;
                        // The policy sees its target immediately; the slaves
                        // converge after the protocol round-trip.
                        run.tasks[ti].target_parallelism = x;
                        run.queue
                            .push(now + run.cfg.adjust_latency, EventKind::ApplyAdjust(ti, x));
                    }
                }
                Ok(true)
            },
        )
    }

    fn start_task(&mut self, ti: usize, parallelism: f64) -> Result<(), SchedError> {
        let x = round_parallelism(parallelism, self.cfg.machine.n_procs) as u32;
        let n_ios = self.tasks[ti].spec.n_ios;
        let partition = match self.tasks[ti].spec.access {
            AccessPattern::SeqScan => Partition::Page(PagePartition::new(n_ios, x)),
            AccessPattern::IndexScan { .. } => {
                Partition::Range(RangePartition::new(0, n_ios as i64 - 1, x))
            }
        };
        self.table.start(ti, || Ok::<_, SchedError>(partition))?;
        self.tasks[ti].target_parallelism = x;
        self.tasks[ti].started_at = self.now;
        for slot in 0..x as usize {
            self.spawn_worker(ti, slot);
        }
        Ok(())
    }

    fn apply_adjust(&mut self, ti: usize, x: u32) {
        let info = match self.table.running_mut(ti) {
            Ok(Partition::Page(p)) => p.adjust(x),
            Ok(Partition::Range(r)) => r.adjust(x),
            Err(_) => return, // the task beat the protocol to the finish line
        };
        for slot in info.new_slots {
            self.spawn_worker(ti, slot);
        }
        // Retiring slots stop by themselves once they pass the boundary; but
        // slots whose worker already drained may have been handed fresh
        // pages in the new assignment — wake the ones with an empty pipeline.
        let idlers: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| {
                w.task == ti && w.idle && !w.io_inflight && !w.processing && !w.buffered
            })
            .map(|(i, _)| i)
            .collect();
        for w in idlers {
            self.worker_fetch_next(w);
        }
    }

    fn spawn_worker(&mut self, ti: usize, slot: usize) {
        let w = self.workers.len();
        self.workers.push(WorkerRt {
            task: ti,
            slot,
            idle: true,
            io_inflight: false,
            processing: false,
            buffered: false,
        });
        self.worker_fetch_next(w);
    }

    // -- reporting ------------------------------------------------------------

    fn report(&self) -> SimReport {
        let mut disk = ArrayStats::default();
        for d in &self.disks {
            disk.sequential += d.state.count_of(ServiceClass::Sequential);
            disk.almost_sequential += d.state.count_of(ServiceClass::AlmostSequential);
            disk.random += d.state.count_of(ServiceClass::Random);
            disk.busy_time += d.state.busy_time();
        }
        SimReport {
            elapsed: self.now,
            task_times: self
                .tasks
                .iter()
                .map(|t| (t.spec.profile.id, t.started_at, t.finished_at))
                .collect(),
            disk,
            cpu_busy: self.cpu_busy_total,
            n_events: self.n_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_disk::RelId;
    use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use xprs_scheduler::intra::IntraOnly;
    use xprs_scheduler::policy::FIXPOINT_ROUNDS;
    use xprs_scheduler::{IoKind, TaskId, TaskProfile};

    fn cfg() -> SimConfig {
        SimConfig::paper_default()
    }

    fn seq_task(id: u64, seq_time: f64, rate: f64) -> SimTask {
        let p = TaskProfile::new(TaskId(id), seq_time, rate, IoKind::Sequential);
        SimTask::from_profile(p, RelId(id + 1), &xprs_disk::DiskParams::paper_default())
    }

    fn rnd_task(id: u64, seq_time: f64, rate: f64) -> SimTask {
        let p = TaskProfile::new(TaskId(id), seq_time, rate, IoKind::Random);
        SimTask::from_profile(p, RelId(id + 1), &xprs_disk::DiskParams::paper_default())
    }

    #[test]
    fn solo_sequential_task_matches_its_calibrated_rate() {
        // One task, parallelism 1 under INTRA-ONLY? IntraOnly would use
        // maxp — force parallelism 1 via a single-processor machine.
        let mut c = cfg();
        c.machine.n_procs = 1;
        let t = seq_task(0, 10.0, 50.0); // 500 pages at 50 io/s solo
        let mut policy = IntraOnly::new(c.machine.clone(), true);
        let report = Simulator::new(c).run(&mut policy, &[(t, 0.0)]).expect("sim");
        // Solo synchronous backend: elapsed ≈ seq_time (first I/O is a cold
        // random seek, the rest sequential).
        assert!(
            (report.elapsed - 10.0).abs() < 0.1,
            "expected ≈10 s, got {}",
            report.elapsed
        );
        // Virtually all I/Os at the sequential rate.
        assert!(report.disk.sequential > 490);
    }

    #[test]
    fn parallel_scan_sees_almost_sequential_service() {
        let t = seq_task(0, 10.0, 60.0); // IO-bound: maxp = 4 workers
        let mut policy = IntraOnly::new(cfg().machine, true);
        let report = Simulator::new(cfg()).run(&mut policy, &[(t, 0.0)]).expect("sim");
        // With 4 workers interleaving on each disk, service degrades to the
        // almost-sequential class for the bulk of requests.
        assert!(
            report.disk.almost_sequential > report.disk.sequential,
            "expected almost-seq to dominate: {:?}",
            report.disk
        );
    }

    #[test]
    fn parallelism_speeds_up_a_cpu_bound_task_near_linearly() {
        let t = seq_task(0, 16.0, 5.0); // 80 pages, 0.1897 s CPU each
        let mut policy = IntraOnly::new(cfg().machine, true);
        let report = Simulator::new(cfg()).run(&mut policy, &[(t.clone(), 0.0)]).expect("sim");
        // 8 processors: elapsed near 16/8 = 2 (plus I/O pipeline slack).
        assert!(
            report.elapsed < 16.0 / 8.0 * 1.3,
            "poor speedup: {} s for 16 s of work on 8 CPUs",
            report.elapsed
        );
        assert!(report.elapsed > 16.0 / 8.0 * 0.9);
    }

    #[test]
    fn index_scan_pays_random_service() {
        let t = rnd_task(0, 10.0, 30.0);
        let mut policy = IntraOnly::new(cfg().machine, true);
        let report = Simulator::new(cfg()).run(&mut policy, &[(t, 0.0)]).expect("sim");
        assert!(
            report.disk.random as f64 > 0.95 * report.disk.total() as f64,
            "index scan should be (almost) all random I/O: {:?}",
            report.disk
        );
    }

    #[test]
    fn two_task_mix_beats_serial_execution_under_with_adj() {
        let tasks = vec![
            (seq_task(0, 20.0, 65.0), 0.0),
            (seq_task(1, 20.0, 6.0), 0.0),
        ];
        let sim = Simulator::new(cfg());
        let mut intra = IntraOnly::new(cfg().machine, true);
        let t_intra = sim.run(&mut intra, &tasks).expect("sim").elapsed;
        let mut adj = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(cfg().machine));
        let t_adj = sim.run(&mut adj, &tasks).expect("sim").elapsed;
        assert!(
            t_adj < t_intra,
            "inter-operation parallelism should win on a mixed pair: {t_adj} vs {t_intra}"
        );
    }

    #[test]
    fn completion_notifies_policy_and_report_is_consistent() {
        let tasks = vec![(seq_task(0, 5.0, 40.0), 0.0), (seq_task(1, 5.0, 10.0), 1.0)];
        let mut policy = IntraOnly::new(cfg().machine, true);
        let report = Simulator::new(cfg()).run(&mut policy, &tasks).expect("sim");
        assert_eq!(report.task_times.len(), 2);
        for (_, start, finish) in &report.task_times {
            assert!(finish > start);
        }
        // Task 1 released at t=1 cannot start earlier.
        let t1 = report.task_times.iter().find(|(id, _, _)| *id == TaskId(1)).unwrap();
        assert!(t1.1 >= 1.0);
        assert!(report.elapsed >= t1.2 - 1e-12);
        assert!(report.n_events > 0);
    }

    #[test]
    fn utilization_metrics_are_sane() {
        let tasks = vec![(seq_task(0, 20.0, 65.0), 0.0), (seq_task(1, 20.0, 6.0), 0.0)];
        let mut adj = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(cfg().machine));
        let report = Simulator::new(cfg()).run(&mut adj, &tasks).expect("sim");
        let cpu = report.cpu_utilization(8);
        let dsk = report.disk_utilization(4);
        assert!(cpu > 0.0 && cpu <= 1.0, "cpu utilization {cpu}");
        assert!(dsk > 0.0 && dsk <= 1.0, "disk utilization {dsk}");
    }

    /// A policy that always emits an Adjust — it can never reach a fixpoint.
    struct NeverSettles {
        machine: MachineConfig,
        started: bool,
        flip: bool,
    }

    impl SchedulePolicy for NeverSettles {
        fn name(&self) -> &'static str {
            "NEVER-SETTLES"
        }
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }
        fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
        fn on_finish(&mut self, _now: f64, _id: TaskId) {}
        fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
            if !self.started {
                self.started = true;
                return vec![Action::Start { id: TaskId(0), parallelism: 1.0 }];
            }
            self.flip = !self.flip;
            let x = if self.flip { 2.0 } else { 3.0 };
            vec![Action::Adjust { id: TaskId(0), parallelism: x }]
        }
    }

    /// A policy that starts a task the driver never heard of.
    struct RogueStart {
        machine: MachineConfig,
        done: bool,
    }

    impl SchedulePolicy for RogueStart {
        fn name(&self) -> &'static str {
            "ROGUE-START"
        }
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }
        fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
        fn on_finish(&mut self, _now: f64, _id: TaskId) {}
        fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
            if self.done {
                return vec![];
            }
            self.done = true;
            vec![Action::Start { id: TaskId(999), parallelism: 1.0 }]
        }
    }

    /// A policy that starts the same task twice in one decision batch.
    struct DoubleStart {
        machine: MachineConfig,
        done: bool,
    }

    impl SchedulePolicy for DoubleStart {
        fn name(&self) -> &'static str {
            "DOUBLE-START"
        }
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }
        fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
        fn on_finish(&mut self, _now: f64, _id: TaskId) {}
        fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
            if self.done {
                return vec![];
            }
            self.done = true;
            vec![
                Action::Start { id: TaskId(0), parallelism: 1.0 },
                Action::Start { id: TaskId(0), parallelism: 2.0 },
            ]
        }
    }

    #[test]
    fn diverging_policy_is_a_typed_error_with_partial_stats() {
        let mut policy = NeverSettles { machine: cfg().machine, started: false, flip: false };
        let err = Simulator::new(cfg())
            .run(&mut policy, &[(seq_task(0, 5.0, 40.0), 0.0)])
            .expect_err("divergence must surface");
        assert_eq!(
            err.source,
            SchedError::FixpointDiverged { policy: "NEVER-SETTLES", rounds: FIXPOINT_ROUNDS }
        );
        // Partial stats are still usable: the failure instant and task table.
        assert_eq!(err.partial.task_times.len(), 1);
        assert!(err.to_string().contains("did not reach a fixpoint"));
    }

    #[test]
    fn unknown_task_reference_is_a_typed_error() {
        let mut policy = RogueStart { machine: cfg().machine, done: false };
        let err = Simulator::new(cfg())
            .run(&mut policy, &[(seq_task(0, 5.0, 40.0), 0.0)])
            .expect_err("unknown task must surface");
        assert_eq!(err.source, SchedError::UnknownTask { task: TaskId(999) });
    }

    #[test]
    fn double_start_is_a_typed_error() {
        let mut policy = DoubleStart { machine: cfg().machine, done: false };
        let err = Simulator::new(cfg())
            .run(&mut policy, &[(seq_task(0, 5.0, 40.0), 0.0)])
            .expect_err("double start must surface");
        assert_eq!(err.source, SchedError::AlreadyRunning { task: TaskId(0) });
    }

    #[test]
    fn wedged_policy_is_a_typed_error() {
        /// Never starts anything at all.
        struct DoNothing(MachineConfig);
        impl SchedulePolicy for DoNothing {
            fn name(&self) -> &'static str {
                "DO-NOTHING"
            }
            fn machine(&self) -> &MachineConfig {
                &self.0
            }
            fn on_arrival(&mut self, _now: f64, _task: TaskProfile) {}
            fn on_finish(&mut self, _now: f64, _id: TaskId) {}
            fn decide(&mut self, _now: f64, _running: &[RunningTask]) -> Vec<Action> {
                vec![]
            }
        }
        let mut policy = DoNothing(cfg().machine);
        let err = Simulator::new(cfg())
            .run(&mut policy, &[(seq_task(0, 5.0, 40.0), 0.0)])
            .expect_err("wedge must surface");
        assert_eq!(err.source, SchedError::Wedged { policy: "DO-NOTHING", unfinished: 1 });
    }

    #[test]
    fn traced_des_run_replays_through_the_recorded_policy() {
        use std::sync::{Arc, Mutex};
        use xprs_scheduler::trace::{action_stream, parse_jsonl, replay_decisions, JsonlSink};

        let tasks = vec![
            (seq_task(0, 20.0, 65.0), 0.0),
            (seq_task(1, 20.0, 6.0), 0.0),
        ];
        let sink = Arc::new(Mutex::new(JsonlSink::new(Vec::<u8>::new())));
        let shared: xprs_scheduler::trace::SharedSink = sink.clone();
        let mut adj = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(cfg().machine));
        Simulator::new(cfg())
            .with_trace(shared)
            .run(&mut adj, &tasks)
            .expect("sim");

        // The simulator temporary was dropped, so this is the sole owner.
        let Ok(cell) = Arc::try_unwrap(sink) else { unreachable!("sink still shared") };
        let owned = cell.into_inner().unwrap();
        assert!(owned.io_error().is_none());
        let text = String::from_utf8(owned.into_inner()).unwrap();
        let records = parse_jsonl(&text).expect("well-formed trace");
        let recorded = action_stream(&records);
        assert!(!recorded.is_empty(), "DES trace should record applied actions");

        // A fresh policy fed the recorded event stream re-derives every
        // recorded decision, even though the DES clock is not virtual time.
        let mut fresh = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(cfg().machine));
        let checked = replay_decisions(&records, &mut fresh).expect("replay");
        assert!(checked > 0);
    }
}

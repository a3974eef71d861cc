//! The paper's adaptive scheduling algorithm (Section 2.5), in two flavours:
//! `INTER-WITH-ADJ` (the proposal) and `INTER-WITHOUT-ADJ` (the ablation
//! that pairs tasks but never resizes a running one).
//!
//! The algorithm, restated:
//!
//! 1. split the runnable set into `S_io` (IO-bound) and `S_cpu` (CPU-bound);
//! 2. pick `f_i ∈ S_io` and `f_j ∈ S_cpu` (most-extreme pairing by default);
//! 3. compute their IO-CPU balance point `(x_i, x_j)`;
//! 4. if `T_inter < T_intra(f_i) + T_intra(f_j)` run the pair at the balance
//!    point (adjusting a task that is already running), otherwise run them
//!    one at a time with intra-operation parallelism only;
//! 5. when one of the pair finishes, draw a replacement from the matching
//!    set and go back to step 3, re-balancing against the survivor's
//!    *remaining* work;
//! 6. when either set drains, fall back to intra-only execution.
//!
//! Because `S_io`/`S_cpu` behave as queues, the same policy serves a fixed
//! task set and a continuous multi-user arrival stream.
//!
//! When the machine declares a finite shared-memory size, the scheduler also
//! enforces the paper's Section 5 future-work constraint: a pair only runs
//! concurrently if the two tasks' footprints (hash tables, sort buffers,
//! materialized outputs) fit in memory together; otherwise the partner is
//! drawn from the fitting candidates, or the task runs alone.
//!
//! The `INTER-WITHOUT-ADJ` variant starts pairs the same way, but on a
//! completion it merely starts whichever pending task gets the operating
//! point closest to the maximum-utilization corner using only the processors
//! that just became available — the running task keeps its now-stale degree
//! of parallelism, which is exactly the deficiency Figure 7 exposes.

use crate::balance::{balance_point, balance_point_constant_b, BalancePoint};
use crate::error::SchedError;
use crate::estimate::{t_inter, t_intra};
use crate::machine::MachineConfig;
use crate::pairing::Pairing;
use crate::policy::{round_parallelism, Action, RunningTask, SchedulePolicy};
use crate::task::{Boundedness, TaskId, TaskProfile};
use crate::trace::{emit, SharedSink, TraceRecord};

/// Configuration of the adaptive scheduler.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The machine being scheduled.
    pub machine: MachineConfig,
    /// Enable dynamic parallelism adjustment (Section 2.4). `true` gives
    /// `INTER-WITH-ADJ`, `false` gives `INTER-WITHOUT-ADJ`.
    pub adjust: bool,
    /// Task-selection heuristic for the two sets.
    pub pairing: Pairing,
    /// Round allocations to whole workers (required by execution engines).
    pub integral: bool,
    /// Ablation: plan balance points against the constant nominal bandwidth
    /// `B`, ignoring the Section 2.3 seek-interference correction.
    pub naive_bandwidth: bool,
}

impl AdaptiveConfig {
    /// `INTER-WITH-ADJ` on machine `m` with the paper's defaults.
    pub fn with_adjustment(m: MachineConfig) -> Self {
        AdaptiveConfig {
            machine: m,
            adjust: true,
            pairing: Pairing::MostExtreme,
            integral: true,
            naive_bandwidth: false,
        }
    }

    /// `INTER-WITHOUT-ADJ` on machine `m`.
    pub fn without_adjustment(m: MachineConfig) -> Self {
        AdaptiveConfig {
            machine: m,
            adjust: false,
            pairing: Pairing::MostExtreme,
            integral: true,
            naive_bandwidth: false,
        }
    }
}

/// The Section 2.5 adaptive scheduler.
#[derive(Clone)]
pub struct AdaptiveScheduler {
    cfg: AdaptiveConfig,
    s_io: Vec<TaskProfile>,
    s_cpu: Vec<TaskProfile>,
    rejected: Vec<(f64, TaskId, SchedError)>,
    sink: Option<SharedSink>,
}

impl std::fmt::Debug for AdaptiveScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveScheduler")
            .field("cfg", &self.cfg)
            .field("s_io", &self.s_io)
            .field("s_cpu", &self.s_cpu)
            .field("rejected", &self.rejected)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl AdaptiveScheduler {
    /// Build the scheduler; see [`AdaptiveConfig`].
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveScheduler {
            cfg,
            s_io: Vec::new(),
            s_cpu: Vec::new(),
            rejected: Vec::new(),
            sink: None,
        }
    }

    /// Arrivals rejected at the policy boundary as `(time, task, why)` —
    /// profiles that failed [`TaskProfile::validate`] and were never queued.
    pub fn rejected(&self) -> &[(f64, TaskId, SchedError)] {
        &self.rejected
    }

    /// Number of tasks waiting in the IO-bound queue.
    pub fn pending_io(&self) -> usize {
        self.s_io.len()
    }

    /// Number of tasks waiting in the CPU-bound queue.
    pub fn pending_cpu(&self) -> usize {
        self.s_cpu.len()
    }

    fn m(&self) -> &MachineConfig {
        &self.cfg.machine
    }

    /// Balance a pair under the configured bandwidth model. A balance point
    /// that allocates less than one whole backend to either side is not a
    /// real pairing opportunity (a slave backend is a process, not a
    /// fraction) and is reported as no balance point.
    fn balance(&self, f_io: &TaskProfile, f_cpu: &TaskProfile) -> Option<BalancePoint> {
        let bp = if self.cfg.naive_bandwidth {
            balance_point_constant_b(
                f_io.io_rate,
                f_cpu.io_rate,
                self.m().n_procs as f64,
                self.m().total_bandwidth(),
            )
        } else {
            balance_point(f_io, f_cpu, self.m())
        };
        bp.filter(|bp| bp.x_io >= 1.0 && bp.x_cpu >= 1.0)
    }

    /// Balance a candidate pair and run the step-4 `T_inter` vs `T_intra`
    /// comparison, emitting a [`TraceRecord::Candidate`] with the full
    /// verdict when a trace sink is attached. Returns the balance point only
    /// when pairing wins.
    fn evaluate_pair(
        &self,
        now: f64,
        f_io: &TaskProfile,
        f_cpu: &TaskProfile,
    ) -> Option<BalancePoint> {
        let bp = self.balance(f_io, f_cpu)?;
        let inter = t_inter(f_io, f_cpu, &bp, self.m()).elapsed;
        let intra = t_intra(f_io, self.m()) + t_intra(f_cpu, self.m());
        let worthwhile = inter < intra;
        emit(&self.sink, || TraceRecord::Candidate {
            now,
            io: f_io.id,
            cpu: f_cpu.id,
            x_io: bp.x_io,
            x_cpu: bp.x_cpu,
            effective_bw: bp.effective_bw,
            t_inter: inter,
            t_intra: intra,
            worthwhile,
        });
        worthwhile.then_some(bp)
    }

    /// Can `a` and `b` hold their working memory simultaneously?
    fn fits(&self, a: &TaskProfile, b: &TaskProfile) -> bool {
        a.memory + b.memory <= self.m().memory
    }

    /// Indices into `set` of candidates whose memory fits alongside `with`.
    fn fitting(&self, set: &[TaskProfile], with: &TaskProfile) -> Vec<usize> {
        set.iter()
            .enumerate()
            .filter(|(_, c)| self.fits(c, with))
            .map(|(i, _)| i)
            .collect()
    }

    fn int_maxp(&self, t: &TaskProfile) -> f64 {
        let maxp = t.maxp(self.m());
        if self.cfg.integral {
            maxp.floor().max(1.0)
        } else {
            maxp
        }
    }

    /// Split a fractional balance point into the per-task allocations the
    /// driver will be told, respecting the integral setting. Even in
    /// fractional (analysis) mode a task gets at least one worker — a slave
    /// backend is a whole process, and a degenerate balance point like
    /// `x_io = 0.1` would otherwise strand a task at a crawl.
    fn split(&self, x_io: f64, x_cpu: f64) -> (f64, f64) {
        if !self.cfg.integral {
            return (x_io.max(1.0), x_cpu.max(1.0));
        }
        let n = self.m().n_procs;
        let xi = round_parallelism(x_io, n.saturating_sub(1).max(1));
        (xi, (n as f64 - xi).max(1.0))
    }

    /// Start a fresh pair from the two queues if one is worthwhile.
    /// Returns the actions, or an intra-only start if pairing loses.
    fn start_fresh_pair(&mut self, now: f64) -> Vec<Action> {
        let i = self.cfg.pairing.pick(&self.s_io, true);
        let f_io = self.s_io[i].clone();
        // Memory constraint (Section 5): only partners that fit alongside
        // f_io's footprint are eligible.
        let eligible = self.fitting(&self.s_cpu, &f_io);
        if !eligible.is_empty() {
            let view: Vec<TaskProfile> =
                eligible.iter().map(|&k| self.s_cpu[k].clone()).collect();
            let j = eligible[self.cfg.pairing.pick(&view, false)];
            let f_cpu = self.s_cpu[j].clone();
            if let Some(bp) = self.evaluate_pair(now, &f_io, &f_cpu) {
                self.s_io.remove(i);
                self.s_cpu.remove(j);
                let (xi, xj) = self.split(bp.x_io, bp.x_cpu);
                return vec![
                    Action::Start { id: f_io.id, parallelism: xi },
                    Action::Start { id: f_cpu.id, parallelism: xj },
                ];
            }
        }
        // Step 4's "otherwise": run the tasks one at a time. We start the
        // IO-bound one alone; the next decide() re-evaluates the sets, which
        // subsumes "then execute f_j alone" and stays adaptive if a better
        // partner has arrived in the meantime.
        self.s_io.remove(i);
        vec![Action::Start { id: f_io.id, parallelism: self.int_maxp(&f_io) }]
    }

    /// Start one task with intra-operation parallelism only (steps 2/8).
    fn start_solo(&mut self) -> Vec<Action> {
        if !self.s_io.is_empty() {
            let i = self.cfg.pairing.pick(&self.s_io, true);
            let t = self.s_io.remove(i);
            vec![Action::Start { id: t.id, parallelism: self.int_maxp(&t) }]
        } else if !self.s_cpu.is_empty() {
            let j = self.cfg.pairing.pick(&self.s_cpu, false);
            let t = self.s_cpu.remove(j);
            vec![Action::Start { id: t.id, parallelism: self.int_maxp(&t) }]
        } else {
            Vec::new()
        }
    }

    /// INTER-WITH-ADJ: one task `r` is running; draw a partner from the
    /// opposite queue, re-balance against `r`'s remaining work and adjust.
    fn repair_with_adjustment(&mut self, now: f64, r: &RunningTask) -> Vec<Action> {
        let rem = r.remaining_profile();
        let r_is_io = rem.classify(self.m()) == Boundedness::IoBound;
        let opposite = if r_is_io { &self.s_cpu } else { &self.s_io };
        let eligible = self.fitting(opposite, &rem);
        if !eligible.is_empty() {
            let view: Vec<TaskProfile> = eligible.iter().map(|&k| opposite[k].clone()).collect();
            let k = eligible[self.cfg.pairing.pick(&view, !r_is_io)];
            let cand = opposite[k].clone();
            let (f_io, f_cpu) = if r_is_io { (rem.clone(), cand.clone()) } else { (cand.clone(), rem.clone()) };
            if let Some(bp) = self.evaluate_pair(now, &f_io, &f_cpu) {
                if r_is_io {
                    self.s_cpu.remove(k);
                } else {
                    self.s_io.remove(k);
                }
                let (xi, xj) = self.split(bp.x_io, bp.x_cpu);
                let (x_r, x_cand) = if r_is_io { (xi, xj) } else { (xj, xi) };
                let mut acts = Vec::new();
                if (x_r - r.parallelism).abs() > f64::EPSILON {
                    acts.push(Action::Adjust { id: rem.id, parallelism: x_r });
                }
                acts.push(Action::Start { id: cand.id, parallelism: x_cand });
                return acts;
            }
        }
        // No worthwhile partner: spread the survivor over the freed
        // processors — the essence of dynamic adjustment.
        let target = self.int_maxp(&rem);
        if (target - r.parallelism).abs() > f64::EPSILON {
            vec![Action::Adjust { id: rem.id, parallelism: target }]
        } else {
            Vec::new()
        }
    }

    /// INTER-WITHOUT-ADJ replacement rule: keep `r` as-is and start whichever
    /// pending task gets the *nominal* operating point — in the
    /// parallelism/bandwidth rectangle of the paper's Figure 4 — closest to
    /// the maximum-utilization corner `(N, B)`, using only the processors
    /// currently free.
    ///
    /// This is deliberately the naive master the paper describes: the
    /// distance is measured on nominal demand, with no awareness of the seek
    /// interference the added stream will cause, and no awareness that the
    /// running task's degree of parallelism has gone stale. The physics
    /// (fluid model or DES) then punishes the over-commitment, which is how
    /// Figure 7 shows `INTER-WITHOUT-ADJ` losing even to `INTRA-ONLY`.
    /// Demand beyond `B` counts as distance (excess I/O cannot be delivered),
    /// so the variant still declines to stack a second scan onto an array
    /// that is nominally saturated.
    fn repair_without_adjustment(&mut self, r: &RunningTask) -> Vec<Action> {
        let m = self.m().clone();
        let n = m.n_procs as f64;
        let avail = (n - r.parallelism).floor();
        if avail < 1.0 {
            return Vec::new();
        }
        let rem = r.remaining_profile();
        let d_r = rem.io_rate * r.parallelism;
        let b = m.total_bandwidth();

        // Squared normalized distance from the corner (N, B); `None` is the
        // current point (starting nothing remains an option).
        let score = |c: Option<(&TaskProfile, f64)>| -> f64 {
            let (procs, demand) = match c {
                None => (r.parallelism, d_r),
                Some((cand, x)) => (r.parallelism + x, d_r + cand.io_rate * x),
            };
            let dp = (n - procs) / n;
            let db = (b - demand) / b; // negative = nominal over-commitment
            dp * dp + db * db
        };

        let mut best: Option<(bool, usize, f64)> = None; // (from_io_set, idx, x)
        let mut best_score = score(None);
        for (from_io, set) in [(true, &self.s_io), (false, &self.s_cpu)] {
            for (idx, cand) in set.iter().enumerate() {
                if cand.memory + rem.memory > self.m().memory {
                    continue; // would not fit in shared memory together
                }
                // A task's parallelism is limited by the rectangle
                // boundaries (Figure 3): the candidate may not demand more
                // bandwidth than the running task leaves free. A zero-rate
                // candidate (struct-literal profiles bypass TaskProfile::new)
                // demands nothing, so only the processor boundary applies —
                // dividing by it would poison x_max with inf or NaN.
                let bw_room = if cand.io_rate > 0.0 {
                    ((b - d_r) / cand.io_rate).floor()
                } else {
                    avail
                };
                let x_max = avail.min(bw_room);
                let mut x = 1.0;
                while x <= x_max + 0.5 {
                    let s = score(Some((cand, x)));
                    if s < best_score - 1e-9 {
                        best_score = s;
                        best = Some((from_io, idx, x));
                    }
                    x += 1.0;
                }
            }
        }
        match best {
            None => Vec::new(),
            Some((from_io, idx, x)) => {
                let cand = if from_io { self.s_io.remove(idx) } else { self.s_cpu.remove(idx) };
                vec![Action::Start { id: cand.id, parallelism: x }]
            }
        }
    }
}

impl SchedulePolicy for AdaptiveScheduler {
    fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    fn name(&self) -> &'static str {
        if self.cfg.adjust {
            "INTER-WITH-ADJ"
        } else {
            "INTER-WITHOUT-ADJ"
        }
    }

    fn machine(&self) -> &MachineConfig {
        &self.cfg.machine
    }

    fn on_arrival(&mut self, now: f64, task: TaskProfile) {
        // Policy-boundary validation: a poisoned profile (zero io_rate,
        // non-finite seq_time) would turn every balance computation it
        // touches into inf/NaN. Reject it here, once, with a record of why.
        if let Err(e) = task.validate() {
            emit(&self.sink, || TraceRecord::Rejected {
                now,
                task: task.id,
                reason: e.to_string(),
            });
            self.rejected.push((now, task.id, e));
            return;
        }
        match task.classify(self.m()) {
            Boundedness::IoBound => self.s_io.push(task),
            Boundedness::CpuBound => self.s_cpu.push(task),
        }
    }

    fn on_finish(&mut self, _now: f64, _id: TaskId) {}

    fn recalibrate(&mut self, _now: f64, machine: MachineConfig) {
        // Adopt the measured machine wholesale: every subsequent balance
        // point, maxp and T_inter/T_intra comparison plans against the
        // bandwidth the array actually delivers. Queued tasks keep their
        // classification from arrival time — boundedness is re-derived
        // against the new machine on the next repair anyway.
        self.cfg.machine = machine;
    }

    fn decide(&mut self, now: f64, running: &[RunningTask]) -> Vec<Action> {
        if self.sink.is_some() && !(self.s_io.is_empty() && self.s_cpu.is_empty()) {
            let io: Vec<TaskId> = self.s_io.iter().map(|t| t.id).collect();
            let cpu: Vec<TaskId> = self.s_cpu.iter().map(|t| t.id).collect();
            emit(&self.sink, || TraceRecord::Queues { now, io, cpu });
        }
        match running.len() {
            0 => {
                if !self.s_io.is_empty() && !self.s_cpu.is_empty() {
                    self.start_fresh_pair(now)
                } else {
                    self.start_solo()
                }
            }
            1 => {
                if self.cfg.adjust {
                    self.repair_with_adjustment(now, &running[0])
                } else {
                    self.repair_without_adjustment(&running[0])
                }
            }
            // One IO-bound plus one CPU-bound task always suffices for full
            // utilization; never run more than two tasks (Section 2.3).
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::IoKind;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn seq(id: u64, t: f64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), t, rate, IoKind::Sequential)
    }

    fn run_snapshot(t: &TaskProfile, x: f64, rem: f64) -> RunningTask {
        RunningTask { profile: t.clone(), parallelism: x, remaining_seq_time: rem }
    }

    #[test]
    fn arrivals_are_classified_into_the_two_queues() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(0, 10.0, 65.0));
        s.on_arrival(0.0, seq(1, 10.0, 8.0));
        s.on_arrival(0.0, seq(2, 10.0, 29.0));
        assert_eq!(s.pending_io(), 1);
        assert_eq!(s.pending_cpu(), 2);
    }

    #[test]
    fn fresh_mixed_pair_starts_at_the_balance_point() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(0, 20.0, 65.0));
        s.on_arrival(0.0, seq(1, 20.0, 8.0));
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 2);
        let total: f64 = acts.iter().map(|a| a.parallelism()).sum();
        assert_eq!(total, 8.0);
        assert!(acts.iter().all(|a| a.parallelism() >= 1.0));
        assert_eq!(s.pending_io() + s.pending_cpu(), 0);
    }

    #[test]
    fn uniform_workload_falls_back_to_intra_only() {
        // All CPU-bound: one task at a time at full parallelism.
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(0, 10.0, 10.0));
        s.on_arrival(0.0, seq(1, 10.0, 12.0));
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].parallelism(), 8.0);
        // Second decide with the first task running: nothing new.
        let r = run_snapshot(&seq(0, 10.0, 10.0), 8.0, 5.0);
        assert!(s.decide(1.0, &[r]).is_empty() || !s.cfg.adjust);
    }

    #[test]
    fn with_adjustment_survivor_expands_to_maxp() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        // A CPU-bound survivor running at 5 of 8 processors, nothing pending.
        let t = seq(0, 20.0, 10.0);
        let r = run_snapshot(&t, 5.0, 10.0);
        let acts = s.decide(3.0, &[r]);
        assert_eq!(acts, vec![Action::Adjust { id: TaskId(0), parallelism: 8.0 }]);
    }

    #[test]
    fn with_adjustment_repairs_with_a_new_partner() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(1, 30.0, 8.0)); // pending CPU-bound partner
        let io = seq(0, 30.0, 65.0);
        let r = run_snapshot(&io, 2.0, 25.0);
        let acts = s.decide(5.0, &[r]);
        // Expect a Start for task 1 and (possibly) an Adjust for task 0,
        // summing to the full machine.
        assert!(acts.iter().any(|a| matches!(a, Action::Start { id: TaskId(1), .. })));
        let total: f64 = acts
            .iter()
            .map(|a| a.parallelism())
            .sum::<f64>()
            + if acts.len() == 1 { 2.0 } else { 0.0 };
        assert_eq!(total, 8.0);
    }

    #[test]
    fn without_adjustment_never_adjusts() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m()));
        s.on_arrival(0.0, seq(1, 30.0, 8.0));
        let io = seq(0, 30.0, 65.0);
        let r = run_snapshot(&io, 2.0, 25.0);
        let acts = s.decide(5.0, &[r]);
        assert!(acts.iter().all(|a| matches!(a, Action::Start { .. })));
        // The new task only gets the 6 free processors at most.
        for a in &acts {
            assert!(a.parallelism() <= 6.0);
        }
    }

    #[test]
    fn without_adjustment_respects_the_bandwidth_boundary() {
        // An IO-bound task nominally saturating the disks is running and
        // only IO-bound work is pending. The rectangle boundary (Figure 3)
        // leaves no bandwidth room for even one worker of the candidate, so
        // nothing starts.
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m()));
        s.on_arrival(0.0, seq(1, 30.0, 50.0));
        let io = seq(0, 30.0, 60.0);
        let r = run_snapshot(&io, 4.0, 20.0); // 4 × 60 = 240 = B
        assert!(s.decide(5.0, &[r]).is_empty());
        // With headroom for exactly one worker, the naive master stacks a
        // sliver of the second scan — the seek interference this causes is
        // what Figure 7 punishes.
        let io2 = seq(0, 30.0, 45.0);
        let r2 = run_snapshot(&io2, 4.0, 20.0); // demand 180, room 60/50 → 1
        let acts = s.decide(5.0, &[r2]);
        assert_eq!(acts.len(), 1);
        assert!(matches!(acts[0], Action::Start { id: TaskId(1), .. }));
        assert_eq!(acts[0].parallelism(), 1.0);
    }

    #[test]
    fn without_adjustment_starts_nothing_when_saturated_and_balanced() {
        // Nominal demand already at the corner (N procs, B io/s): any
        // addition moves the point away, so the policy stays put.
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m()));
        s.on_arrival(0.0, seq(1, 30.0, 50.0));
        let io = seq(0, 30.0, 30.0 + 1e-6);
        let r = run_snapshot(&io, 8.0, 20.0); // 8 procs, demand ≈ 240
        assert!(s.decide(5.0, &[r]).is_empty());
    }

    #[test]
    fn two_running_tasks_need_no_decision() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(2, 10.0, 40.0));
        let a = seq(0, 10.0, 65.0);
        let b = seq(1, 10.0, 8.0);
        let rs = vec![run_snapshot(&a, 3.0, 5.0), run_snapshot(&b, 5.0, 5.0)];
        assert!(s.decide(1.0, &rs).is_empty());
    }

    #[test]
    fn memory_constraint_declines_oversized_pairs() {
        let mut machine = m();
        machine.memory = 100.0;
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine));
        s.on_arrival(0.0, seq(0, 20.0, 65.0).with_memory(80.0));
        s.on_arrival(0.0, seq(1, 20.0, 8.0).with_memory(60.0));
        // 80 + 60 > 100: no pairing; the IO task starts alone.
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts[0].task(), TaskId(0));
        assert_eq!(s.pending_cpu(), 1);
    }

    #[test]
    fn memory_constraint_prefers_a_fitting_partner() {
        let mut machine = m();
        machine.memory = 100.0;
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine));
        s.on_arrival(0.0, seq(0, 20.0, 65.0).with_memory(80.0));
        // The *most* CPU-bound partner does not fit; the next one does.
        s.on_arrival(0.0, seq(1, 20.0, 5.0).with_memory(60.0));
        s.on_arrival(0.0, seq(2, 20.0, 9.0).with_memory(10.0));
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 2);
        assert!(acts.iter().any(|a| a.task() == TaskId(0)));
        assert!(acts.iter().any(|a| a.task() == TaskId(2)), "should pick the fitting partner");
    }

    #[test]
    fn infinite_memory_never_constrains() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.on_arrival(0.0, seq(0, 20.0, 65.0).with_memory(1e18));
        s.on_arrival(0.0, seq(1, 20.0, 8.0).with_memory(1e18));
        assert_eq!(s.decide(0.0, &[]).len(), 2);
    }

    #[test]
    fn invalid_profile_is_rejected_at_the_boundary() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        // Struct literal sidesteps TaskProfile::new's asserts — exactly how a
        // poisoned profile reaches a policy in production.
        let poison = TaskProfile {
            id: TaskId(9),
            seq_time: 10.0,
            io_rate: 0.0,
            io_kind: IoKind::Sequential,
            memory: 0.0,
        };
        s.on_arrival(1.5, poison);
        assert_eq!(s.pending_io() + s.pending_cpu(), 0);
        let rej = s.rejected();
        assert_eq!(rej.len(), 1);
        assert_eq!(rej[0].1, TaskId(9));
        assert!(matches!(
            rej[0].2,
            crate::error::SchedError::InvalidProfile { field: "io_rate", .. }
        ));
        // A rejected arrival never reaches decide().
        assert!(s.decide(2.0, &[]).is_empty());
    }

    #[test]
    fn without_adjustment_tolerates_zero_rate_candidates() {
        // Inject a zero-io_rate profile directly into the CPU queue (bypassing
        // the boundary validation) to prove the bw_room division is guarded:
        // before the guard this yielded inf/NaN room and release-mode UB in
        // the float-to-int comparisons downstream.
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m()));
        s.s_cpu.push(TaskProfile {
            id: TaskId(1),
            seq_time: 10.0,
            io_rate: 0.0,
            io_kind: IoKind::Sequential,
            memory: 0.0,
        });
        let io = seq(0, 30.0, 60.0);
        let r = run_snapshot(&io, 4.0, 20.0); // 4 × 60 = 240 = B: no bw room
        let acts = s.decide(5.0, &[r]);
        // The zero-rate candidate costs no bandwidth, so it may start on the
        // free processors — but the allocation must be finite and sane.
        for a in &acts {
            assert!(a.parallelism().is_finite());
            assert!(a.parallelism() >= 1.0 && a.parallelism() <= 4.0);
        }
    }

    #[test]
    fn trace_sink_records_queues_and_candidates() {
        use crate::trace::{SharedSink, TraceRecord};
        let trace = SharedSink::default();
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        s.set_trace_sink(Some(trace.clone()));
        s.on_arrival(0.0, seq(0, 20.0, 65.0));
        s.on_arrival(0.0, seq(1, 20.0, 8.0));
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 2);
        let records = trace.lock().unwrap().clone();
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Queues { io, cpu, .. } if io == &[TaskId(0)] && cpu == &[TaskId(1)]
        )));
        assert!(records.iter().any(|r| matches!(
            r,
            TraceRecord::Candidate { io: TaskId(0), cpu: TaskId(1), worthwhile: true, .. }
        )));
    }

    #[test]
    fn continuous_arrivals_work_like_queues() {
        let mut s = AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m()));
        // Start a pair, then have another IO task arrive mid-flight; on the
        // IO task's completion the newcomer should be drawn in.
        s.on_arrival(0.0, seq(0, 10.0, 65.0));
        s.on_arrival(0.0, seq(1, 40.0, 8.0));
        let acts = s.decide(0.0, &[]);
        assert_eq!(acts.len(), 2);
        s.on_arrival(1.0, seq(2, 10.0, 55.0));
        s.on_finish(2.0, TaskId(0));
        let survivor = seq(1, 40.0, 8.0);
        let r = run_snapshot(&survivor, 5.0, 30.0);
        let acts = s.decide(2.0, &[r]);
        assert!(acts.iter().any(|a| a.task() == TaskId(2)));
    }
}

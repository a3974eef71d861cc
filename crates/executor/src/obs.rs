//! Executor observability: measured — not modeled — utilization.
//!
//! The paper's §2.2–2.3 claims are quantitative: pairing an IO-bound with a
//! CPU-bound fragment at the balance point keeps *both* the processors and
//! the disk array saturated, and two interleaved sequential streams degrade
//! the array's bandwidth to `B = Br + (1 − ratio)(Bs − Br)`. The scheduler
//! only *models* these effects; this module measures them:
//!
//! * [`ExecMetrics`] — the hot-path registry ([`xprs_obs::Counter`] /
//!   [`xprs_obs::Histogram`]) the [`Machine`](crate::io::Machine) records
//!   into on every run; its sites are sampled or contended-only, so the
//!   cost stays within host noise.
//! * [`UtilSample`] — cumulative machine counters captured by the master at
//!   every scheduling decision; consecutive samples bracket *pairing
//!   windows* during which the set of running fragments was constant.
//! * [`UtilizationAudit`] — per-window measured disk bandwidth, disk
//!   utilization and CPU utilization, compared against the §2.3 corrected
//!   bandwidth prediction for the fragments that were actually co-running,
//!   with the `[Br, Bs]` band the measurement must land in when the array
//!   is saturated by a paired window.
//! * `ExecReport::metrics_json` — the whole report (pool shards, per-disk
//!   per-class service time, event counters, merge shape, per-query
//!   fragment profiles, the audit) built as one [`JsonValue`] tree.

use xprs_disk::{ClassStats, ServiceClass};
use xprs_obs::json::JsonValue;
use xprs_obs::{Counter, Histogram};
use xprs_scheduler::balance::effective_bandwidth;
use xprs_scheduler::{Boundedness, MachineConfig, TaskId, TaskProfile};

use crate::master::ExecReport;

/// Hot-path metric registry, owned by the machine and shared by every
/// worker. All members are lock-free.
#[derive(Debug, Default)]
pub struct ExecMetrics {
    /// Wall nanoseconds each *contended* CPU-gate acquisition waited before
    /// getting a processor permit — the measured cost of over-staffing the
    /// machine. Uncontended grants are zero waits and are not recorded:
    /// `count` is "acquisitions that waited", kept off the hot path so the
    /// instruments' 2% budget survives (see
    /// [`Machine::compute`](crate::io::Machine::compute)).
    pub gate_wait_ns: Histogram,
    /// Read attempts that failed on an injected transient error and were
    /// retried (each retry re-occupies the disk for a full service time).
    pub io_retries: Counter,
    /// Reads that exhausted every retry and escalated to a typed
    /// [`IoFault`](crate::io::IoFault).
    pub io_faults: Counter,
    /// Rows per sorted worker run (the shape `split_runs_stats` has to
    /// balance).
    pub merge_run_rows: Histogram,
    /// Rows each way of a pool-parallel merge received (the post-split
    /// balance `split_runs_stats` achieved); max/mean of the snapshot are
    /// the way-imbalance figures the skew bench reports.
    pub merge_way_rows: Histogram,
    /// Morsels taken from a victim's deque instead of the worker's own
    /// (the work-stealing path earning its keep). Exact: accumulated in
    /// worker-local integers, flushed to this counter at worker exit.
    pub steals: Counter,
    /// Morsel searches that found every deque empty — the worker retired.
    /// Exact, flushed at worker exit like [`Self::steals`].
    pub steal_fails: Counter,
    /// Wall nanoseconds spent processing one claimed morsel end to end.
    /// *Sampled*: one morsel episode in `MORSEL_SAMPLE` (8) reads the
    /// clock and lands here, so `count` is ~1/8 of the morsels run —
    /// per-morsel clock reads and histogram RMWs on every episode would
    /// blow the instruments' 2% budget on a single-core host.
    pub morsel_ns: Histogram,
    /// Wall nanoseconds a worker spent in morsel searches that left its
    /// own deque — successful steal sweeps and terminal empty-handed
    /// sweeps. Sampled at the same 1-in-8 episode rate as
    /// [`Self::morsel_ns`]; owner-deque pops are never recorded.
    pub steal_idle_ns: Histogram,
    /// Release-build unpin protocol violations the pool absorbed instead
    /// of panicking ([`xprs_storage::UnpinError`]): a `finish_read` for a
    /// page that was concurrently evicted-and-reloaded unpinned, or a
    /// double release under a spill/retry race. Debug builds still assert;
    /// in release this counter is the only trace the anomaly leaves.
    pub unpin_anomalies: Counter,
}

/// How one fragment's output was materialized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeProfile {
    /// Sorted worker runs harvested.
    pub runs: u64,
    /// Rows materialized.
    pub rows: u64,
    /// Merge fan-out actually used (1 = serial merge).
    pub ways: u64,
    /// Whether the merge was farmed to the worker pool.
    pub parallel: bool,
    /// Heavy-hitter keys detected in this materialization (carved across
    /// merge ways and/or fanned out by the KeyDomain replication path).
    pub hot_keys: u64,
    /// Rows in the heaviest merge way (0 when the merge was serial).
    pub way_rows_max: u64,
    /// Mean rows per merge way, rounded down (0 when serial).
    pub way_rows_mean: u64,
}

/// What one fragment did, captured at its completion.
#[derive(Debug, Clone, Default)]
pub struct FragmentProfile {
    /// The fragment's scheduler task id.
    pub task: TaskId,
    /// Query index in the submitted batch.
    pub query: usize,
    /// Whether this fragment produced the query's final output.
    pub is_root: bool,
    /// Wall seconds from run start to fragment start / finish.
    pub started_at: f64,
    /// Wall seconds from run start to fragment finish: never before
    /// `model_end`.
    pub finished_at: f64,
    /// Seconds from run start to the modelled instant the fragment's work
    /// ends: the latest end any backend reserved for its last CPU burst as
    /// it left (0 when no backend was staffed).
    pub model_end: f64,
    /// Work units the fragment completed — the units its workers claimed:
    /// pages or keys, or, on a page scan with fewer pages than backends,
    /// page slices (`pages × backends` of them; each page still counts
    /// once in `observed_pages`).
    pub units: u64,
    /// Worker jobs staffed over the fragment's life (initial staffing,
    /// adjustment growth, dead workers' replacements).
    pub staffed: u64,
    /// Processors the policy last assigned the fragment (its `x`).
    pub parallelism: u32,
    /// Backends last staffed to realize that assignment (≥ `parallelism`).
    pub backends: u32,
    /// Parallelism adjustments applied while running.
    pub adjusts: u64,
    /// Signs of life its workers gave: one per staffed job and one per
    /// unit, `staffed + units`.
    pub heartbeats: u64,
    /// Worker slots that never claimed a unit.
    pub idle_slots: u64,
    /// Worker slots whose worker died and was replaced. Any makes the
    /// fragment's measured profile truncated, so it never trains the
    /// predictor.
    pub recoveries: u64,
    /// How its output was materialized.
    pub merge: MergeProfile,
    /// Pages its workers actually read — buffer-pool hits and re-reads
    /// after eviction included, so an *upper bound* on the working set.
    pub observed_pages: u64,
    /// Pages its declared `TaskProfile::memory` implied (0 = undeclared).
    /// `observed_pages > declared_pages` marks an estimate overrun; see
    /// `ExecReport::footprint_overruns`.
    pub declared_pages: u64,
    /// Sorted spill runs its workers cut on crossing the fragment's grant.
    pub spill_chunks: u64,
    /// Rows written to (and read back from) those spill runs.
    pub spill_rows: u64,
    /// At announcement: `None` with no predictor attached, `Some(true)` if
    /// a warm model's profile replaced the declared one, `Some(false)` if
    /// the declared prior stood (cold key, degenerate model).
    pub prediction: Option<bool>,
}

/// Per-query rollup of [`FragmentProfile`]s, in submission order: entry
/// `q` is query `q`, whose root finish time and rows are `results[q]`'s.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Whether the query's cancel token fired before its root completed:
    /// its result is then an empty `Materialized`. A token that fires
    /// *after* the root finished changes nothing and leaves this `false`.
    pub cancelled: bool,
    /// The query's fragments, in fragment order.
    pub fragments: Vec<FragmentProfile>,
}

/// One fragment observed running at a sample instant.
#[derive(Debug, Clone)]
pub struct RunningInfo {
    /// The fragment's scheduler task id.
    pub task: TaskId,
    /// Processors the policy assigned (its `x`); the §2.3 demand is
    /// `C_i · workers`.
    pub workers: u32,
    /// Backends staffed to realize that assignment (≥ `workers`).
    pub backends: u32,
    /// The fragment's cost profile (rates feed the §2.3 prediction).
    pub profile: TaskProfile,
}

/// Cumulative machine counters at one instant. Taken by the master after
/// every scheduling decision, so consecutive samples bracket windows during
/// which the running set — the *pairing* — was constant.
#[derive(Debug, Clone)]
pub struct UtilSample {
    /// Wall seconds since run start.
    pub now: f64,
    /// Fragments running (with applied parallelism) at this instant.
    pub running: Vec<RunningInfo>,
    /// Per-class disk requests and busy time, merged over the array.
    pub disk: ClassStats,
    /// Simulated CPU seconds consumed so far.
    pub cpu_busy: f64,
    /// Page reads issued so far (pool hits included).
    pub reads: u64,
}

/// One pairing window of the audit: what ran, what the array measurably
/// delivered, and what §2.2–2.3 predicted it would.
#[derive(Debug, Clone)]
pub struct AuditWindow {
    /// Window start/end, wall seconds since run start.
    pub t0: f64,
    /// Window end.
    pub t1: f64,
    /// `(task, x, backends)` for each fragment running through the window:
    /// the processors the policy assigned and the backends staffed for them.
    pub tasks: Vec<(TaskId, u32, u32)>,
    /// ≥ 2 fragments co-ran: an inter-operation pairing window.
    pub paired: bool,
    /// Exactly one fragment ran and it is IO-bound (`C_i > B/N`): the
    /// window in which that fragment alone must keep the array busy.
    pub solo_io: bool,
    /// Disk requests served inside the window.
    pub requests: u64,
    /// Measured aggregate disk bandwidth (simulated I/Os per simulated
    /// second) inside the window.
    pub measured_bw: f64,
    /// The I/O rate the policy planned for the window, `Σ C_i·x` — what
    /// `measured_bw` falls short of when fragments are under-staffed.
    pub planned_bw: f64,
    /// Fraction of the window the disks were busy (1.0 = saturated array).
    pub disk_util: f64,
    /// Fraction of the window the processors were busy.
    pub cpu_util: f64,
    /// Simulated seconds the window's requests spent queued for a disk,
    /// summed over the array — the disk wait reason, measured where each
    /// request's start is decided.
    pub queue_wait: f64,
    /// Mean requests at the array (queued or in service) over the window:
    /// `(queue_wait + busy) / window`, by Little's law. With one page of
    /// read-ahead a backend contributes up to two.
    pub queue_depth: f64,
    /// §2.3's corrected effective bandwidth for the window's demand mix:
    /// `B = Br + (1 − ratio)(Bs − Br)` for two sequential streams.
    pub predicted_bw: f64,
}

/// Audit over all pairing windows of a run.
#[derive(Debug, Clone)]
pub struct UtilizationAudit {
    /// `Br`: the array's aggregate random bandwidth (the band floor).
    pub band_lo: f64,
    /// `Bs`: the aggregate (almost-)sequential bandwidth (the band ceiling).
    pub band_hi: f64,
    /// All windows with nonzero wall span, in time order.
    pub windows: Vec<AuditWindow>,
    /// Aggregate measured bandwidth over paired windows (weighted by
    /// simulated time), `0.0` when no paired window carried traffic.
    pub paired_bw: f64,
    /// Requests served inside paired windows.
    pub paired_requests: u64,
    /// Time-weighted mean disk utilization over paired windows.
    pub paired_disk_util: f64,
    /// Time-weighted mean CPU utilization over paired windows.
    pub paired_cpu_util: f64,
    /// Whether `paired_bw` landed inside `[Br, Bs]` (5% slack per side for
    /// timing jitter). Meaningless — `false` — without paired traffic.
    pub paired_in_band: bool,
    /// Requests served inside solo-IO-bound windows.
    pub solo_io_requests: u64,
    /// Time-weighted mean disk utilization over solo-IO-bound windows
    /// (`0.0` when none carried traffic). The policy gives such a fragment
    /// `x = B/C_i` processors precisely so that it saturates the array.
    pub solo_io_disk_util: f64,
}

/// Minimum disk requests before a window's bandwidth estimate is trusted in
/// the paired aggregate (tiny windows measure scheduling noise).
const AUDIT_MIN_REQUESTS: u64 = 16;

/// Band slack for [`UtilizationAudit::paired_in_band`]: scaled-time sleeps
/// round up to OS timer granularity, so measurements sit a few percent off
/// the ideal band edges.
const BAND_SLACK: f64 = 0.05;

/// Compute the audit from a run's samples. `scale` is wall seconds per
/// simulated second; with `scale == 0` (unthrottled) there is no simulated
/// clock to measure against, so the audit reports the band and no windows.
pub fn audit_samples(samples: &[UtilSample], machine: &MachineConfig, scale: f64) -> UtilizationAudit {
    let band_lo = machine.total_random_bandwidth();
    let band_hi = machine.total_bandwidth();
    let mut audit = UtilizationAudit {
        band_lo,
        band_hi,
        windows: Vec::new(),
        paired_bw: 0.0,
        paired_requests: 0,
        paired_disk_util: 0.0,
        paired_cpu_util: 0.0,
        paired_in_band: false,
        solo_io_requests: 0,
        solo_io_disk_util: 0.0,
    };
    if scale <= 0.0 {
        return audit;
    }
    let (mut paired_req, mut paired_sim) = (0u64, 0.0f64);
    let (mut paired_busy, mut paired_cpu) = (0.0f64, 0.0f64);
    let (mut solo_sim, mut solo_busy) = (0.0f64, 0.0f64);
    for pair in samples.windows(2) {
        let (s0, s1) = (&pair[0], &pair[1]);
        let wall_dt = s1.now - s0.now;
        if wall_dt <= 1e-9 {
            continue;
        }
        let sim_dt = wall_dt / scale;
        let disk = s1.disk.diff(&s0.disk);
        let requests = disk.total_count();
        let demands: Vec<(f64, xprs_scheduler::IoKind)> = s0
            .running
            .iter()
            .map(|r| (r.profile.io_rate * f64::from(r.workers), r.profile.io_kind))
            .collect();
        let w = AuditWindow {
            t0: s0.now,
            t1: s1.now,
            tasks: s0.running.iter().map(|r| (r.task, r.workers, r.backends)).collect(),
            paired: s0.running.len() >= 2,
            solo_io: matches!(
                s0.running.as_slice(),
                [r] if r.profile.classify(machine) == Boundedness::IoBound
            ),
            requests,
            measured_bw: requests as f64 / sim_dt,
            planned_bw: demands.iter().fold(0.0, |sum, d| sum + d.0),
            disk_util: disk.total_busy() / (f64::from(machine.n_disks) * sim_dt),
            cpu_util: (s1.cpu_busy - s0.cpu_busy).max(0.0) / (f64::from(machine.n_procs) * sim_dt),
            queue_wait: disk.queue_wait,
            queue_depth: (disk.queue_wait + disk.total_busy()) / sim_dt,
            predicted_bw: effective_bandwidth(machine, &demands),
        };
        if w.paired && requests >= AUDIT_MIN_REQUESTS {
            paired_req += requests;
            paired_sim += sim_dt;
            paired_busy += w.disk_util * sim_dt;
            paired_cpu += w.cpu_util * sim_dt;
        }
        if w.solo_io && requests >= AUDIT_MIN_REQUESTS {
            audit.solo_io_requests += requests;
            solo_sim += sim_dt;
            solo_busy += w.disk_util * sim_dt;
        }
        audit.windows.push(w);
    }
    if paired_sim > 0.0 {
        audit.paired_bw = paired_req as f64 / paired_sim;
        audit.paired_requests = paired_req;
        audit.paired_disk_util = paired_busy / paired_sim;
        audit.paired_cpu_util = paired_cpu / paired_sim;
        audit.paired_in_band = audit.paired_bw >= band_lo * (1.0 - BAND_SLACK)
            && audit.paired_bw <= band_hi * (1.0 + BAND_SLACK);
    }
    if solo_sim > 0.0 {
        audit.solo_io_disk_util = solo_busy / solo_sim;
    }
    audit
}

fn class_stats_json(c: &ClassStats) -> JsonValue {
    let class = |class: ServiceClass| {
        JsonValue::obj().with("count", c.count_of(class)).with("busy", c.busy_of(class))
    };
    JsonValue::obj()
        .with("sequential", class(ServiceClass::Sequential))
        .with("almost_sequential", class(ServiceClass::AlmostSequential))
        .with("random", class(ServiceClass::Random))
        .with("queue_wait", c.queue_wait)
}

/// `values` as a histogram, rendered like the registry's.
fn hist_json(values: impl Iterator<Item = u64>) -> JsonValue {
    let h = Histogram::new();
    values.for_each(|v| h.observe(v));
    h.snapshot().to_json()
}

fn fragment_json(f: &FragmentProfile) -> JsonValue {
    let m = &f.merge;
    JsonValue::obj()
        .with("task", f.task)
        .with("is_root", f.is_root)
        .with("started_at", f.started_at)
        .with("finished_at", f.finished_at)
        .with("units", f.units)
        .with("staffed", f.staffed)
        .with("parallelism", f.parallelism)
        .with("backends", f.backends)
        .with("adjusts", f.adjusts)
        .with("heartbeats", f.heartbeats)
        .with(
            "merge",
            JsonValue::obj()
                .with("runs", m.runs)
                .with("rows", m.rows)
                .with("ways", m.ways)
                .with("parallel", m.parallel)
                .with("hot_keys", m.hot_keys)
                .with("way_rows_max", m.way_rows_max)
                .with("way_rows_mean", m.way_rows_mean),
        )
        .with("observed_pages", f.observed_pages)
        .with("declared_pages", f.declared_pages)
}

fn window_json(w: &AuditWindow) -> JsonValue {
    let tasks = w.tasks.iter().map(|&(t, x, b)| vec![t.0, u64::from(x), u64::from(b)]);
    JsonValue::obj()
        .with("t0", w.t0)
        .with("t1", w.t1)
        .with("tasks", tasks.collect::<Vec<_>>())
        .with("paired", w.paired)
        .with("solo_io", w.solo_io)
        .with("requests", w.requests)
        .with("measured_bw", w.measured_bw)
        .with("planned_bw", w.planned_bw)
        .with("disk_util", w.disk_util)
        .with("cpu_util", w.cpu_util)
        .with("queue_wait", w.queue_wait)
        .with("queue_depth", w.queue_depth)
        .with("predicted_bw", w.predicted_bw)
}

fn audit_json(a: &UtilizationAudit) -> JsonValue {
    JsonValue::obj()
        .with("band", vec![a.band_lo, a.band_hi])
        .with("paired_bw", a.paired_bw)
        .with("paired_requests", a.paired_requests)
        .with("paired_disk_util", a.paired_disk_util)
        .with("paired_cpu_util", a.paired_cpu_util)
        .with("paired_in_band", a.paired_in_band)
        .with("solo_io_requests", a.solo_io_requests)
        .with("solo_io_disk_util", a.solo_io_disk_util)
        .with("windows", a.windows.iter().map(window_json).collect::<Vec<_>>())
}

impl ExecReport {
    /// The run's utilization audit, computed from the pairing-window
    /// samples the master collected.
    pub fn utilization_audit(&self) -> UtilizationAudit {
        audit_samples(&self.samples, &self.machine, self.scale)
    }

    /// Render the whole report as one JSON document (`metrics.json`).
    ///
    /// The structural counters (pool shards, per-disk class stats,
    /// fragment profiles, the audit) come from cold paths, the hot-path
    /// sections (`gate_wait_ns`, `io`, `merge`, `morsel`) from the run's
    /// metric registry. Every per-fragment count — merge fan-out, runs and
    /// hot keys, footprint overruns, prediction outcomes — is a fold over
    /// the fragment profiles.
    pub fn metrics_json(&self) -> String {
        // A report built by hand may carry no registry: its hot-path
        // sections then render as an empty one's.
        let empty = ExecMetrics::default();
        let (pool, m) = (&self.stats.pool, &self.machine);
        let hot = self.metrics.as_deref().unwrap_or(&empty);
        let shard = |s: &xprs_storage::PoolStats| {
            JsonValue::obj()
                .with("hits", s.hits)
                .with("misses", s.misses)
                .with("evictions", s.evictions)
                .with("bypasses", s.bypasses)
        };
        let query = |(qi, q): (usize, &QueryProfile)| {
            JsonValue::obj()
                .with("query", qi)
                .with("finished_at", self.results[qi].finished_at)
                .with("rows", self.results[qi].rows.rows.len())
                .with("cancelled", q.cancelled)
                .with("fragments", q.fragments.iter().map(fragment_json).collect::<Vec<_>>())
        };
        // A materialized fragment merged at least one way; a cancelled one
        // merged nothing.
        let merges = || self.fragments().map(|f| &f.merge).filter(|g| g.ways > 0);
        let predicted =
            |outcome| self.fragments().filter(|f| f.prediction == Some(outcome)).count();
        JsonValue::obj()
            .with("schema", "xprs-metrics/1")
            .with(
                "machine",
                JsonValue::obj()
                    .with("n_procs", m.n_procs)
                    .with("n_disks", m.n_disks)
                    .with("seq_bw", m.seq_bw)
                    .with("almost_seq_bw", m.almost_seq_bw)
                    .with("random_bw", m.random_bw),
            )
            .with("scale", self.scale)
            .with("wall", self.wall)
            .with("reads", self.stats.reads)
            .with("cpu_busy", self.cpu_busy)
            .with(
                "pool",
                shard(pool)
                    .with("fetches", pool.fetches())
                    .with("hit_rate", pool.hit_rate())
                    .with("shards", self.pool_shards.iter().map(shard).collect::<Vec<_>>()),
            )
            .with("disks", self.disk_classes.iter().map(class_stats_json).collect::<Vec<_>>())
            .with(
                "events",
                JsonValue::obj()
                    .with("staffed", self.pool_jobs)
                    .with("adjusts", self.adjusts)
                    .with("heartbeats", self.heartbeats)
                    .with("patrol_ticks", self.patrol_ticks)
                    .with("recoveries", self.worker_recoveries)
                    .with("recalibrations", self.recalibrations)
                    .with("pool_threads", self.pool_threads),
            )
            .with(
                "memory",
                JsonValue::obj()
                    .with("granted_pages", self.mem_granted_pages)
                    .with("released_pages", self.mem_released_pages)
                    .with("grant_waits", self.mem_grant_waits)
                    .with("spill_chunks", self.spill_chunks)
                    .with("spill_rows", self.spill_rows)
                    .with("pinned_at_exit", self.pool_pinned_at_exit)
                    .with("footprint_overruns", self.footprint_overruns()),
            )
            .with(
                "predict",
                JsonValue::obj()
                    .with("substitutions", predicted(true))
                    .with("fallbacks", predicted(false)),
            )
            .with("gate_wait_ns", hot.gate_wait_ns.snapshot().to_json())
            .with(
                "io",
                JsonValue::obj()
                    .with("retries", hot.io_retries.get())
                    .with("faults", hot.io_faults.get())
                    .with("unpin_anomalies", hot.unpin_anomalies.get()),
            )
            .with(
                "merge",
                JsonValue::obj()
                    .with("fanout", hist_json(merges().map(|g| g.ways)))
                    .with("runs", hist_json(merges().map(|g| g.runs)))
                    .with("run_rows", hot.merge_run_rows.snapshot().to_json())
                    .with("hot_keys", merges().map(|g| g.hot_keys).sum::<u64>())
                    .with("way_rows", hot.merge_way_rows.snapshot().to_json()),
            )
            .with(
                "morsel",
                JsonValue::obj()
                    .with("steals", hot.steals.get())
                    .with("steal_fails", hot.steal_fails.get())
                    .with("morsel_ns", hot.morsel_ns.snapshot().to_json())
                    .with("steal_idle_ns", hot.steal_idle_ns.snapshot().to_json()),
            )
            .with("queries", self.profiles.iter().enumerate().map(query).collect::<Vec<_>>())
            .with("utilization_audit", audit_json(&self.utilization_audit()))
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_scheduler::IoKind;

    fn prof(id: u64, io_rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), 10.0, io_rate, IoKind::Sequential)
    }

    fn sample(now: f64, running: Vec<RunningInfo>, reqs: u64, busy: f64, cpu: f64) -> UtilSample {
        UtilSample {
            now,
            running,
            // Every request queued for as long as it was served.
            disk: ClassStats { counts: [0, reqs, 0], busy: [0.0, busy, 0.0], queue_wait: busy },
            cpu_busy: cpu,
            reads: reqs,
        }
    }

    #[test]
    fn audit_is_empty_without_a_time_scale() {
        let m = MachineConfig::paper_default();
        let s = vec![sample(0.0, vec![], 0, 0.0, 0.0), sample(1.0, vec![], 100, 0.5, 0.5)];
        let a = audit_samples(&s, &m, 0.0);
        assert!(a.windows.is_empty());
        assert_eq!(a.band_lo, 140.0);
        assert_eq!(a.band_hi, 240.0);
    }

    #[test]
    fn paired_window_bandwidth_and_utilization() {
        let m = MachineConfig::paper_default();
        // scale 0.1: a 1-second wall window is 10 simulated seconds.
        // 1800 requests / 10 s = 180 io/s — inside [140, 240]. Disks busy
        // 38 of the 40 disk-seconds, CPU busy 40 of 80 proc-seconds.
        let running = vec![
            RunningInfo { task: TaskId(1), workers: 3, backends: 5, profile: prof(1, 60.0) },
            RunningInfo { task: TaskId(2), workers: 5, backends: 6, profile: prof(2, 10.0) },
        ];
        let s = vec![
            sample(0.0, running, 0, 0.0, 0.0),
            sample(1.0, vec![], 1800, 38.0, 40.0),
        ];
        let a = audit_samples(&s, &m, 0.1);
        assert_eq!(a.windows.len(), 1);
        let w = &a.windows[0];
        assert!(w.paired);
        assert!((w.measured_bw - 180.0).abs() < 1e-9);
        assert!((w.disk_util - 0.95).abs() < 1e-9);
        assert!((w.cpu_util - 0.5).abs() < 1e-9);
        // 38 s queued + 38 s in service over a 10 s window: 7.6 requests at
        // the array on average.
        assert!((w.queue_wait - 38.0).abs() < 1e-9);
        assert!((w.queue_depth - 7.6).abs() < 1e-9);
        // Two sequential streams at demands 180 vs 50: §2.3 interpolates
        // strictly inside the band.
        assert!(w.predicted_bw > 140.0 && w.predicted_bw < 240.0);
        assert!((a.paired_bw - 180.0).abs() < 1e-9);
        assert!(a.paired_in_band);
    }

    #[test]
    fn solo_and_empty_windows_stay_out_of_the_paired_aggregate() {
        let m = MachineConfig::paper_default();
        let solo = vec![RunningInfo { task: TaskId(1), workers: 4, backends: 6, profile: prof(1, 60.0) }];
        let s = vec![
            sample(0.0, solo, 0, 0.0, 0.0),
            sample(1.0, vec![], 3000, 39.0, 10.0),
        ];
        let a = audit_samples(&s, &m, 0.1);
        assert_eq!(a.windows.len(), 1);
        assert!(!a.windows[0].paired);
        assert_eq!(a.paired_requests, 0);
        assert!(!a.paired_in_band);
        // Solo sequential stream: §2.3 predicts the full band ceiling.
        assert_eq!(a.windows[0].predicted_bw, 240.0);
        // C = 60 > B/N = 30: a solo IO-bound window. Its planned rate is
        // C·x — the policy's processors, not the backends — and its disk
        // utilization (39 of 40 disk-seconds) is the solo figure.
        assert!(a.windows[0].solo_io);
        assert_eq!(a.windows[0].tasks, vec![(TaskId(1), 4, 6)]);
        assert_eq!(a.windows[0].planned_bw, 240.0);
        assert_eq!(a.solo_io_requests, 3000);
        assert!((a.solo_io_disk_util - 0.975).abs() < 1e-9);
    }

    #[test]
    fn a_lone_cpu_bound_fragment_is_not_a_solo_io_window() {
        let m = MachineConfig::paper_default();
        let solo = vec![RunningInfo { task: TaskId(1), workers: 8, backends: 9, profile: prof(1, 11.0) }];
        let s = vec![sample(0.0, solo, 0, 0.0, 0.0), sample(1.0, vec![], 880, 14.0, 70.0)];
        let a = audit_samples(&s, &m, 0.1);
        assert!(!a.windows[0].solo_io);
        assert_eq!(a.windows[0].planned_bw, 88.0);
        assert_eq!(a.solo_io_requests, 0);
        assert_eq!(a.solo_io_disk_util, 0.0);
    }
}

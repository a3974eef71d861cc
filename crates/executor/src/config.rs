//! Executor configuration: [`ExecConfig`] and its builders.

use std::path::PathBuf;
use std::sync::Arc;

use xprs_disk::FaultPlan;
use xprs_scheduler::predict::Predictor;
use xprs_scheduler::MachineConfig;

use crate::error::ExecError;
// Named only by the intra-doc links below.
#[cfg(doc)]
use {crate::obs::ExecMetrics, crate::ExecReport, crate::StealPartition};
#[cfg(doc)]
use {xprs_scheduler::trace::TraceRecord, xprs_scheduler::TaskProfile};

/// Default units per morsel: big enough to amortize the deque latch and
/// the completion report, small enough that an 8-worker fragment over a
/// few hundred pages still has morsels worth stealing.
pub const DEFAULT_MORSEL_UNITS: u64 = 16;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Machine model (processors, disks, service rates).
    pub machine: MachineConfig,
    /// Wall seconds per simulated second; `0.0` = run at full speed.
    pub scale: f64,
    /// Shared buffer-pool frames (0 disables buffering). The paper's
    /// workloads scan relations far larger than memory, so the default is a
    /// modest pool that cannot cache a whole scan. Its capacity is a
    /// scheduled resource on every run: a fragment reserves the pages it
    /// declared it holds ([`TaskProfile::memory`]) before it is staffed,
    /// waits FIFO while the pool is over-committed, releases them at
    /// completion, and cuts sorted spill runs past its grant.
    pub bufpool_pages: usize,
    /// Buffer-pool shards (page-hashed, independently latched); clamped
    /// to ≥ 1.
    pub bufpool_shards: usize,
    /// Work units (pages or keys) per morsel of the stealing deal; clamped
    /// to ≥ 1. Fragments too small for a whole morsel per backend, or too
    /// large for a bounded deal, are cut at a derived grain (see
    /// [`StealPartition::new`]).
    pub morsel_units: u64,
    /// Injected fault schedule (`None` = fault-free operation).
    pub faults: Option<Arc<FaultPlan>>,
    /// Heartbeat-patrol interval in wall milliseconds. `0` disables the
    /// patrol — and with it dead-worker recovery and recalibration.
    pub patrol_ms: u64,
    /// Patrol ticks a slot's heartbeat may stay frozen (while the fragment
    /// still has work and the slot never exited) before it is declared dead
    /// and its partition share reclaimed.
    pub patrol_grace: u32,
    /// Relative drift between observed and modeled I/O service rate
    /// tolerated before the policy is recalibrated. `0.0` disables
    /// recalibration.
    pub recal_band: f64,
    /// I/O requests that must land in a patrol window before its rate
    /// estimate is trusted for recalibration.
    pub recal_min_requests: u64,
    /// Fragment outputs at least this many rows long have their sorted
    /// worker runs merged **in parallel** on the worker pool (split into
    /// disjoint key sub-ranges, one merge task per processor); smaller
    /// outputs are merged serially on the master.
    pub parallel_merge_min_rows: usize,
    /// Parallel-merge fan-out (key sub-ranges merged concurrently). `0` ⇒
    /// auto: the simulated machine's processor count, capped by the host's
    /// available parallelism — on a single-core host the merge stays
    /// serial, since splitting would be pure copy overhead with no
    /// concurrency to buy. Tests set an explicit fan-out to exercise the
    /// pool-farmed path deterministically on any host.
    pub parallel_merge_ways: usize,
    /// Collect detailed hot-path metrics ([`ExecMetrics`]: gate-wait
    /// histogram, I/O retry/fault counters, merge shape). Off by default;
    /// the cold-path profile (pool shards, per-disk class stats, fragment
    /// profiles, the utilization audit) is collected regardless.
    pub obs: bool,
    /// Write [`ExecReport::metrics_json`] to this path after a successful
    /// run. Implies `obs`.
    pub metrics_out: Option<PathBuf>,
    /// Online profile predictor. When attached, the master substitutes
    /// predicted `seq_time`/`io_rate`/memory for the optimizer's declared
    /// values at every fragment announcement (cold keys fall back to the
    /// declared prior), emits each substitution as
    /// [`TraceRecord::Predict`], and feeds finished fragments' measured
    /// profiles back into the model. Share one `Arc` across repeated runs
    /// so the model warms; `None` (the default) schedules purely on
    /// declared profiles — the A/B baseline.
    pub predictor: Option<Arc<Predictor>>,
}

impl ExecConfig {
    /// Functional-testing configuration: paper machine, no throttling.
    pub fn unthrottled() -> Self {
        ExecConfig {
            machine: MachineConfig::paper_default(),
            scale: 0.0,
            bufpool_pages: 512,
            bufpool_shards: 8,
            morsel_units: DEFAULT_MORSEL_UNITS,
            faults: None,
            patrol_ms: 0,
            patrol_grace: 3,
            recal_band: 0.2,
            recal_min_requests: 64,
            parallel_merge_min_rows: 4096,
            parallel_merge_ways: 0,
            obs: false,
            metrics_out: None,
            predictor: None,
        }
    }

    /// Demonstration configuration running `speedup`× faster than real time.
    /// A `speedup` that is not a positive finite number is refused when the
    /// configuration is run ([`ExecError::InvalidConfig`], field `scale`).
    pub fn scaled(speedup: f64) -> Self {
        ExecConfig { scale: 1.0 / speedup, ..ExecConfig::unthrottled() }
    }

    /// Attach an injected fault schedule, enabling the heartbeat patrol
    /// (at a 5 ms interval unless one is already configured) so dead
    /// workers are actually recovered.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        if self.patrol_ms == 0 {
            self.patrol_ms = 5;
        }
        self
    }

    /// Enable detailed hot-path metrics collection.
    pub fn with_obs(mut self) -> Self {
        self.obs = true;
        self
    }

    /// Write `metrics.json` to `path` after each successful run (enables
    /// detailed metrics).
    pub fn with_metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self.obs = true;
        self
    }

    /// Attach an online profile predictor: announcements consume predicted
    /// rather than declared profiles once the predictor has observations
    /// for the fragment's (plan-shape, size-bucket) key, and completions
    /// train it. Pass the same `Arc` to successive executors so repeated
    /// plan shapes converge.
    pub fn with_predictor(mut self, predictor: Arc<Predictor>) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Configure the heartbeat patrol explicitly: `ms` between patrol
    /// sweeps (0 disables the patrol) and `grace` consecutive frozen ticks
    /// before a worker slot is declared dead. A continuous service tightens
    /// both so a dead worker inflates one tenant's latency for
    /// milliseconds, not a whole batch run.
    pub fn with_patrol(mut self, ms: u64, grace: u32) -> Self {
        self.patrol_ms = ms;
        self.patrol_grace = grace.max(1);
        self
    }

    /// Enable degradation-aware recalibration with tolerance `band`
    /// (e.g. `0.2` = recalibrate when the observed I/O rate drifts more
    /// than 20% from the model), turning the patrol on if it is off. A
    /// negative or non-finite `band` is refused when the configuration is
    /// run ([`ExecError::InvalidConfig`]); `0.0` turns recalibration off.
    pub fn with_recalibration(mut self, band: f64) -> Self {
        self.recal_band = band;
        if self.patrol_ms == 0 {
            self.patrol_ms = 5;
        }
        self
    }

    /// Every field is `pub`, so the builders cannot vouch for a value: the
    /// configuration is checked once, where a run or a session consumes it.
    pub(crate) fn validate(&self) -> Result<(), ExecError> {
        let finite_non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let refused = [
            ("scale", self.scale, finite_non_negative(self.scale)),
            ("recal_band", self.recal_band, finite_non_negative(self.recal_band)),
            ("machine.n_procs", f64::from(self.machine.n_procs), self.machine.n_procs > 0),
            ("machine.n_disks", f64::from(self.machine.n_disks), self.machine.n_disks > 0),
        ]
        .into_iter()
        .find(|&(_, _, ok)| !ok);
        match refused {
            Some((field, value, _)) => Err(ExecError::InvalidConfig { field, value }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refusal(cfg: &ExecConfig) -> Option<&'static str> {
        match cfg.validate() {
            Ok(()) => None,
            Err(ExecError::InvalidConfig { field, .. }) => Some(field),
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }

    #[test]
    fn the_stock_configurations_are_accepted() {
        assert_eq!(refusal(&ExecConfig::unthrottled()), None);
        assert_eq!(refusal(&ExecConfig::scaled(20.0).with_recalibration(0.3)), None);
        let off = ExecConfig { recal_band: 0.0, ..ExecConfig::unthrottled() };
        assert_eq!(refusal(&off), None, "a zero band is recalibration off");
    }

    #[test]
    fn a_bad_scale_is_refused_however_it_got_there() {
        for speedup in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let cfg = ExecConfig::scaled(speedup);
            // 1/inf is a legal scale of zero; everything else is nonsense.
            let want = (speedup != f64::INFINITY).then_some("scale");
            assert_eq!(refusal(&cfg), want, "speedup {speedup}");
        }
        let direct = ExecConfig { scale: -1.0, ..ExecConfig::unthrottled() };
        assert_eq!(refusal(&direct), Some("scale"), "a pub field bypasses every builder");
    }

    #[test]
    fn a_bad_recalibration_band_is_refused() {
        for band in [-0.2, f64::NAN, f64::INFINITY] {
            let cfg = ExecConfig::unthrottled().with_recalibration(band);
            assert_eq!(refusal(&cfg), Some("recal_band"), "band {band}");
        }
    }

    #[test]
    fn a_machine_without_processors_or_disks_is_refused() {
        let mut cfg = ExecConfig::unthrottled();
        cfg.machine.n_procs = 0;
        assert_eq!(refusal(&cfg), Some("machine.n_procs"));
        let mut cfg = ExecConfig::unthrottled();
        cfg.machine.n_disks = 0;
        assert_eq!(refusal(&cfg), Some("machine.n_disks"));
    }
}

//! Executor configuration: [`ExecConfig`] and its builders.

use std::sync::Arc;

use xprs_disk::FaultPlan;
use xprs_scheduler::predict::Predictor;
use xprs_scheduler::MachineConfig;

use crate::error::ExecError;
// Named only by the intra-doc links below.
#[cfg(doc)]
use {crate::ExecSession, crate::StealPartition};
#[cfg(doc)]
use {xprs_scheduler::trace::TraceRecord, xprs_scheduler::TaskProfile};

/// Work units (pages, page slices or keys) per morsel of the stealing deal:
/// big enough to amortize the deque latch and the completion report, small
/// enough that an 8-worker fragment over a few hundred pages still has
/// morsels worth stealing. Fragments too small for a whole morsel per
/// backend, or too large for a bounded deal, are cut at a derived grain
/// (see [`StealPartition::new`]).
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
    /// Injected fault schedule (`None` = fault-free operation).
    pub faults: Option<Arc<FaultPlan>>,
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
            faults: None,
            predictor: None,
        }
    }

    /// Demonstration configuration running `speedup`× faster than real time.
    /// A `speedup` that is not a positive finite number is refused when the
    /// configuration is run ([`ExecError::InvalidConfig`], field `scale`).
    pub fn scaled(speedup: f64) -> Self {
        ExecConfig { scale: 1.0 / speedup, ..ExecConfig::unthrottled() }
    }

    /// Attach an injected fault schedule. However the plan is set, a run
    /// that carries one ticks its master's patrol — as do a run on a shared
    /// [`ExecSession`] and a run with cancel tokens — so a worker that dies
    /// without a word is still reaped and replaced.
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The identity: every run collects its hot-path metrics. Kept only
    /// because `benchmark/` still calls it; a later change to `benchmark/`
    /// removes it.
    pub fn with_obs(self) -> Self {
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

    /// Every field is `pub`, so the builders cannot vouch for a value: the
    /// configuration is checked once, where a run or a session consumes it.
    pub(crate) fn validate(&self) -> Result<(), ExecError> {
        let refused = [
            ("scale", self.scale, self.scale.is_finite() && self.scale >= 0.0),
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
        assert_eq!(refusal(&ExecConfig::scaled(20.0)), None);
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

    /// No configuration carries a band to get wrong: every run tests the
    /// fixed [`RECAL_BAND`](crate::patrol::RECAL_BAND), pinned here at its
    /// boundary. A window inside it is no drift, one outside it moves the
    /// model by at most one clamped step, and a nonsense ratio moves
    /// nothing.
    #[test]
    fn a_bad_recalibration_band_is_refused() {
        use crate::patrol::{recal_step, MAX_RECAL_STEP, RECAL_BAND};
        for inside in [1.0, 1.0 - RECAL_BAND, 1.0 + RECAL_BAND, 0.8] {
            assert_eq!(recal_step(inside), None, "ratio {inside} is inside the band");
        }
        assert_eq!(recal_step(1.0 - RECAL_BAND - 1e-9), Some(1.0 - MAX_RECAL_STEP));
        assert_eq!(recal_step(1.0 + RECAL_BAND + 1e-9), Some(1.0 + MAX_RECAL_STEP));
        assert_eq!(recal_step(0.36), Some(1.0 - MAX_RECAL_STEP), "one step, not the whole drop");
        for nonsense in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(recal_step(nonsense), None, "ratio {nonsense}");
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

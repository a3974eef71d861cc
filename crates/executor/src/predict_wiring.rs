//! The wiring between the master and the online profile predictor
//! ([`xprs_scheduler::predict`]): the key a fragment's history is filed
//! under, the substitution of a predicted profile at announcement, and the
//! completion-time observation that trains the model.

use std::sync::atomic::Ordering;

use xprs_optimizer::program::{Driver, PipelineOp};
use xprs_scheduler::predict::{Observation, PredictKey};
use xprs_scheduler::trace::{emit, TraceRecord};

use crate::master::{Executor, FragSlot};
use crate::worker::FragCtx;

impl Executor {
    /// The predictor key of a fragment: a process-stable hash of its
    /// operator shape (driver, pipeline ops, producer count, root flag)
    /// plus a log2 bucket of the heap pages its driver reads — so a model
    /// trained on a 100-page scan is never applied to a 100k-page one,
    /// while repetitions of the same plan shape over same-magnitude
    /// relations share their history.
    fn predict_key(&self, f: &FragSlot) -> PredictKey {
        // FNV-1a over explicit shape codes. `mem::discriminant` hashes are
        // not guaranteed stable across builds; these codes are.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        let (driver_code, driver_rel) = match f.program.driver {
            Driver::PageScan { rel } => (1u64, Some(rel)),
            Driver::KeyScan { rel } => (2, Some(rel)),
            Driver::KeyDomain => (3, None),
        };
        mix(driver_code);
        for op in &f.program.ops {
            mix(match op {
                PipelineOp::ProbeHash { .. } => 11,
                PipelineOp::MergeWith { .. } => 12,
                PipelineOp::NestInner { .. } => 13,
                PipelineOp::MergeIndexed { .. } => 14,
            });
        }
        mix(f.deps.len() as u64);
        mix(u64::from(f.prof.is_root));
        // Pages behind the driver: the scanned relation for page/key
        // scans; for a key-domain walk (inputs all materialized) the
        // query's whole heap footprint stands in as the scale proxy.
        let heap_pages = |rel: usize| {
            f.bindings
                .get(rel)
                .and_then(|b| self.catalog.get(&b.name))
                .map_or(0, |r| r.heap.n_blocks())
        };
        let total_pages = match driver_rel {
            Some(rel) => heap_pages(rel),
            None => (0..f.bindings.len()).map(heap_pages).sum(),
        };
        PredictKey::new(h, total_pages)
    }

    /// Substitute the predicted profile for the declared one before `slot`
    /// is announced to the policy, when a predictor is attached and its
    /// model for the fragment's key is warm. `co_runners` — the fragments
    /// running at announcement — is the interference covariate, and is
    /// remembered on the slot so the completion-time observation trains the
    /// regression at the same point it was queried. The outcome lands in the
    /// fragment's profile, `FragmentProfile::prediction`.
    pub(crate) fn apply_prediction(&self, slot: &mut FragSlot, now: f64, co_runners: u32) {
        slot.co_runners = co_runners;
        let Some(pred) = &self.cfg.predictor else { return };
        let p = pred.predict(self.predict_key(slot), &slot.declared, co_runners);
        slot.prof.prediction = Some(p.from_model);
        if !p.from_model {
            return; // cold start / degenerate model: declared prior stands
        }
        let d = &slot.declared;
        let prof = &p.profile;
        emit(&self.sink, || TraceRecord::Predict {
            now,
            task: d.id,
            declared_seq_time: d.seq_time,
            declared_io_rate: d.io_rate,
            declared_memory: d.memory,
            predicted_seq_time: prof.seq_time,
            predicted_io_rate: prof.io_rate,
            predicted_memory: prof.memory,
            co_runners,
            observations: p.observations,
        });
        slot.profile = p.profile;
    }

    /// Train the predictor on a finished fragment's measured profile. Wall
    /// seconds convert to simulated seconds through the time scale, so
    /// realized quantities are in the same units the optimizer declares;
    /// unthrottled runs (`scale == 0`) carry no timing signal and are
    /// skipped. A fragment that was cancelled or lost one of its own workers
    /// is reported `truncated` so it never trains the model.
    pub(crate) fn observe_completion(
        &self,
        slot: &FragSlot,
        ctx: &FragCtx,
        t_done: f64,
        truncated: bool,
    ) {
        let Some(pred) = &self.cfg.predictor else { return };
        if self.cfg.scale <= 0.0 {
            return;
        }
        let sim_elapsed = (t_done - slot.prof.started_at) / self.cfg.scale;
        let x = ctx.target_parallelism.load(Ordering::Relaxed).max(1) as f64;
        pred.observe(
            self.predict_key(slot),
            &Observation {
                declared_seq_time: slot.declared.seq_time,
                declared_io_rate: slot.declared.io_rate,
                realized_seq_time: sim_elapsed * x,
                observed_pages: slot.prof.observed_pages as f64,
                co_runners: slot.co_runners,
                truncated,
            },
        );
    }
}

//! Online per-task profile prediction from observed executions.
//!
//! The optimizer *declares* a [`TaskProfile`] for every fragment; the obs
//! layer *measures* what actually happened (wall time, parallelism applied,
//! pages read). This module closes the loop: a [`Predictor`] keeps a running
//! least-squares model per `(plan-shape, relation-size-bucket)` key and, once
//! a key has enough history, substitutes corrected `seq_time` / `io_rate` /
//! memory estimates for the declared ones. The regressor is the co-runner
//! count at observation time, so the model learns a first-order
//! concurrency-interference term instead of folding contention into the
//! base estimate (Wu et al., "Improving DBMS Scheduling Decisions with
//! Fine-grained Performance Prediction on Concurrent Queries").
//!
//! Design rules, in order of importance:
//!
//! 1. **Never poison the scheduler.** Every prediction must pass
//!    [`TaskProfile::validate`]. Cold keys (< [`MIN_OBSERVATIONS`] samples),
//!    zero-variance regressors, and truncated observations fall back to the
//!    declared profile; warm predictions are ratio-clamped to
//!    [`RATIO_CLAMP`]⁻¹..[`RATIO_CLAMP`] of declared so one wild sample
//!    cannot emit a NaN or a zero `C_i`.
//! 2. **Deterministic.** Prediction is a pure function of the observation
//!    stream: no clocks, no randomness, no map-iteration-order dependence —
//!    the trace-replay harness relies on this.
//! 3. **No ML deps.** Plain running sums; O(1) state per key and target.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::task::TaskProfile;

/// Observations required before a key's model overrides the declared
/// profile. Below this the declared profile is the (cold-start) prior.
pub const MIN_OBSERVATIONS: u64 = 2;

/// Predicted/declared ratio clamp: a warm model may scale `seq_time` and
/// `io_rate` by at most this factor in either direction. Keeps a corrupted
/// observation stream from driving estimates to zero or infinity.
pub const RATIO_CLAMP: f64 = 16.0;

/// Model key: fragments with the same plan shape over similarly sized
/// relations share an error model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredictKey {
    /// Hash of the fragment's operator shape (driver + pipeline ops + root
    /// flag). Computed by the executor from the fragment's program, as the
    /// optimizer cut it.
    pub shape: u64,
    /// `log2` bucket of the total heap pages the fragment reads, so a model
    /// trained on a 100-page scan is not applied to a 100k-page one.
    pub size_bucket: u32,
}

impl PredictKey {
    /// Bucket a relation size (total heap pages touched) into a key.
    pub fn new(shape: u64, total_pages: u64) -> Self {
        PredictKey { shape, size_bucket: 64 - total_pages.leading_zeros() }
    }
}

/// One finished execution of a fragment, reported by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Declared `T_i` at the time the fragment was scheduled (seconds).
    pub declared_seq_time: f64,
    /// Declared `C_i` (I/Os per second).
    pub declared_io_rate: f64,
    /// Realized sequential time: wall-clock elapsed × parallelism applied.
    pub realized_seq_time: f64,
    /// Pages the fragment actually read (its realized I/O demand *and* a
    /// proxy for its buffer footprint).
    pub observed_pages: f64,
    /// Fragments co-running while this one executed (interference
    /// regressor).
    pub co_runners: u32,
    /// True when the run was cut short (worker death, cancellation): the
    /// measurements are not a full execution and must not train the model.
    pub truncated: bool,
}

/// A substituted profile plus the provenance the trace layer records.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The profile the scheduler should consume. Always passes
    /// [`TaskProfile::validate`] when the declared profile does.
    pub profile: TaskProfile,
    /// Samples behind the prediction (0 ⇒ declared fallback).
    pub observations: u64,
    /// False when this is the declared profile passed through (cold start
    /// or degenerate model).
    pub from_model: bool,
}

/// Running simple-linear-regression state for one target `y` against the
/// co-runner count `x`. O(1) updates; slope/intercept recovered on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct OnlineLsq {
    n: u64,
    sum_x: f64,
    sum_y: f64,
    sum_xx: f64,
    sum_xy: f64,
}

impl OnlineLsq {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sum_x += x;
        self.sum_y += y;
        self.sum_xx += x * x;
        self.sum_xy += x * y;
    }

    /// Predict `y` at `x`. Zero-variance regressor (all samples at one
    /// co-runner count) degenerates to the running mean — never NaN.
    fn predict(&self, x: f64) -> Option<f64> {
        if self.n < MIN_OBSERVATIONS {
            return None;
        }
        let n = self.n as f64;
        let denom = n * self.sum_xx - self.sum_x * self.sum_x;
        let mean = self.sum_y / n;
        if denom.abs() < 1e-9 {
            return Some(mean);
        }
        let slope = (n * self.sum_xy - self.sum_x * self.sum_y) / denom;
        let intercept = mean - slope * self.sum_x / n;
        Some(intercept + slope * x)
    }
}

/// Per-key error model: multiplicative corrections for `T_i` and `C_i`,
/// and an absolute pages model for the memory footprint.
#[derive(Debug, Clone, Copy, Default)]
struct KeyModel {
    /// `realized_seq_time / declared_seq_time` vs co-runners.
    time_ratio: OnlineLsq,
    /// `realized_io_rate / declared_io_rate` vs co-runners.
    rate_ratio: OnlineLsq,
    /// Observed pages read vs co-runners (memory demand in pages).
    pages: OnlineLsq,
}

/// Shared online predictor. Cheap to share (`Arc<Predictor>`); all methods
/// take `&self`.
#[derive(Debug)]
pub struct Predictor {
    /// Bytes per buffer page, used to convert a pages prediction into the
    /// byte footprint `TaskProfile::memory` carries.
    page_size: f64,
    models: Mutex<HashMap<PredictKey, KeyModel>>,
}

impl Predictor {
    /// Build a predictor. `page_size` is the buffer-page size in bytes of
    /// the pool whose footprints it will predict.
    pub fn new(page_size: u64) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Predictor { page_size: page_size as f64, models: Mutex::new(HashMap::new()) }
    }

    /// Train on one finished execution. Truncated or degenerate
    /// measurements (non-finite / non-positive realized time, negative
    /// pages, unusable declared scalars) are discarded — a dead-worker run
    /// must not teach the model that fragments are fast.
    pub fn observe(&self, key: PredictKey, obs: &Observation) {
        if obs.truncated {
            return;
        }
        if !(obs.realized_seq_time.is_finite() && obs.realized_seq_time > 0.0) {
            return;
        }
        if !(obs.observed_pages.is_finite() && obs.observed_pages >= 0.0) {
            return;
        }
        if !(obs.declared_seq_time.is_finite() && obs.declared_seq_time > 0.0) {
            return;
        }
        if !(obs.declared_io_rate.is_finite() && obs.declared_io_rate > 0.0) {
            return;
        }
        let x = obs.co_runners as f64;
        let realized_io_rate = obs.observed_pages / obs.realized_seq_time;
        let mut models = self.models.lock().unwrap();
        let model = models.entry(key).or_default();
        model.time_ratio.push(x, obs.realized_seq_time / obs.declared_seq_time);
        model.rate_ratio.push(x, realized_io_rate / obs.declared_io_rate);
        model.pages.push(x, obs.observed_pages);
    }

    /// Samples accepted for `key` so far.
    pub fn observations(&self, key: PredictKey) -> u64 {
        self.models.lock().unwrap().get(&key).map_or(0, |m| m.time_ratio.n)
    }

    /// Predict the profile of a task about to start with `co_runners`
    /// fragments already running. Falls back to `declared` (pass-through,
    /// `from_model == false`) when the key is cold or the declared profile
    /// is itself unusable as a base.
    pub fn predict(
        &self,
        key: PredictKey,
        declared: &TaskProfile,
        co_runners: u32,
    ) -> Prediction {
        let fallback = |observations| Prediction {
            profile: declared.clone(),
            observations,
            from_model: false,
        };
        if declared.validate().is_err() {
            return fallback(0);
        }
        let models = self.models.lock().unwrap();
        let Some(model) = models.get(&key) else { return fallback(0) };
        let n = model.time_ratio.n;
        let x = co_runners as f64;
        let (Some(r_t), Some(r_c), Some(pages)) = (
            model.time_ratio.predict(x),
            model.rate_ratio.predict(x),
            model.pages.predict(x),
        ) else {
            return fallback(n);
        };
        drop(models);
        let clamp_ratio = |r: f64| {
            if r.is_finite() {
                r.clamp(1.0 / RATIO_CLAMP, RATIO_CLAMP)
            } else {
                1.0
            }
        };
        let seq_time = declared.seq_time * clamp_ratio(r_t);
        let io_rate = declared.io_rate * clamp_ratio(r_c);
        // Footprint: predicted pages, clamped non-negative and bounded by
        // the same ratio band around the declared footprint. The band around
        // a declared 0 is 0: the observation is pages *read*, not memory
        // held, so it may scale a demand but never invent one.
        let pages = if pages.is_finite() { pages.max(0.0) } else { 0.0 };
        let memory = (pages * self.page_size)
            .clamp(declared.memory / RATIO_CLAMP, declared.memory * RATIO_CLAMP);
        let profile = TaskProfile {
            id: declared.id,
            seq_time,
            io_rate,
            io_kind: declared.io_kind,
            memory,
        };
        debug_assert!(profile.validate().is_ok(), "predictor produced {profile:?}");
        match profile.validate() {
            Ok(()) => Prediction { profile, observations: n, from_model: true },
            // Unreachable by construction; belt-and-braces for release
            // builds — the scheduler must never see a poisoned profile.
            Err(_) => fallback(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{IoKind, TaskId};

    fn declared() -> TaskProfile {
        TaskProfile::new(TaskId(7), 10.0, 20.0, IoKind::Sequential)
            .with_memory(64.0 * 8192.0)
    }

    fn key() -> PredictKey {
        PredictKey::new(0xABCD, 100)
    }

    fn obs(ratio: f64, pages: f64, co: u32) -> Observation {
        let d = declared();
        Observation {
            declared_seq_time: d.seq_time,
            declared_io_rate: d.io_rate,
            realized_seq_time: d.seq_time * ratio,
            observed_pages: pages,
            co_runners: co,
            truncated: false,
        }
    }

    #[test]
    fn cold_key_falls_back_to_declared() {
        let p = Predictor::new(8192);
        let pred = p.predict(key(), &declared(), 3);
        assert!(!pred.from_model);
        assert_eq!(pred.profile, declared());
        // One observation is still below the floor.
        p.observe(key(), &obs(4.0, 100.0, 0));
        let pred = p.predict(key(), &declared(), 0);
        assert!(!pred.from_model);
        assert_eq!(pred.observations, 1);
    }

    #[test]
    fn warm_key_corrects_a_4x_wrong_declaration() {
        let p = Predictor::new(8192);
        for _ in 0..4 {
            p.observe(key(), &obs(4.0, 400.0, 2));
        }
        let pred = p.predict(key(), &declared(), 2);
        assert!(pred.from_model);
        assert!((pred.profile.seq_time - 40.0).abs() < 1e-9);
        // Realized C_i = 400 pages / 40 s = 10 io/s (declared 20).
        assert!((pred.profile.io_rate - 10.0).abs() < 1e-9);
        assert!((pred.profile.memory - 400.0 * 8192.0).abs() < 1e-6);
        assert_eq!(pred.observations, 4);
        pred.profile.validate().unwrap();
    }

    #[test]
    fn zero_variance_regressor_degenerates_to_mean() {
        let p = Predictor::new(8192);
        p.observe(key(), &obs(2.0, 50.0, 5));
        p.observe(key(), &obs(4.0, 150.0, 5));
        // All samples at co_runners = 5; querying another count must not NaN.
        let pred = p.predict(key(), &declared(), 0);
        assert!(pred.from_model);
        assert!((pred.profile.seq_time - 30.0).abs() < 1e-9);
        pred.profile.validate().unwrap();
    }

    #[test]
    fn interference_slope_is_learned() {
        let p = Predictor::new(8192);
        // Alone: true ratio 1. With 4 co-runners: ratio 3.
        for _ in 0..3 {
            p.observe(key(), &obs(1.0, 200.0, 0));
            p.observe(key(), &obs(3.0, 200.0, 4));
        }
        let alone = p.predict(key(), &declared(), 0);
        let crowded = p.predict(key(), &declared(), 4);
        let mid = p.predict(key(), &declared(), 2);
        assert!((alone.profile.seq_time - 10.0).abs() < 1e-6);
        assert!((crowded.profile.seq_time - 30.0).abs() < 1e-6);
        assert!((mid.profile.seq_time - 20.0).abs() < 1e-6);
    }

    #[test]
    fn ratios_are_clamped() {
        let p = Predictor::new(8192);
        // Absurd measurements: 1000x slow, zero pages read.
        for _ in 0..3 {
            p.observe(key(), &obs(1000.0, 0.0, 1));
        }
        let pred = p.predict(key(), &declared(), 1);
        assert!(pred.from_model);
        assert!((pred.profile.seq_time - 10.0 * RATIO_CLAMP).abs() < 1e-9);
        // Zero observed pages would drive C_i to 0; the clamp keeps it
        // positive so validate() holds.
        assert!((pred.profile.io_rate - 20.0 / RATIO_CLAMP).abs() < 1e-9);
        // Declared footprint present: memory clamped to declared/16.
        let d = declared();
        assert!((pred.profile.memory - d.memory / RATIO_CLAMP).abs() < 1e-6);
        pred.profile.validate().unwrap();
    }

    #[test]
    fn a_declared_footprint_of_zero_predicts_zero() {
        let p = Predictor::new(8192);
        for _ in 0..4 {
            p.observe(key(), &obs(2.0, 5_000.0, 0));
        }
        let holds_nothing = TaskProfile { memory: 0.0, ..declared() };
        let pred = p.predict(key(), &holds_nothing, 0);
        assert!(pred.from_model, "time and rate are still corrected");
        assert!((pred.profile.seq_time - 20.0).abs() < 1e-9);
        assert_eq!(pred.profile.memory, 0.0, "5000 pages read are not 5000 pages held");
    }

    #[test]
    fn truncated_and_degenerate_observations_are_discarded() {
        let p = Predictor::new(8192);
        let mut truncated = obs(4.0, 100.0, 0);
        truncated.truncated = true;
        p.observe(key(), &truncated);
        let mut nan_time = obs(4.0, 100.0, 0);
        nan_time.realized_seq_time = f64::NAN;
        p.observe(key(), &nan_time);
        let mut zero_time = obs(4.0, 100.0, 0);
        zero_time.realized_seq_time = 0.0;
        p.observe(key(), &zero_time);
        let mut neg_pages = obs(4.0, 100.0, 0);
        neg_pages.observed_pages = -5.0;
        p.observe(key(), &neg_pages);
        assert_eq!(p.observations(key()), 0);
        assert!(!p.predict(key(), &declared(), 0).from_model);
    }

    #[test]
    fn invalid_declared_profile_passes_through_untouched() {
        let p = Predictor::new(8192);
        for _ in 0..3 {
            p.observe(key(), &obs(2.0, 100.0, 0));
        }
        let poisoned = TaskProfile { io_rate: 0.0, ..declared() };
        let pred = p.predict(key(), &poisoned, 0);
        assert!(!pred.from_model);
        assert_eq!(pred.profile, poisoned);
    }

    #[test]
    fn size_buckets_partition_by_log2() {
        assert_eq!(PredictKey::new(1, 0).size_bucket, 0);
        assert_eq!(PredictKey::new(1, 1).size_bucket, PredictKey::new(1, 1).size_bucket);
        assert_ne!(PredictKey::new(1, 100).size_bucket, PredictKey::new(1, 100_000).size_bucket);
        // Same order of magnitude lands in the same bucket.
        assert_eq!(PredictKey::new(1, 900).size_bucket, PredictKey::new(1, 1000).size_bucket);
    }

    #[test]
    fn prediction_is_a_pure_function_of_the_stream() {
        let stream: Vec<(PredictKey, Observation)> = (0..40u64)
            .map(|i| {
                let co = (i % 5) as u32;
                let k = PredictKey::new(1 + (i % 3), 50 << (i % 4));
                (k, obs(1.0 + 0.5 * (i % 7) as f64, 10.0 * (1 + i % 9) as f64, co))
            })
            .collect();
        let a = Predictor::new(8192);
        let b = Predictor::new(8192);
        for (k, o) in &stream {
            a.observe(*k, o);
            b.observe(*k, o);
        }
        for (k, _) in &stream {
            for co in 0..6 {
                let pa = a.predict(*k, &declared(), co);
                let pb = b.predict(*k, &declared(), co);
                // Bit-exact, not approximately equal.
                assert_eq!(pa.profile.seq_time.to_bits(), pb.profile.seq_time.to_bits());
                assert_eq!(pa.profile.io_rate.to_bits(), pb.profile.io_rate.to_bits());
                assert_eq!(pa.profile.memory.to_bits(), pb.profile.memory.to_bits());
                assert_eq!(pa.observations, pb.observations);
                pa.profile.validate().unwrap();
            }
        }
    }
}

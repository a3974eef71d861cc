//! The master's self-healing patrol — dead-worker detection and
//! degradation-aware recalibration — and the deadline-based receive the
//! master loop sleeps in between patrol ticks.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_scheduler::{FragTable, MachineConfig};
use xprs_storage::Catalog;

use crate::config::ExecConfig;
use crate::io::{lock, Machine};
use crate::master::MasterMsg;
use crate::session::Backends;
use crate::worker::FragCtx;

/// Receive the next worker message, or `Ok(None)` once `deadline` has
/// passed; with no deadline this simply blocks.
///
/// The deadline is an absolute instant, not a quiet-time timeout: it comes
/// due even while messages keep arriving. (A `recv_timeout(patrol_ms)`
/// restarts its timer on every message, so a chatty fragment flooding the
/// channel would starve the patrol and a dead sibling's worker would never
/// be reaped.)
pub(crate) fn next_msg(
    rx: &Receiver<MasterMsg>,
    deadline: Option<Instant>,
) -> Result<Option<MasterMsg>, ()> {
    let Some(deadline) = deadline else {
        return rx.recv().map(Some).map_err(|_| ());
    };
    let now = Instant::now();
    if now >= deadline {
        return Ok(None);
    }
    match rx.recv_timeout(deadline - now) {
        Ok(msg) => Ok(Some(msg)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => Err(()),
    }
}

/// Largest fractional change one recalibration window may apply to the
/// machine model's bandwidths. A real sustained slowdown converges over a
/// few windows; a single noisy window cannot slam the model far enough to
/// destabilise the balance-point fixpoint.
const MAX_RECAL_STEP: f64 = 0.3;

/// The master's self-healing patrol: dead-worker detection plus
/// degradation-aware recalibration, run when its deadline passes.
pub(crate) struct Patrol {
    /// Time between sweeps; `None` when the patrol is off.
    interval: Option<Duration>,
    /// When the next sweep is due (see [`next_msg`]).
    deadline: Option<Instant>,
    /// Sweeps run so far.
    pub ticks: u64,
    grace: u32,
    band: f64,
    min_requests: u64,
    /// The machine model the policy currently believes; rebased on every
    /// recalibration (the configured model is only the starting point).
    pub model: MachineConfig,
    /// Last seen heartbeat and consecutive-stale tick count per
    /// `(fragment, slot)`.
    beats: HashMap<(usize, usize), (u64, u32)>,
    /// Slots already declared dead (never declared twice).
    dead: HashSet<(usize, usize)>,
    /// Per-class `(requests, busy)` at the start of the current window.
    io_baseline: [(u64, f64); 3],
    pub recoveries: u64,
    pub recalibrations: u64,
}

impl Patrol {
    pub fn new(cfg: &ExecConfig, io_baseline: [(u64, f64); 3]) -> Self {
        let interval = (cfg.patrol_ms > 0).then(|| Duration::from_millis(cfg.patrol_ms));
        Patrol {
            interval,
            deadline: interval.map(|d| Instant::now() + d),
            ticks: 0,
            grace: cfg.patrol_grace.max(1),
            band: cfg.recal_band,
            min_requests: cfg.recal_min_requests.max(1),
            model: cfg.machine.clone(),
            beats: HashMap::new(),
            dead: HashSet::new(),
            io_baseline,
            recoveries: 0,
            recalibrations: 0,
        }
    }

    /// When the next sweep is due, if the patrol is on.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether a sweep is due; if so it is counted and the next one
    /// scheduled. A master woken early — by a token's deadline, not the
    /// patrol's — finds nothing due.
    pub fn tick_due(&mut self) -> bool {
        let due = self.deadline.is_some_and(|d| Instant::now() >= d);
        if due {
            self.deadline = self.interval.map(|d| Instant::now() + d);
            self.ticks += 1;
        }
        due
    }

    /// Declare dead every slot whose heartbeat has been frozen for `grace`
    /// consecutive ticks while its fragment still has unfinished units and
    /// the slot never registered a voluntary exit. Each dead slot's
    /// remaining share is reclaimed by [`StealPartition::fail_slot`] and a
    /// replacement slot is staffed.
    ///
    /// A false positive — a live worker stalled mid-unit — is safe: its
    /// revoked slot hands out no further units, so it completes the one
    /// unit it holds and retires; the replacement's cursor already sits
    /// past that unit, keeping every unit exactly-once.
    pub fn reap(
        &mut self,
        table: &FragTable<Arc<FragCtx>>,
        backends: &Backends<'_>,
        machine: &Arc<Machine>,
        catalog: &Arc<Catalog>,
    ) {
        for (gid, ctx) in table.iter_running() {
            if ctx.units_done.load(Ordering::SeqCst) >= ctx.total_units
                || ctx.aborted.load(Ordering::Relaxed)
                // Cancelled workers exit voluntarily at the next unit
                // boundary; their frozen heartbeats must not read as
                // deaths (a "replacement" would immediately exit, but the
                // staffing churn would distort the recovery counters).
                || ctx.cancelled.load(Ordering::Relaxed)
            {
                continue;
            }
            let snapshot: Vec<u64> =
                lock(&ctx.heartbeats).iter().map(|b| b.load(Ordering::Relaxed)).collect();
            let exited: Vec<usize> = lock(&ctx.exited_slots).clone();
            for (slot, &beat) in snapshot.iter().enumerate() {
                let key = (gid, slot);
                if self.dead.contains(&key) || exited.contains(&slot) {
                    self.beats.remove(&key);
                    continue;
                }
                let entry = self.beats.entry(key).or_insert((beat, 0));
                if entry.0 == beat {
                    entry.1 += 1;
                } else {
                    *entry = (beat, 0);
                }
                if entry.1 >= self.grace {
                    self.dead.insert(key);
                    backends.staff(ctx, ctx.part.fail_slot(slot), machine, catalog);
                    self.recoveries += 1;
                }
            }
        }
    }

    /// Compare the window's observed I/O service rate against the current
    /// model. When the dominant class has drifted outside the tolerance
    /// band, return a corrected machine model with every rate rescaled by
    /// the observed ratio; the caller rebases the policy on it.
    pub fn recalibrate(&mut self, machine: &Machine) -> Option<MachineConfig> {
        if self.band <= 0.0 {
            return None;
        }
        let obs = machine.observed_service();
        let window: Vec<(u64, f64)> = (0..3)
            .map(|i| (obs[i].0 - self.io_baseline[i].0, obs[i].1 - self.io_baseline[i].1))
            .collect();
        if window.iter().map(|w| w.0).sum::<u64>() < self.min_requests {
            return None; // too little traffic to trust; keep accumulating
        }
        self.io_baseline = obs;
        let (class, (count, busy)) =
            window.into_iter().enumerate().max_by_key(|(_, (c, _))| *c)?;
        if count == 0 || busy <= 0.0 {
            return None;
        }
        let observed = count as f64 / busy;
        let nominal = [self.model.seq_bw, self.model.almost_seq_bw, self.model.random_bw][class];
        let raw = observed / nominal;
        if !raw.is_finite() {
            return None;
        }
        // Attribute cross-run contention before testing for drift: with k
        // runs interleaving their streams on the shared disks, each
        // request's busy time can stretch by up to the interference
        // factor, so the true machine rate lies in `[raw, raw·k]`.
        // Contention only ever *slows* a run, so the attribution is
        // one-sided: blame co-runners for as much of a shortfall as the
        // factor can explain (never pushing past nominal, and never
        // inflating a healthy reading) and treat only the unexplained
        // remainder as drift. Without this, every tenant of a shared
        // session "measures" a slow machine, rescales the model downward,
        // and the next window swings it back — the §15.4 wedge.
        let runs = machine.active_runs().min(u32::MAX as u64) as u32;
        let factor = xprs_scheduler::estimate::interference_factor(runs.max(1));
        let ratio = if raw < 1.0 { (raw * factor).min(1.0) } else { raw };
        if (ratio - 1.0).abs() <= self.band {
            return None;
        }
        // Clamp the per-step correction: a sustained real slowdown still
        // converges (each window moves the model up to MAX_RECAL_STEP
        // closer), but one noisy window can no longer slam the rates by an
        // order of magnitude — which is what drove the balance-point
        // fixpoint into `SchedError::FixpointDiverged` when consecutive
        // windows disagreed.
        let step = ratio.clamp(1.0 - MAX_RECAL_STEP, 1.0 + MAX_RECAL_STEP);
        let mut corrected = self.model.clone();
        corrected.seq_bw *= step;
        corrected.almost_seq_bw *= step;
        corrected.random_bw *= step;
        Some(corrected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc::channel;

    /// The patrol-starvation regression: a sender flooding the channel
    /// faster than the patrol interval must NOT postpone the patrol tick.
    /// The old `recv_timeout(patrol_ms)` restarted its timer on every
    /// message, so `Ok(None)` never surfaced under continuous load; the
    /// deadline form returns it as soon as the deadline passes.
    #[test]
    fn patrol_deadline_fires_under_a_continuous_message_flood() {
        let (tx, rx) = channel::<MasterMsg>();
        let stop = Arc::new(AtomicU32::new(0));
        let flooder = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    if tx.send(MasterMsg::FragmentDone(usize::MAX)).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        let deadline = Some(Instant::now() + Duration::from_millis(20));
        let mut messages = 0u64;
        let mut patrolled = false;
        // Far more iterations than messages can arrive in 20ms; the loop
        // exits via the deadline, not by draining the flood.
        for _ in 0..200_000 {
            match next_msg(&rx, deadline) {
                Ok(Some(_)) => messages += 1,
                Ok(None) => {
                    patrolled = true;
                    break;
                }
                Err(()) => panic!("flooder hung up early"),
            }
        }
        stop.store(1, Ordering::Relaxed);
        flooder.join().unwrap();
        assert!(patrolled, "patrol deadline starved by a chatty channel");
        assert!(messages >= 1, "flood never actually reached the master");
    }
}

//! The master's patrol — degradation-aware recalibration, the cross-run
//! admission retry and the cancel-token polls — and the deadline-based
//! receive the master loop sleeps in between patrol ticks and fragments'
//! modelled ends.
//!
//! A run ticks, every [`PATROL_INTERVAL`], only when it can change without
//! any message reaching its master: a fault plan may slow the disks
//! (recalibration), another run may free the shared pool (a shared
//! session), or a client may fire a cancel token. The master decides this
//! once per run; every other run blocks on its workers' messages. A worker
//! death is never a tick's to find: the dead worker's pool job reports it
//! (`MasterMsg::WorkerLost`).

use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use xprs_disk::ClassStats;
use xprs_scheduler::MachineConfig;

use crate::clock::Clock;
use crate::io::Machine;
use crate::master::MasterMsg;

/// Receive the next worker message, or `None` once `deadline` has passed on
/// `clock`; with no deadline this simply blocks. The master loop's deadline
/// is the earlier of its patrol tick and the earliest modelled end a
/// fragment waits for; this is the one place the master times a wait.
///
/// The master's own sender keeps the channel open for its whole loop, so
/// the channel never disconnects there: `None` is always the deadline.
/// Quiesce drops that sender and receives under its cap until the channel
/// closes, when `None` means either.
///
/// The deadline is an absolute instant, not a quiet-time timeout: it comes
/// due even while messages keep arriving. (A `recv_timeout(interval)`
/// restarts its timer on every message, so a chatty fragment flooding the
/// channel would starve the patrol and a slowed disk would never be
/// recalibrated.) It is checked before receiving, because a zero-length
/// `recv_timeout` still hands back a queued message.
pub(crate) fn next_msg(
    rx: &Receiver<MasterMsg>,
    deadline: Option<Instant>,
    clock: &dyn Clock,
) -> Option<MasterMsg> {
    let Some(deadline) = deadline else {
        return rx.recv().ok();
    };
    let now = clock.now();
    if now >= deadline {
        return None;
    }
    rx.recv_timeout(deadline - now).ok()
}

/// Time between patrol ticks, for a run that ticks at all.
pub(crate) const PATROL_INTERVAL: Duration = Duration::from_millis(2);

/// I/O requests that must land in a patrol window before its rate estimate
/// is trusted for recalibration.
pub(crate) const RECAL_MIN_REQUESTS: u64 = 64;

/// Relative drift between a window's observed and modelled I/O rate that
/// is still read as noise rather than degradation: only a drift of more
/// than half the modelled bandwidth rebases the policy; deadlines and
/// shedding absorb ordinary load (DESIGN.md §7.8).
pub(crate) const RECAL_BAND: f64 = 0.5;

/// Largest fractional change one recalibration window may apply to the
/// machine model's bandwidths. A real sustained slowdown converges over a
/// few windows; a single noisy window cannot slam the model far enough to
/// destabilise the balance-point fixpoint.
pub(crate) const MAX_RECAL_STEP: f64 = 0.3;

/// The factor a window whose observed/nominal rate ratio is `ratio` scales
/// the model's bandwidths by: `None` inside [`RECAL_BAND`] or for a ratio
/// that is not finite, otherwise the ratio clamped to one
/// [`MAX_RECAL_STEP`]. Unclamped, consecutive windows that disagreed drove
/// the balance-point fixpoint into `SchedError::FixpointDiverged`.
pub(crate) fn recal_step(ratio: f64) -> Option<f64> {
    if !ratio.is_finite() || (ratio - 1.0).abs() <= RECAL_BAND {
        return None;
    }
    Some(ratio.clamp(1.0 - MAX_RECAL_STEP, 1.0 + MAX_RECAL_STEP))
}

/// The master's patrol: when it ticks, and what recalibration compares
/// against.
pub(crate) struct Patrol {
    /// When the next sweep is due (see [`next_msg`]); `None` for a run that
    /// does not tick.
    deadline: Option<Instant>,
    /// Sweeps run so far.
    pub ticks: u64,
    /// The machine model the policy currently believes; rebased on every
    /// recalibration (the configured model is only the starting point).
    pub model: MachineConfig,
    /// The array's cumulative per-class counters at the start of the
    /// current recalibration window.
    io_baseline: ClassStats,
    pub recalibrations: u64,
}

impl Patrol {
    pub fn new(machine: &MachineConfig, start: Option<Instant>, io_baseline: ClassStats) -> Self {
        Patrol {
            deadline: start.map(|start| start + PATROL_INTERVAL),
            ticks: 0,
            model: machine.clone(),
            io_baseline,
            recalibrations: 0,
        }
    }

    /// When the next sweep is due, if the run ticks.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The deadline passed at `now`: count the sweep, schedule the next.
    pub fn tick(&mut self, now: Instant) {
        self.deadline = Some(now + PATROL_INTERVAL);
        self.ticks += 1;
    }

    /// Compare the window's observed I/O service rate against the current
    /// model. When the dominant class has drifted outside [`RECAL_BAND`],
    /// return a corrected machine model with every rate rescaled by one
    /// [`recal_step`]; the caller rebases the policy on it.
    ///
    /// Co-running streams need no discount: a class's rate is its requests
    /// over their busy time, summed machine-wide, and contention moves
    /// requests between classes without changing any class's service time.
    pub fn recalibrate(&mut self, machine: &Machine) -> Option<MachineConfig> {
        let now = machine.disk_class_total();
        let window = now.diff(&self.io_baseline);
        if window.total_count() < RECAL_MIN_REQUESTS {
            return None; // too little traffic to trust; keep accumulating
        }
        self.io_baseline = now;
        let (class, count) = window.counts.into_iter().enumerate().max_by_key(|&(_, c)| c)?;
        let busy = window.busy[class];
        if count == 0 || busy <= 0.0 {
            return None;
        }
        let observed = count as f64 / busy;
        let nominal = [self.model.seq_bw, self.model.almost_seq_bw, self.model.random_bw][class];
        let step = recal_step(observed / nominal)?;
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
    use crate::clock::WallClock;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::sync::mpsc::channel;

    /// The patrol-starvation regression: a sender flooding the channel
    /// faster than the patrol interval must NOT postpone the patrol tick.
    /// The old `recv_timeout(interval)` restarted its timer on every
    /// message, so `None` never surfaced under continuous load; the
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
            match next_msg(&rx, deadline, &WallClock) {
                Some(_) => messages += 1,
                None => {
                    patrolled = true;
                    break;
                }
            }
        }
        stop.store(1, Ordering::Relaxed);
        flooder.join().unwrap();
        assert!(patrolled, "patrol deadline starved by a chatty channel");
        assert!(messages >= 1, "flood never actually reached the master");
    }

    /// An 8× slowdown on one disk under two interleaved streams is drift:
    /// one clamped step. Four streams on a healthy machine contend for the
    /// same disks and read exactly nominal: no step.
    #[test]
    fn drift_is_one_clamped_step_and_contention_alone_is_none() {
        use xprs_disk::{FaultPlan, RelId, WorkerId};
        let m = MachineConfig::paper_default();
        let read_interleaved = |machine: &Machine, streams: u64| {
            for block in 0..400 / streams {
                for s in 0..streams {
                    machine.try_read(RelId(s + 1), block, WorkerId(s), false).unwrap();
                }
            }
        };
        let slowed = Machine::with_sharded_pool(&m, 0.0, 0, 1)
            .with_faults(Arc::new(FaultPlan::new().with_slowdown(0, 0, 8.0)));
        read_interleaved(&slowed, 2);
        let corrected = Patrol::new(&m, Some(WallClock.now()), ClassStats::default())
            .recalibrate(&slowed)
            .expect("an 8x slowdown is drift");
        let step = 1.0 - MAX_RECAL_STEP;
        assert_eq!(
            [corrected.seq_bw, corrected.almost_seq_bw, corrected.random_bw],
            [m.seq_bw * step, m.almost_seq_bw * step, m.random_bw * step]
        );

        let contended = Machine::with_sharded_pool(&m, 0.0, 0, 1);
        read_interleaved(&contended, 4);
        assert_eq!(Patrol::new(&m, Some(WallClock.now()), ClassStats::default()).recalibrate(&contended), None);
    }
}

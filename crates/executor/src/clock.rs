//! The machine's one clock. Every time read a run paces or schedules by,
//! and every modelled wait, asks the [`Machine`](crate::Machine)'s clock:
//! the host's ([`WallClock`]) in production, a manual one in unit tests,
//! whose waits end at once at exactly their deadline.

use std::time::Instant;

/// What time it is, and how a thread waits for an instant.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Block the calling thread until `t`; never returns before it.
    fn sleep_until(&self, t: Instant);
}

/// The host's monotonic clock, which every production machine runs on.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    /// `std` has no stable sleep to an instant: this reads the host clock
    /// once to turn `t` into a duration.
    fn sleep_until(&self, t: Instant) {
        std::thread::sleep(t.saturating_duration_since(Instant::now()));
    }
}

/// Let this thread's sleeps end within 1 µs of their deadline instead of
/// Linux's default 50 µs timer slack, which a pacing sleep or a wait for a
/// modelled deadline would otherwise pay on every wake. Called once, as it
/// starts, by each executor pool thread and by each thread a service runs
/// its masters on; a caller's own thread keeps its slack. A refused call
/// keeps the default.
#[cfg(target_os = "linux")]
pub fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes only
    // the calling thread's timer slack; no memory is passed or touched.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong) };
}

/// Not Linux: every thread keeps its platform's timer behaviour.
#[cfg(not(target_os = "linux"))]
pub fn tighten_timer_slack() {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use xprs_storage::lock;

    /// A clock that moves only when a thread waits on it: `sleep_until(t)`
    /// advances it to `max(now, t)` at once. Single-threaded tests only — a
    /// thread parked on a condvar never sees it move.
    #[derive(Debug)]
    pub(crate) struct ManualClock(Mutex<Instant>);

    impl ManualClock {
        pub(crate) fn new() -> Arc<Self> {
            Arc::new(ManualClock(Mutex::new(Instant::now())))
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Instant {
            *lock(&self.0)
        }

        fn sleep_until(&self, t: Instant) {
            let mut now = lock(&self.0);
            *now = (*now).max(t);
        }
    }

    #[test]
    fn a_manual_wait_ends_exactly_at_its_deadline_and_never_moves_the_clock_back() {
        let clock = ManualClock::new();
        let t0 = clock.now();
        clock.sleep_until(t0 + Duration::from_millis(3));
        assert_eq!(clock.now(), t0 + Duration::from_millis(3));
        clock.sleep_until(t0);
        assert_eq!(clock.now(), t0 + Duration::from_millis(3), "a past deadline moved the clock");
    }

    #[test]
    fn a_wall_sleep_never_returns_before_its_deadline() {
        let deadline = WallClock.now() + Duration::from_micros(300);
        WallClock.sleep_until(deadline);
        assert!(WallClock.now() >= deadline);
        WallClock.sleep_until(deadline - Duration::from_millis(1)); // already past: returns at once
    }
}

//! Per-query cooperative cancellation.
//!
//! A [`CancelToken`] travels with one query through
//! [`Executor::run_with_cancel`](crate::master::Executor::run_with_cancel):
//! the client (or a service front-end) fires it, or it fires itself when
//! its deadline passes on the run's clock ([`crate::Machine::clock`]). A
//! run that carries tokens ticks its master's patrol, and the master polls
//! the tokens on every message and every tick, so a fired or expired token
//! is seen at the next message or patrol tick, even while no worker
//! reports. Workers observe the resulting per-fragment flag
//! at unit and morsel boundaries — the same checkpoints the fail-stop fault
//! machinery uses — so cancellation never tears a unit in half, and a
//! cancelled query's grant, pins, and partition shares are released through
//! the ordinary completion protocol exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct CancelInner {
    flag: AtomicBool,
    /// Absolute instant the token self-fires (`None` = manual only).
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle for one query.
///
/// Cheap to clone (one `Arc`); every clone observes the same state. A
/// token is *fired* when [`CancelToken::cancel`] was called or its
/// deadline has passed — firing is permanent.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that fires only when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(CancelInner { flag: AtomicBool::new(false), deadline: None }),
        }
    }

    /// A token that also fires itself once `deadline` has elapsed since
    /// `now`, read from the run's clock — the per-query deadline of a
    /// latency-bound service. A deadline past what an `Instant` can hold
    /// (`Duration::MAX`, say) never fires by itself.
    pub fn with_deadline(now: Instant, deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: now.checked_add(deadline),
            }),
        }
    }

    /// Fire the token. Idempotent.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired, manually or by its deadline at `now`.
    pub fn is_cancelled(&self, now: Instant) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if now >= d => {
                // Latch the deadline so later polls take the fast path.
                self.inner.flag.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::clock::tests::ManualClock;
    use crate::clock::Clock;

    #[test]
    fn manual_cancel_fires_every_clone() {
        let now = ManualClock::new().now();
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled(now));
        t.cancel();
        assert!(c.is_cancelled(now));
    }

    #[test]
    fn deadline_fires_by_itself() {
        let clock = ManualClock::new();
        let t0 = clock.now();
        let t = CancelToken::with_deadline(t0, Duration::ZERO);
        assert!(t.is_cancelled(t0), "zero deadline is already past");
        let far = CancelToken::with_deadline(t0, Duration::from_secs(3600));
        clock.sleep_until(t0 + Duration::from_secs(3600) - Duration::from_nanos(1));
        assert!(!far.is_cancelled(clock.now()), "fired a nanosecond early");
        clock.sleep_until(t0 + Duration::from_secs(3600));
        assert!(far.is_cancelled(clock.now()), "did not fire at its deadline");
        assert!(far.is_cancelled(t0), "a fired deadline is latched");
    }

    #[test]
    fn an_unrepresentable_deadline_never_fires_by_itself() {
        let clock = ManualClock::new();
        let never = CancelToken::with_deadline(clock.now(), Duration::MAX);
        clock.sleep_until(clock.now() + Duration::from_secs(1 << 40));
        assert!(!never.is_cancelled(clock.now()));
        never.cancel();
        assert!(never.is_cancelled(clock.now()), "a manual cancel still fires it");
    }
}

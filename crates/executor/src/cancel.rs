//! Per-query cooperative cancellation.
//!
//! A [`CancelToken`] travels with one query through
//! [`Executor::run_with_cancel`](crate::master::Executor::run_with_cancel):
//! the client (or a service front-end) fires it, or it fires itself when
//! its deadline passes. A run that carries tokens ticks its master's patrol,
//! and the master polls the tokens on every message and every tick, so a
//! fired or expired token is seen at the next message or patrol tick, even
//! while no worker reports. Workers observe the resulting per-fragment flag
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

    /// A token that also fires itself once `deadline` (measured from now)
    /// has elapsed — the per-query deadline of a latency-bound service.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                flag: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
            }),
        }
    }

    /// Fire the token. Idempotent.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired (manually or by deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
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

    #[test]
    fn manual_cancel_fires_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_fires_by_itself() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_cancelled(), "zero deadline is already past");
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }
}

//! The substrate a run executes on: the long-lived machine + worker pool
//! ([`ExecSession`]) and the staffing of worker slots onto that pool
//! ([`staff`]).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use xprs_storage::Catalog;

use crate::error::ExecError;
use crate::io::{start_model_clock, Machine};
use crate::master::MasterMsg;
use crate::obs::ExecMetrics;
use crate::pool::WorkerPool;
use crate::worker::{run_worker, FragCtx};
#[cfg(doc)]
use crate::Executor;

/// A long-lived machine + worker pool shared by concurrent
/// [`Executor::run_shared`] calls — the substrate of a continuous query
/// service. Every admission grant comes from the one buffer pool (so
/// memory admission arbitrates *across* runs) and every worker slot is
/// staffed onto the one pool of threads. The ledger accessors exist for
/// exactly-once audits: after all runs have quiesced,
/// [`ExecSession::reserved_pages`] and [`ExecSession::pinned_pages`] must
/// both be zero or something leaked.
pub struct ExecSession {
    pub(crate) machine: Arc<Machine>,
    pub(crate) pool: WorkerPool,
    /// Why the config the session was built from is refused, if it is:
    /// [`Executor::session`] cannot fail, so every run on the session does.
    pub(crate) invalid: Option<ExecError>,
}

impl ExecSession {
    /// The shared simulated machine (its buffer pool backs every grant).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The shared machine's hot-path metric registry, cumulative over
    /// every run on the session.
    pub fn metrics(&self) -> &Arc<ExecMetrics> {
        self.machine.metrics()
    }

    /// Buffer-pool pages currently reserved by admission grants across
    /// every run on this session. Zero once all runs have finished —
    /// anything else is a grant leak.
    pub fn reserved_pages(&self) -> u64 {
        self.machine.pool().map_or(0, |p| p.reserved())
    }

    /// Pages currently pinned across the session. Zero at quiesce —
    /// anything else is a pin leak.
    pub fn pinned_pages(&self) -> u64 {
        self.machine.pool_pinned()
    }

    /// OS threads the shared worker pool has created so far.
    pub fn threads_spawned(&self) -> u64 {
        self.pool.threads_spawned()
    }

    /// Run the shared worker pool down and join every thread. Idempotent;
    /// also invoked when the session is dropped.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

/// Staff worker slot `slot` of `ctx` onto `pool` — a queue push that
/// unparks a long-lived thread; the pool grows on demand to the *peak
/// concurrent* slot count and no further. Accounts the worker in the
/// fragment's completion protocol **before** it can run, wraps the run in a
/// panic report, and always balances with [`FragCtx::worker_exit`]. The job
/// holds `ctx`, and with it a sender on the run's channel, until it leaves
/// the pool: that is what lets the master's quiesce wait for the channel to
/// close.
///
/// `at` is the instant of the staffing decision, shared by every slot it
/// staffs. The pool thread starts its model clock there before the worker
/// runs (`io.rs`), so however late it wakes its first wait counts from
/// `at`, and no pacing state crosses a job boundary.
pub(crate) fn staff(
    pool: &WorkerPool,
    ctx: &Arc<FragCtx>,
    slot: usize,
    at: Instant,
    machine: &Arc<Machine>,
    catalog: &Arc<Catalog>,
) {
    ctx.staffed.fetch_add(1, Ordering::Relaxed);
    ctx.outstanding.fetch_add(1, Ordering::SeqCst);
    let ctx = ctx.clone();
    let machine = machine.clone();
    let catalog = catalog.clone();
    let job = move || {
        start_model_clock(at);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_worker(&ctx, slot, &machine, &catalog);
        }));
        if let Err(payload) = outcome {
            let message = panic_message(payload.as_ref());
            let fatal = ExecError::WorkerPanicked { fragment: ctx.gid, message };
            let _ = ctx.done_tx.send(MasterMsg::Fatal(fatal));
        }
        ctx.worker_exit();
    };
    pool.submit(Box::new(job));
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

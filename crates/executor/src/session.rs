//! The substrate a run executes on: the long-lived machine + worker pool
//! ([`ExecSession`]) and the staffing of worker slots onto that pool
//! ([`Backends`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xprs_scheduler::FragTable;
use xprs_storage::Catalog;

use crate::error::ExecError;
use crate::io::{lock, Machine};
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
    pub(crate) metrics: Option<Arc<ExecMetrics>>,
    /// Why the config the session was built from is refused, if it is:
    /// [`Executor::session`] cannot fail, so every run on the session does.
    pub(crate) invalid: Option<ExecError>,
}

impl ExecSession {
    /// The shared simulated machine (its buffer pool backs every grant).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The shared metric registry, when the config enabled one.
    pub fn metrics(&self) -> Option<&Arc<ExecMetrics>> {
        self.metrics.as_ref()
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

/// How worker slots become running threads: a queue push onto the
/// persistent [`WorkerPool`] that unparks a long-lived thread. The pool
/// grows on demand to the *peak concurrent* slot count and no further.
pub(crate) struct Backends<'a> {
    pub pool: &'a WorkerPool,
    pub staffed: AtomicU64,
    /// The pool is borrowed from a long-lived [`ExecSession`]: shutdown
    /// quiesces this run's workers instead of running the threads down.
    shared: bool,
}

impl<'a> Backends<'a> {
    pub fn new(pool: &'a WorkerPool, shared: bool) -> Self {
        Backends { pool, staffed: AtomicU64::new(0), shared }
    }

    /// Staff worker slot `slot` of `ctx`: accounts the worker in the
    /// fragment's completion protocol **before** it can run, wraps the run
    /// in a panic report, and always balances with [`FragCtx::worker_exit`].
    pub fn staff(
        &self,
        ctx: &Arc<FragCtx>,
        slot: usize,
        machine: &Arc<Machine>,
        catalog: &Arc<Catalog>,
    ) {
        self.staffed.fetch_add(1, Ordering::Relaxed);
        ctx.staffed.fetch_add(1, Ordering::Relaxed);
        // Register the slot's heartbeat before the worker can run, so the
        // patrol tracks it from staffing time (a job stuck in the pool
        // queue is indistinguishable from a dead worker — reclaiming it is
        // a safe false positive).
        {
            let mut beats = lock(&ctx.heartbeats);
            while beats.len() <= slot {
                beats.push(Arc::new(AtomicU64::new(0)));
            }
        }
        ctx.outstanding.fetch_add(1, Ordering::SeqCst);
        let ctx = ctx.clone();
        let machine = machine.clone();
        let catalog = catalog.clone();
        let job = move || {
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
        self.pool.submit(Box::new(job));
    }

    /// Run this run's workers down. A private pool is shut down outright
    /// (every thread joined); a shared session's pool stays alive for
    /// concurrent runs, so instead this waits for the run's own
    /// outstanding workers to drain — they observe `aborted`/`cancelled`
    /// at the next unit boundary. The hard cap turns a wedged worker into
    /// a leaked thread instead of a hung service.
    pub fn shutdown(&self, table: &FragTable<Arc<FragCtx>>) {
        if !self.shared {
            self.pool.shutdown();
            return;
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let busy =
                table.iter_running().any(|(_, ctx)| ctx.outstanding.load(Ordering::SeqCst) > 0);
            if !busy || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
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

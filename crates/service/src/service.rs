//! The continuous query service: a bounded admission queue in front of a
//! pool of runner threads sharing one [`ExecSession`].
//!
//! Flow of a request (DESIGN.md §8):
//!
//! 1. **Door** — [`QueryService::submit`] either enqueues the request or
//!    refuses it with a typed [`ServiceError::Overloaded`] carrying a
//!    `retry_after` hint. The queue is the *only* buffer in the service and
//!    it is bounded, so offered load beyond capacity turns into shed
//!    responses, never unbounded memory growth.
//! 2. **Deadline** — the per-class deadline starts at submit time, so
//!    queue wait counts against it (a request that waits out its whole
//!    deadline in the queue is cancelled without ever running).
//! 3. **Run** — a runner thread executes the query via
//!    [`Executor::run_shared`] against the shared session; the executor's
//!    memory-grant admission arbitrates buffer-pool capacity *within* the
//!    concurrency the service allows, and the request's
//!    [`CancelToken`] stops workers at unit/morsel boundaries when the
//!    deadline fires mid-run.
//! 4. **Outcome** — completion, deadline cancellation, or typed failure is
//!    recorded in [`ServiceStats`] and delivered to the caller's
//!    [`Ticket`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xprs_executor::{CancelToken, Clock, ExecConfig, ExecSession, Executor, QueryRun};
use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
use xprs_storage::{lock, Catalog};
use xprs_workload::QueryClass;

use crate::stats::ServiceStats;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-queue capacity. A submit that finds the queue full is
    /// shed with [`ServiceError::Overloaded`], so at 0 every submit is. This
    /// is the service's only buffer: nothing else in the pipeline grows
    /// with offered load.
    pub queue_cap: usize,
    /// Runner threads — queries executing concurrently against the shared
    /// session; 0 runs one. The executor's memory grants arbitrate the
    /// buffer pool among them.
    pub max_concurrent: usize,
    /// Deadline for [`QueryClass::Interactive`] requests, measured from
    /// submit (queue wait included).
    pub interactive_deadline: Duration,
    /// Deadline for [`QueryClass::Batch`] requests, measured from submit.
    pub batch_deadline: Duration,
    /// Executor configuration shared by every run (machine model, faults).
    /// Every run shares the session and carries a token, so every run ticks
    /// its master's patrol.
    pub exec: ExecConfig,
}

impl ServiceConfig {
    /// A service tuned for functional tests: small queue, two runners,
    /// generous deadlines, unthrottled executor. Its runs share the session,
    /// so each master ticks its patrol: cross-run admission retries and
    /// dead-worker recovery come with the sharing.
    pub fn quick() -> Self {
        ServiceConfig {
            queue_cap: 16,
            max_concurrent: 2,
            interactive_deadline: Duration::from_secs(10),
            batch_deadline: Duration::from_secs(30),
            exec: ExecConfig::unthrottled(),
        }
    }

    fn deadline_for(&self, class: QueryClass) -> Duration {
        match class {
            QueryClass::Interactive => self.interactive_deadline,
            QueryClass::Batch => self.batch_deadline,
        }
    }
}

/// Typed refusal or failure at the submission door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The admission queue is full. `retry_after` is the service's own
    /// estimate of when capacity frees up (current queue depth times the
    /// smoothed per-query service time, divided across runners) — a
    /// well-behaved client backs off at least this long.
    Overloaded {
        /// Suggested client back-off before resubmitting.
        retry_after: Duration,
    },
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after } => {
                write!(f, "service overloaded; retry after {retry_after:?}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// How an admitted request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion; `rows` result tuples were produced.
    Completed {
        /// Result tuples in the root fragment's output.
        rows: u64,
    },
    /// The per-class deadline fired (in the queue or mid-run) and the
    /// query was cooperatively cancelled; its grant, pins and partition
    /// shares were released.
    DeadlineCancelled,
    /// The executor refused or aborted the run; the rendered error.
    Failed {
        /// Display-rendered [`xprs_executor::ExecError`].
        error: String,
    },
}

/// The settled outcome of one admitted request.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Tenant that submitted the request.
    pub tenant: u32,
    /// Service class it was submitted under.
    pub class: QueryClass,
    /// End-to-end latency: submit → outcome recorded.
    pub latency: Duration,
    /// Portion of `latency` spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Terminal status.
    pub status: QueryStatus,
}

/// One admitted request: what to run and for whom.
#[derive(Debug)]
pub struct QueryRequest {
    /// Submitting tenant (index into the arrival spec).
    pub tenant: u32,
    /// Service class — selects the deadline and the stats bucket.
    pub class: QueryClass,
    /// The optimized query and its bindings.
    pub run: QueryRun,
}

/// Claim check for an admitted request. Dropping the ticket abandons the
/// outcome but never the query — the runner still settles it and records
/// stats (a disconnected client must not leak grants or skew counters).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<QueryOutcome>,
    token: CancelToken,
    tenant: u32,
    class: QueryClass,
    submitted_at: Instant,
    clock: Arc<dyn Clock>,
}

impl Ticket {
    /// Block until the request settles. A runner that vanished without
    /// settling it (it panicked) leaves a [`QueryStatus::Failed`] outcome,
    /// its queue wait unknown and reported as zero.
    pub fn wait(self) -> QueryOutcome {
        self.rx.recv().unwrap_or_else(|_| QueryOutcome {
            tenant: self.tenant,
            class: self.class,
            latency: self.clock.now().saturating_duration_since(self.submitted_at),
            queue_wait: Duration::ZERO,
            status: QueryStatus::Failed {
                error: "the runner exited without settling the request".to_string(),
            },
        })
    }

    /// Cancel the request from the client side (same path as the
    /// deadline): queued → retired unrun, running → cooperative stop.
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

/// One queue entry.
struct Job {
    req: QueryRequest,
    token: CancelToken,
    submitted_at: Instant,
    resp: mpsc::Sender<QueryOutcome>,
}

/// State shared between the submission path and the runner threads.
struct Shared {
    cfg: ServiceConfig,
    catalog: Arc<Catalog>,
    session: ExecSession,
    queue: Mutex<VecDeque<Job>>,
    work: Condvar,
    stopping: AtomicBool,
    stats: ServiceStats,
    /// Exponentially-smoothed per-query service time, in nanoseconds.
    /// Seeds the `retry_after` hint; 0 until the first completion.
    ema_service_nanos: AtomicU64,
}

impl Shared {
    /// Fold one observed run time into the smoothed service time
    /// (α = 1/8, integer arithmetic — this is a hint, not a measurement).
    fn note_service_time(&self, run: Duration) {
        let sample = run.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.ema_service_nanos.load(Ordering::Relaxed);
        let new = if old == 0 { sample } else { old - old / 8 + sample / 8 };
        self.ema_service_nanos.store(new, Ordering::Relaxed);
    }

    /// Back-off hint for a shed request: the queue ahead of the client,
    /// served at the smoothed rate across all runners. Clamped to
    /// [1 ms, 5 s] so a cold or pathological estimate stays sane.
    fn retry_after(&self, queue_len: usize) -> Duration {
        let ema = self.ema_service_nanos.load(Ordering::Relaxed);
        let per_query = if ema == 0 { 10_000_000 } else { ema }; // cold: assume 10 ms
        let runners = self.cfg.max_concurrent.max(1) as u64;
        let nanos = per_query.saturating_mul(queue_len as u64 + 1) / runners;
        Duration::from_nanos(nanos).clamp(Duration::from_millis(1), Duration::from_secs(5))
    }
}

/// The long-running query service. See the module docs for the pipeline.
pub struct QueryService {
    shared: Arc<Shared>,
    runners: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Start the service: build the shared executor session (one machine,
    /// one buffer pool, one worker pool) and spawn `max_concurrent` runner
    /// threads (at least one).
    pub fn start(cfg: ServiceConfig, catalog: Arc<Catalog>) -> Self {
        let session = Executor::new(cfg.exec.clone(), catalog.clone()).session();
        let shared = Arc::new(Shared {
            cfg,
            catalog,
            session,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            stopping: AtomicBool::new(false),
            stats: ServiceStats::new(),
            ema_service_nanos: AtomicU64::new(0),
        });
        // The OS refusing a runner thread at startup leaves no service to
        // degrade to; `std::thread::spawn` panics the same way.
        #[allow(clippy::expect_used)]
        let runners = (0..shared.cfg.max_concurrent.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("svc-runner-{i}"))
                    .spawn(move || runner_loop(&shared))
                    .expect("spawn service runner")
            })
            .collect();
        QueryService { shared, runners }
    }

    /// Submit a request. Admission is all-or-nothing: either the request
    /// is queued with its deadline already ticking and a [`Ticket`] is
    /// returned, or it is shed with a typed error and the service retains
    /// nothing.
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, ServiceError> {
        if self.shared.stopping.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let (tenant, class) = (req.tenant, req.class);
        let clock = self.shared.session.clock().clone();
        let submitted_at = clock.now();
        let token = CancelToken::with_deadline(submitted_at, self.shared.cfg.deadline_for(class));
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock(&self.shared.queue);
            if q.len() >= self.shared.cfg.queue_cap {
                drop(q);
                self.shared.stats.class(class).shed.inc();
                let depth = self.shared.cfg.queue_cap;
                return Err(ServiceError::Overloaded {
                    retry_after: self.shared.retry_after(depth),
                });
            }
            // Counted under the queue lock, before a runner can pop and
            // settle the job, so no observer sees it settled unsubmitted.
            self.shared.stats.class(class).submitted.inc();
            q.push_back(Job { req, token: token.clone(), submitted_at, resp: tx });
        }
        self.shared.work.notify_one();
        Ok(Ticket { rx, token, tenant, class, submitted_at, clock })
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Live service counters and latency histograms.
    pub fn stats(&self) -> &ServiceStats {
        &self.shared.stats
    }

    /// Buffer-pool pages currently reserved by memory grants across the
    /// shared session. Zero once the service is idle — anything else is a
    /// grant leak.
    pub fn reserved_pages(&self) -> u64 {
        self.shared.session.reserved_pages()
    }

    /// Buffer-pool pages currently pinned across the shared session. Zero
    /// once the service is idle — anything else is a pin leak.
    pub fn pinned_pages(&self) -> u64 {
        self.shared.session.pinned_pages()
    }

    /// Stop accepting work, drain the queue (queued jobs still run, or are
    /// retired by their deadlines), join every runner, and shut the shared
    /// worker pool down — exactly what dropping the service does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // No hung runner threads, no leaked worker pool. `stopping` is
        // stored under the queue lock, so a runner checks it either before
        // the store (and is then waiting when the notification comes) or
        // after it: no wakeup is lost, and the runners wait untimed.
        {
            let _q = lock(&self.shared.queue);
            self.shared.stopping.store(true, Ordering::Release);
        }
        self.shared.work.notify_all();
        for r in self.runners.drain(..) {
            let _ = r.join();
        }
        self.shared.session.shutdown();
    }
}

/// Runner thread: pop → run (or retire) → settle, until the service stops
/// and the queue is drained. A runner is the master of every run it
/// executes, and a master waits on modelled deadlines (a fragment's end),
/// so it drops the default timer slack once, as it starts, as the
/// executor's pool threads do.
fn runner_loop(shared: &Shared) {
    xprs_executor::clock::tighten_timer_slack();
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        settle(shared, job);
    }
}

/// Execute (or retire) one admitted job, record its outcome and answer the
/// client. What the run leaves behind — its plan, executor, policy and
/// report — is dropped only after the answer is sent: freeing it is not on
/// the client's path. The grant, pins and partition shares are released
/// inside the run, so the ledgers read zero before the answer is sent.
fn settle(shared: &Shared, job: Job) {
    let Job { req, token, submitted_at, resp } = job;
    let QueryRequest { tenant, class, run } = req;
    let clock = shared.session.clock();
    let popped = clock.now();
    let queue_wait = popped.saturating_duration_since(submitted_at);
    let class_stats = shared.stats.class(class);
    class_stats.queue_wait_us.observe(queue_wait.as_micros().min(u64::MAX as u128) as u64);

    // Deadline (or client cancel) fired while the job sat in the queue:
    // retire it without staffing anything.
    let (status, spent) = if token.is_cancelled(popped) {
        (QueryStatus::DeadlineCancelled, None)
    } else {
        let exec = Executor::new(shared.cfg.exec.clone(), shared.catalog.clone());
        let mut policy =
            AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(shared.cfg.exec.machine.clone()));
        let runs = [run];
        let run_start = clock.now();
        let tokens = std::slice::from_ref(&token);
        let result = exec.run_shared(&shared.session, &runs, &mut policy, tokens);
        let status = match &result {
            Ok(report) => {
                shared.note_service_time(clock.now().saturating_duration_since(run_start));
                if report.profiles.first().is_some_and(|q| q.cancelled) {
                    QueryStatus::DeadlineCancelled
                } else {
                    let rows =
                        report.results.first().map_or(0, |r| r.rows.rows.len() as u64);
                    QueryStatus::Completed { rows }
                }
            }
            Err(e) => QueryStatus::Failed { error: e.to_string() },
        };
        (status, Some((runs, exec, policy, result)))
    };

    let latency = clock.now().saturating_duration_since(submitted_at);
    class_stats.latency_us.observe(latency.as_micros().min(u64::MAX as u128) as u64);
    match &status {
        QueryStatus::Completed { .. } => class_stats.completed.inc(),
        QueryStatus::DeadlineCancelled => class_stats.deadline_cancelled.inc(),
        QueryStatus::Failed { .. } => class_stats.failed.inc(),
    }
    // The client may have dropped its ticket; the outcome is already in
    // the stats, so a dead receiver is not an error.
    let _ = resp.send(QueryOutcome { tenant, class, latency, queue_wait, status });
    drop(spent);
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_disk::StripedLayout;
    use xprs_executor::{RelBinding, WallClock};
    use xprs_optimizer::{Costing, Query, TwoPhaseOptimizer};
    use xprs_storage::{Datum, Schema, Tuple};

    /// A service over one small indexed relation, and a lookup on it.
    fn lookup_service() -> (QueryService, impl Fn() -> QueryRequest) {
        let mut cat = Catalog::new(StripedLayout::new(4));
        cat.create("t", Schema::paper_rel());
        let row = |i| Tuple::from_values(vec![Datum::Int(i % 50), Datum::Text("x".into())]);
        cat.load("t", (0..500).map(row));
        cat.build_index("t", false);
        let cat = Arc::new(cat);
        let optimized = TwoPhaseOptimizer::paper_default()
            .optimize_catalog(&cat, &Query::selection("t", 1.0), Costing::SeqCost)
            .expect("plan");
        let request = move || QueryRequest {
            tenant: 0,
            class: QueryClass::Interactive,
            run: QueryRun {
                optimized: optimized.clone(),
                bindings: vec![RelBinding { name: "t".into(), pred: (0, 9) }],
            },
        };
        (QueryService::start(ServiceConfig::quick(), cat), request)
    }

    #[test]
    fn a_poisoned_queue_still_admits_and_serves() {
        let (svc, request) = lookup_service();
        let shared = svc.shared.clone();
        let poisoner = std::thread::spawn(move || {
            let _q = shared.queue.lock();
            panic!("a thread dies holding the service queue");
        });
        assert!(poisoner.join().is_err());
        assert!(svc.shared.queue.is_poisoned());
        let ticket = svc.submit(request()).expect("a poisoned queue still admits");
        assert!(svc.queue_depth() <= 1);
        let out = ticket.wait();
        assert_eq!(out.status, QueryStatus::Completed { rows: 100 });
    }

    /// The client is answered after the stats are recorded and the run has
    /// released what it held, so nothing needs polling once `wait` returns.
    #[test]
    fn an_answered_request_is_already_settled_and_released() {
        let (svc, request) = lookup_service();
        for _ in 0..5 {
            let out = svc.submit(request()).expect("admit").wait();
            assert_eq!(out.status, QueryStatus::Completed { rows: 100 });
            assert_eq!(svc.stats().interactive.in_flight(), 0);
            assert_eq!(svc.reserved_pages(), 0);
            assert_eq!(svc.pinned_pages(), 0);
        }
    }

    #[test]
    fn a_ticket_whose_runner_vanished_settles_as_failed() {
        let (tx, rx) = mpsc::channel();
        drop(tx); // the runner unwound with the job's sender
        let clock: Arc<dyn Clock> = Arc::new(WallClock);
        let (tenant, class, submitted_at) = (3, QueryClass::Batch, clock.now());
        let ticket = Ticket { rx, token: CancelToken::new(), tenant, class, submitted_at, clock };
        let out = ticket.wait();
        assert_eq!((out.tenant, out.class), (3, QueryClass::Batch));
        assert!(matches!(out.status, QueryStatus::Failed { .. }), "{:?}", out.status);
    }
}

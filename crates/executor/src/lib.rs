//! # xprs-executor
//!
//! A real multi-threaded shared-memory parallel query executor in the XPRS
//! architecture: one **master backend** runs the optimizer and scheduler and
//! hands plan fragments to **slave backend** threads, which communicate
//! purely through shared memory (locks and channels).
//!
//! * [`io`] — the machine throttle: every heap-page read is *issued*
//!   against its disk's reservation timeline — classified under the
//!   `xprs-disk` service model and given the disk's next free interval —
//!   and *awaited* by sleeping to that interval's (scaled-down) end, so
//!   wall-clock behaviour mirrors the simulated machine and a backend can
//!   compute while its next page is read; a counting semaphore limits
//!   concurrently-computing workers to the machine's `N` processors.
//! * [`program`] — fragment compilation: a sequential [`xprs_optimizer::Plan`]
//!   is cut at its blocking edges (the same rule the optimizer uses) into
//!   data-parallel pipeline programs: a partitioned *driver* (page-
//!   partitioned heap scan, range-partitioned index scan, or a key-domain
//!   merge) followed by probe/merge/nest operators over materialized inputs.
//! * [`worker`] — the slave backend loop: claim the next work unit (a
//!   page or key of the morsel in hand), issue its throttled read,
//!   evaluate the previously read page through the pipeline (one page of
//!   claim-first read-ahead), emit result tuples; workers discover
//!   retirement and new assignments through the shared partition, so
//!   dynamic parallelism adjustment needs no thread cancellation.
//! * [`steal`] — the morsel-driven work-stealing partition every fragment
//!   runs on: the unit space decomposes into morsels dealt into per-worker
//!   deques; idle workers steal pending morsels from seeded victims, and
//!   the heartbeat patrol reclaims only a dead worker's *unclaimed* units.
//! * [`config`] / [`error`] — [`ExecConfig`] with its builders, and the
//!   typed [`ExecError`] taxonomy every run failure maps into.
//! * [`master`] — the driver: executes one or many optimized queries under
//!   any [`xprs_scheduler::SchedulePolicy`], staffing and re-partitioning
//!   worker slots on a persistent thread [`pool`] as the policy directs.
//!   Long-running callers share one machine + pool via
//!   [`master::ExecSession`] and `run_shared`.
//! * [`cancel`] — per-query deadlines and cooperative cancellation:
//!   a [`cancel::CancelToken`] fired manually or by deadline stops a
//!   query's workers at unit/morsel boundaries and releases its grant,
//!   pins and partition shares exactly once.
//! * [`pool`] — the persistent slave-backend thread pool: parallelism
//!   adjustments park and unpark long-lived threads instead of spawning and
//!   joining OS threads per slot.
//! * [`obs`] — measured utilization: hot-path metrics (gate waits, I/O
//!   retries, merge shape), per-query fragment profiles, and the pairing-
//!   window audit that checks the measured disk bandwidth against §2.2–2.3's
//!   predictions. Rendered as `metrics.json` by `ExecReport::metrics_json`.

mod admission;
pub mod cancel;
pub mod config;
pub mod error;
pub mod io;
pub mod master;
mod materialize;
pub mod obs;
mod patrol;
pub mod pool;
mod predict_wiring;
pub mod program;
mod report;
mod session;
mod staffing;
pub mod steal;
pub mod worker;

pub use cancel::CancelToken;
pub use io::{CpuGate, IoFault, Machine, MachineStats, ReadTicket, READ_ATTEMPTS, RETRY_BACKOFF};
pub use config::{ExecConfig, DEFAULT_MORSEL_UNITS};
pub use error::ExecError;
pub use master::{ExecReport, ExecSession, Executor, QueryResult, QueryRun};
pub use obs::{
    ExecMetrics, FragmentProfile, MergeProfile, QueryProfile, UtilSample, UtilizationAudit,
};
pub use pool::WorkerPool;
pub use program::{compile, FragmentProgram, Materialized, PipelineOp, ProgramSet};
pub use steal::{NextMorsel, StealPartition, MAX_DEAL_MORSELS};
pub use worker::RelBinding;

//! # xprs-service
//!
//! A long-running, overload-safe **continuous query service** over the
//! XPRS executor. Batch runs (`Executor::run`) assume a closed world: a
//! fixed query list, one caller, and however long it takes. A service
//! faces the opposite regime — an open-loop arrival stream
//! ([`xprs_workload::generate_arrivals`]) from many tenants that keeps
//! offering load whether or not the machine can absorb it. This crate
//! supplies the four mechanisms that regime needs:
//!
//! * **Bounded admission** — one bounded queue in front of the runners;
//!   a full queue sheds with the typed
//!   [`ServiceError::Overloaded`]`{ retry_after }` instead of buffering
//!   without limit.
//! * **Deadlines from submit time** — each class
//!   ([`xprs_workload::QueryClass`]) carries a deadline that starts
//!   ticking at the door, so queue wait counts against it.
//! * **Cooperative cancellation** — a fired deadline stops the query's
//!   workers at unit/morsel boundaries via
//!   [`xprs_executor::CancelToken`], releasing its memory grant, buffer
//!   pins and partition shares exactly once (the service exposes the
//!   [`QueryService::reserved_pages`]/[`QueryService::pinned_pages`]
//!   ledgers so tests and CI can prove it).
//! * **Graceful degradation** — injected worker deaths and disk
//!   slowdowns (via the executor's fault plan, death reports and
//!   recalibrating patrol) show
//!   up as bounded per-tenant latency inflation and shed counters in
//!   [`ServiceStats`], never a hung service or a leaked grant.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod service;
pub mod stats;

pub use service::{
    QueryOutcome, QueryRequest, QueryService, QueryStatus, ServiceConfig, ServiceError, Ticket,
};
pub use stats::{ClassStats, ServiceStats};

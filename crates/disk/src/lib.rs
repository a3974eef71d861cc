//! # xprs-disk
//!
//! The striped disk-array model of the XPRS testbed.
//!
//! XPRS stripes every relation block-by-block, round-robin, across the disk
//! array to expose maximum I/O bandwidth. The paper measured each disk (after
//! file-system overhead) at three service regimes:
//!
//! | regime            | rate (I/Os per second) | when |
//! |-------------------|------------------------|------|
//! | sequential        | 97                     | one backend reading a relation's blocks in stripe order |
//! | almost sequential | 60                     | several backends of *one* task reading a striped relation — slightly unordered |
//! | random            | 35                     | index-scan pointer chasing, or the head seeking between the block streams of *different* tasks |
//!
//! This crate provides the per-disk service-time classification
//! ([`DiskState`]), the round-robin striping arithmetic ([`StripedLayout`])
//! and aggregated array statistics ([`ArrayStats`]). It deliberately owns no
//! clock and no queues: the discrete-event simulator (`xprs-sim`) and the
//! threaded executor (`xprs-executor`) each impose their own notion of time
//! on the same physics, so the interference effect the paper's Section 2.3
//! models — two interleaved sequential scans degrading the array toward its
//! random bandwidth — *emerges* in both engines rather than being assumed.
//!
//! Outside tests the crate neither unwraps nor panics. Its three `assert!`s
//! are documented caller invariants checked at construction, before any
//! I/O: [`DiskParams::from_rates`]'s rate order, [`StripedLayout::new`]'s
//! non-empty array and [`FaultPlan::with_slowdown`]'s multiplier ≥ 1.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod array;
pub mod fault;
pub mod model;
pub mod spill;
pub mod stripe;

pub use array::ArrayStats;
pub use fault::{FaultDomain, FaultPlan, FaultStats, WorkerFaultKind};
pub use model::{ClassStats, DiskParams, DiskState, IoRequest, RelId, ServiceClass, WorkerId};
pub use spill::{SpillFile, SpillRun, SPILL_BLOCK_BYTES, SPILL_REL_BASE};
pub use stripe::StripedLayout;

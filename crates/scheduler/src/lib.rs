//! # xprs-scheduler
//!
//! The scheduling core of *"Exploiting Inter-Operation Parallelism in XPRS"*
//! (Wei Hong, UCB/ERL M92/3, January 1992).
//!
//! XPRS executes query plans as **plan fragments** (maximal pipelineable
//! subtrees, called *tasks*). Each task `f_i` has a sequential execution time
//! `T_i` and a sequential I/O request rate `C_i` (I/Os per second). Run with
//! intra-operation parallelism `x`, its I/O rate becomes `C_i · x`.
//!
//! Given a machine with `N` processors and aggregate disk bandwidth `B`,
//! the paper's scheduler:
//!
//! 1. classifies a task as **IO-bound** when `C_i > B / N` and **CPU-bound**
//!    otherwise ([`task`]);
//! 2. pairs one IO-bound and one CPU-bound task and runs them at the
//!    **IO-CPU balance point** — the parallelism split `(x_i, x_j)` with
//!    `x_i + x_j = N` and `C_i·x_i + C_j·x_j = B`, which saturates both the
//!    processors and the disks ([`balance`]);
//! 3. corrects the bandwidth `B` for **seek interference** between two
//!    sequential-I/O tasks ([`balance::effective_bandwidth`]);
//! 4. **dynamically adjusts** the degree of parallelism of running tasks so
//!    that the system stays at the balance point as tasks finish and arrive
//!    ([`adaptive`]);
//! 5. estimates parallel execution time `T_n(S)` of a task set — or of a
//!    fragment DAG with order dependencies — by replaying the scheduling
//!    algorithm analytically ([`fluid`]), which is what the two-phase query
//!    optimizer uses as `parcost` (see the `xprs-optimizer` crate).
//!
//! The three policies evaluated in the paper's Section 3 are available as
//! [`policy::SchedulePolicy`] implementations:
//!
//! * [`intra::IntraOnly`] — `INTRA-ONLY`, one task at a time;
//! * [`adaptive::AdaptiveScheduler`] with
//!   [`adaptive::AdaptiveConfig::adjust`]` = false` — `INTER-WITHOUT-ADJ`;
//! * [`adaptive::AdaptiveScheduler`] with `adjust = true` — `INTER-WITH-ADJ`,
//!   the paper's proposal.
//!
//! ## Quick example
//!
//! ```
//! use xprs_scheduler::machine::MachineConfig;
//! use xprs_scheduler::task::{IoKind, TaskId, TaskProfile};
//! use xprs_scheduler::balance::balance_point;
//!
//! let m = MachineConfig::paper_default(); // 8 CPUs, 4 disks, B = 240 io/s
//! let io = TaskProfile::new(TaskId(0), 20.0, 60.0, IoKind::Sequential);
//! let cpu = TaskProfile::new(TaskId(1), 20.0, 10.0, IoKind::Sequential);
//! let bp = balance_point(&io, &cpu, &m).expect("one IO-bound + one CPU-bound");
//! // Both resources saturated: x_io + x_cpu = N and rates sum to B_eff.
//! assert!((bp.x_io + bp.x_cpu - m.n_procs as f64).abs() < 1e-9);
//! ```

pub mod adaptive;
pub mod balance;
pub mod deps;
pub mod error;
pub mod estimate;
pub mod fluid;
pub mod frag_table;
pub mod intra;
pub mod machine;
pub mod pairing;
pub mod policy;
pub mod predict;
pub mod task;
pub mod trace;

pub use adaptive::{AdaptiveConfig, AdaptiveScheduler};
pub use balance::{balance_point, BalancePoint};
pub use deps::FragmentDag;
pub use error::SchedError;
pub use fluid::{FluidSim, ScheduleTrace};
pub use frag_table::{FragTable, Phase};
pub use intra::IntraOnly;
pub use machine::MachineConfig;
pub use pairing::Pairing;
pub use policy::{Action, RunningTask, SchedulePolicy};
pub use predict::{Observation, PredictKey, Prediction, Predictor};
pub use task::{Boundedness, IoKind, TaskId, TaskProfile};
pub use trace::{RunningSnap, SharedSink, TraceRecord};

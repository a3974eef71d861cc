//! # xprs
//!
//! The facade crate of the XPRS inter-operation-parallelism reproduction
//! (Wei Hong, *Exploiting Inter-Operation Parallelism in XPRS*, UCB/ERL
//! M92/3, 1992): one entry point over the storage substrate, the two-phase
//! optimizer, the adaptive scheduler, the discrete-event simulator and the
//! multi-threaded executor.
//!
//! ```
//! use xprs::{PolicyKind, XprsSystem};
//! use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};
//!
//! // Generate the paper's "extreme mix" workload and measure all three
//! // scheduling algorithms on the simulated machine.
//! let workload = WorkloadGenerator::new()
//!     .generate(&WorkloadConfig::paper(WorkloadKind::Extreme, 42));
//! let sys = XprsSystem::paper_default();
//! // A misbehaving policy is a typed error, not a panic; the paper's
//! // policies run these workloads to completion.
//! let intra = sys.simulate(&workload.profiles(), PolicyKind::IntraOnly).expect("sim").elapsed;
//! let with_adj =
//!     sys.simulate(&workload.profiles(), PolicyKind::InterWithAdj).expect("sim").elapsed;
//! assert!(with_adj <= intra * 1.01);
//! ```

pub mod system;

pub use system::{PolicyKind, XprsSystem};

pub use xprs_disk as disk;
pub use xprs_executor as executor;
pub use xprs_optimizer as optimizer;
pub use xprs_scheduler as scheduler;
pub use xprs_sim as sim;
pub use xprs_storage as storage;
pub use xprs_workload as workload;

pub use xprs_optimizer::{Costing, OptError, OptimizedQuery, PlanShape, Query, TwoPhaseOptimizer};
pub use xprs_scheduler::{MachineConfig, TaskId, TaskProfile};

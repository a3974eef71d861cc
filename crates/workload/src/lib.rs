//! # xprs-workload
//!
//! Generators for the paper's Section 3 evaluation workloads.
//!
//! Each workload is ten one-variable selection tasks. A task's I/O rate is
//! dialled by the **tuple size** of the relation it scans: small tuples pack
//! hundreds to a page, so the per-page qualification work dominates and the
//! scan is CPU-bound; an 8 KB tuple gives one tuple per page and an IO-bound
//! scan. The paper's calibration anchors are `r_min` (NULL `b` attribute,
//! 5 I/Os per second) and `r_max` (one tuple per page, 70 I/Os per second).
//!
//! | class                | I/O rate (I/Os per second) |
//! |----------------------|----------------------------|
//! | CPU-bound            | uniform in `[5, 30)`       |
//! | IO-bound             | uniform in `(30, 60]`      |
//! | extremely CPU-bound  | uniform in `[5, 15]`       |
//! | extremely IO-bound   | uniform in `[60, 70]`      |
//!
//! Task lengths are uniform between scanning 100 and 10 000 tuples.

pub mod arrivals;
pub mod calibrate;
pub mod gen;
pub mod skew;
pub mod spec;

pub use arrivals::{generate_arrivals, Arrival, ArrivalSpec, QueryClass, TenantLoad};
pub use calibrate::Calibration;
pub use gen::{
    generate_disk_resident, generate_oversized_build, DiskResidentRelation, DiskResidentSpec,
    DiskResidentWorkload, GeneratedTask, GeneratedWorkload, OversizedBuildPair,
    OversizedBuildSpec, OversizedBuildWorkload, WorkloadGenerator,
};
pub use skew::{generate_zipf_join, zipf_keys, ZipfJoinSpec, ZipfJoinWorkload};
pub use spec::{LengthModel, WorkloadConfig, WorkloadKind};

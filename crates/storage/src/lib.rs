//! # xprs-storage
//!
//! The storage substrate underneath the XPRS reproduction: slotted 8 KB heap
//! pages striped round-robin over the disk array, an index on the key
//! (clustered or unclustered) built on the same CSR layout that materialized
//! join inputs use, a pinning LRU buffer pool, a catalog with
//! optimizer statistics, and — because it is really a statement about how a
//! relation's pages and key ranges are divided among parallel backends —
//! the Section 2.4 partitioning with its dynamic adjustment (Figures 5 and
//! 6), as the morsel deal every engine runs ([`StealPartition`]).
//!
//! The experiments' schema is `r(a int4, b text)`: attribute `b` is a
//! variable-length string used purely to dial the tuple size, which in turn
//! dials a scan's I/O rate — one 8 KB page holds one huge tuple (`r_max`,
//! 70 I/Os per second) or hundreds of minimal ones (`r_min`, 5 I/Os per
//! second).

pub mod bufpool;
pub mod catalog;
pub mod datum;
pub mod heap;
pub mod page;
pub mod partition;
pub mod runs;
pub mod schema;
pub mod shardpool;
mod steal;
pub mod tuple;

pub use bufpool::{BufferPool, PoolStats, UnpinError};
pub use catalog::{Catalog, RelIndex, RelStats, Relation};
pub use datum::Datum;
pub use heap::HeapFile;
pub use page::{Page, PAGE_HEADER, PAGE_SIZE};
pub use partition::StealPartition;
pub use runs::{merge_runs, split_runs_stats, CsrIndex, RunGroup, SplitStats};
pub use schema::{ColumnType, Schema};
pub use shardpool::{lock, ShardReservation, ShardedBufferPool};
pub use tuple::{Tuple, TupleId};

//! Spill-file accounting for operators that exceed their memory grant.
//!
//! When a hash build or a worker's sort buffer outgrows the pages the
//! admission layer granted it, the overflow is written out as a sorted
//! *run* and read back later for the k-way merge. This module owns the
//! bookkeeping side of that protocol: which synthetic relation the runs
//! belong to, where each run starts, and how many striped blocks it
//! occupies. The actual service-time physics stay in [`crate::model`] —
//! a spill write or read-back is just another [`crate::IoRequest`]
//! against the array, so spill traffic interferes with concurrent scans
//! exactly the way the paper's Section 2.3 says it must.

use crate::model::RelId;

/// Spill relations live in an id range no catalog relation can reach
/// (the catalog hands out small incrementing ids), so a spill request is
/// distinguishable in traces and can never alias a heap relation.
pub const SPILL_REL_BASE: u64 = 1 << 32;

/// Spill files use the same 8 KB block granularity as heap pages.
pub const SPILL_BLOCK_BYTES: u64 = 8192;

/// One sorted run written by a worker that overflowed its grant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRun {
    /// First block of the run within its spill file.
    pub start: u64,
    /// Blocks the run occupies (always at least one).
    pub blocks: u64,
    /// Rows in the run.
    pub rows: u64,
}

/// Per-worker spill file: an append-only sequence of sorted runs.
///
/// A file is identified by a synthetic [`RelId`] derived from the owning
/// fragment and worker slot, so each worker appends to its own stream and
/// run writes from different workers never contend for a tail pointer.
#[derive(Debug, Clone)]
pub struct SpillFile {
    rel: RelId,
    next_block: u64,
    runs: Vec<SpillRun>,
}

impl SpillFile {
    /// A fresh spill file for `worker` of `fragment`.
    pub fn new(fragment: u64, worker: u64) -> Self {
        SpillFile {
            rel: RelId(SPILL_REL_BASE | (fragment << 16) | (worker & 0xFFFF)),
            next_block: 0,
            runs: Vec::new(),
        }
    }

    /// The synthetic relation id spill I/O is issued under.
    pub fn rel(&self) -> RelId {
        self.rel
    }

    /// Record a run of `rows` rows totalling `bytes` bytes; returns the
    /// run's block extent for charging the write to the disk array.
    pub fn append(&mut self, rows: u64, bytes: u64) -> SpillRun {
        let blocks = bytes.div_ceil(SPILL_BLOCK_BYTES).max(1);
        let run = SpillRun { start: self.next_block, blocks, rows };
        self.next_block += blocks;
        self.runs.push(run.clone());
        run
    }

    /// Runs in append order.
    pub fn runs(&self) -> &[SpillRun] {
        &self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_contiguous_and_block_rounded() {
        let mut f = SpillFile::new(3, 1);
        let a = f.append(100, 8192);
        let b = f.append(50, 8193);
        let c = f.append(1, 10);
        assert_eq!(a, SpillRun { start: 0, blocks: 1, rows: 100 });
        assert_eq!(b, SpillRun { start: 1, blocks: 2, rows: 50 });
        assert_eq!(c, SpillRun { start: 3, blocks: 1, rows: 1 });
        assert_eq!(f.runs().iter().map(|r| r.blocks).sum::<u64>(), 4);
        assert_eq!(f.runs().iter().map(|r| r.rows).sum::<u64>(), 151);
        assert_eq!(f.runs().len(), 3);
    }

    #[test]
    fn spill_rel_ids_cannot_alias_catalog_relations() {
        let f = SpillFile::new(0, 0);
        assert!(f.rel().0 >= SPILL_REL_BASE);
        let g = SpillFile::new(7, 3);
        assert_ne!(f.rel(), g.rel());
        assert_ne!(SpillFile::new(7, 4).rel(), g.rel());
    }

    #[test]
    fn empty_file_accounts_to_zero() {
        let f = SpillFile::new(1, 2);
        assert!(f.runs().is_empty());
    }
}

//! Round-robin block striping arithmetic.
//!
//! XPRS stripes every relation sequentially, block by block, across the disk
//! array: global block `b` lives on disk `b mod D` at local position
//! `b div D`. All address translation between a relation's global block
//! numbers and per-disk local blocks goes through [`StripedLayout`].

/// Round-robin striping over `n_disks` disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedLayout {
    n_disks: u32,
}

impl StripedLayout {
    /// A layout over `n_disks` disks.
    ///
    /// # Panics
    /// Panics if `n_disks` is 0 — an invariant, not a runtime condition:
    /// every block maps to `block % n_disks`, and the executor refuses a
    /// machine with no disks before it builds a layout
    /// (`ExecError::InvalidConfig`, field `machine.n_disks`).
    pub fn new(n_disks: u32) -> Self {
        assert!(n_disks >= 1, "a disk array needs at least one disk");
        StripedLayout { n_disks }
    }

    /// Number of disks in the array.
    pub fn n_disks(&self) -> u32 {
        self.n_disks
    }

    /// The disk holding global block `block`.
    pub fn disk_of(&self, block: u64) -> u32 {
        (block % self.n_disks as u64) as u32
    }

    /// The local block index of global block `block` on its disk.
    pub fn local_block(&self, block: u64) -> u64 {
        block / self.n_disks as u64
    }

    /// Inverse mapping: the global block at `(disk, local)`.
    pub fn global_block(&self, disk: u32, local: u64) -> u64 {
        local * self.n_disks as u64 + disk as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_mapping() {
        let s = StripedLayout::new(4);
        assert_eq!(s.disk_of(0), 0);
        assert_eq!(s.disk_of(5), 1);
        assert_eq!(s.disk_of(7), 3);
        assert_eq!(s.local_block(0), 0);
        assert_eq!(s.local_block(5), 1);
        assert_eq!(s.local_block(8), 2);
    }

    #[test]
    fn global_is_inverse_of_local() {
        let s = StripedLayout::new(4);
        for b in 0..1000u64 {
            assert_eq!(s.global_block(s.disk_of(b), s.local_block(b)), b);
        }
    }

    #[test]
    fn single_disk_degenerates_to_identity() {
        let s = StripedLayout::new(1);
        assert_eq!(s.disk_of(42), 0);
        assert_eq!(s.local_block(42), 42);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        StripedLayout::new(0);
    }
}

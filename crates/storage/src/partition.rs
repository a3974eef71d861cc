//! Intra-operation partitioning and the Section 2.4 dynamic adjustment.
//!
//! A scan's work is a unit space `[0, total_units)` — heap pages for a
//! sequential scan, key offsets for an index scan or key-domain walk. The
//! paper divides it among `n` backends (worker `i` scans the pages `≡ i
//! (mod n)`, or the `i`-th key interval) and adjusts a running scan to `n'`
//! backends by re-partitioning what is left from one frontier: the
//! *max-page* protocol (Figure 5) for pages, interval re-partitioning
//! (Figure 6) for keys.
//!
//! [`StealPartition`] is that contract in morsel form, and the one deal
//! every engine runs — the threaded executor's backends and the
//! discrete-event simulator's alike. The unit space is cut into
//! [`Morsel`]s dealt round-robin in unit order over the slots, the
//! morsel-granular analogue of the residue classes; a backend claims a
//! morsel, then its units one by one. [`StealPartition::adjust`] gathers
//! every pending morsel and deals them again in unit order over the new
//! slot count, so a grown scan's new backends start on the lowest pending
//! units beside the running ones, and a shrunk scan's retiring backends
//! finish the units they claimed and leave. Pages already claimed stay with
//! their claimants — the max-page boundary, drawn at each backend's armed
//! morsel instead of at one page — and nothing is dealt twice.

pub use crate::steal::{NextMorsel, StealPartition, MAX_DEAL_MORSELS};

/// Work units (pages, page slices or keys) per morsel of the stealing deal:
/// big enough to amortize the deque latch and the completion report, small
/// enough that an 8-worker fragment over a few hundred pages still has
/// morsels worth stealing. Fragments too small for a whole morsel per
/// backend, or too large for a bounded deal, are cut at a derived grain
/// (see [`StealPartition::new`]), and a page scan over striped disks one
/// page per morsel ([`StealPartition::with_disks`]).
pub const DEFAULT_MORSEL_UNITS: u64 = 16;

/// Result of a dynamic adjustment: what the master must do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjustInfo {
    /// Worker slots to staff: slots this adjustment created, and exited
    /// slots that stay active and may be dealt work again.
    pub new_slots: Vec<usize>,
    /// Worker slots that retire at their next claim.
    pub retiring_slots: Vec<usize>,
}

/// A contiguous range of work units — heap pages for a sequential scan,
/// key offsets for an index scan or key-domain walk. The morsel is the
/// grain of the deal: a worker claims a whole morsel, then claims its units
/// one by one on a private atomic, and idle workers steal *whole pending
/// morsels* from victims' deques.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// First unit (inclusive).
    pub start: u64,
    /// One past the last unit (exclusive).
    pub end: u64,
}

impl Morsel {
    /// Units covered.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Does the morsel cover no units?
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Decompose `[0, total_units)` into fixed-size morsels of `morsel_units`
/// each; the final morsel may be short. `morsel_units` is clamped to ≥ 1.
/// Morsels tile the unit space exactly: disjoint, in order, covering every
/// unit once.
pub fn morselize(total_units: u64, morsel_units: u64) -> Vec<Morsel> {
    let grain = morsel_units.max(1);
    let mut out = Vec::with_capacity(total_units.div_ceil(grain) as usize);
    let mut start = 0;
    while start < total_units {
        let end = (start + grain).min(total_units);
        out.push(Morsel { start, end });
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morselize_tiles_the_unit_space() {
        for total in [0u64, 1, 7, 16, 17, 100] {
            for grain in [0u64, 1, 4, 16, 1000] {
                let morsels = morselize(total, grain);
                let mut next = 0;
                for m in &morsels {
                    assert_eq!(m.start, next, "gap or overlap at {next}");
                    assert!(!m.is_empty(), "empty morsel in {morsels:?}");
                    assert!(m.len() <= grain.max(1));
                    next = m.end;
                }
                assert_eq!(next, total, "units uncovered ({total}, {grain})");
            }
        }
    }

    #[test]
    fn morselize_zero_units_is_empty() {
        assert!(morselize(0, 8).is_empty());
    }
}

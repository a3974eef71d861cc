//! Morsel-driven work stealing: the one way a fragment's work units reach
//! its workers.
//!
//! The fragment's unit space `[0, total_units)` is cut into fixed-size
//! [`Morsel`]s which are dealt round-robin into per-worker deques — the
//! morsel-granular analogue of the §2.4 residue-class shares, which keeps
//! the deal's per-disk access pattern close to theirs (a contiguous block
//! deal measurably degrades the striped disks' service classification). A
//! worker takes its next morsel from the front of its own deque; when that
//! runs dry it steals the back half of a victim's *pending* morsels,
//! visiting victims in a seeded deterministic order. Within a claimed
//! morsel the worker claims units one at a time on a **private atomic** —
//! no lock, no shared cursor — so the per-unit hot path costs one
//! uncontended RMW.
//!
//! Two rules keep the initial deal meaningful: a fragment with at least
//! `parallelism` units deals at least one morsel to every slot (one
//! near-equal morsel each when it is too small for whole ones), and a thief
//! never takes the *last* pending morsel of a slot that has not begun
//! working. Together they guarantee every staffed slot
//! processes at least one unit of a large-enough fragment — first-touch
//! stays local, and per-slot fault-injection points (`kill slot s after
//! k units`) remain deterministic under stealing.
//!
//! # Any unit count
//!
//! The deal is bounded: at most [`MAX_DEAL_MORSELS`] morsels are ever
//! materialized, the grain growing past `morsel_units` for fragments too
//! large to be cut that finely. The claim word addresses the *armed
//! morsel*, not the fragment — it packs `(revoked, len, offset)` relative to
//! the morsel's start — so a key domain spanning the whole `i32` space (2³²
//! units) is served like any other fragment.
//!
//! # Exactly-once under revocation
//!
//! All deque traffic (take, steal, [`StealPartition::fail_slot`],
//! [`StealPartition::adjust`]) serializes on one coordinator latch taken
//! once per *morsel*, not per unit — lock-light by amortization. The owner
//! advances the claim word's `offset` with a CAS loop and revocation sets
//! the `REVOKED` bit with `fetch_or` while holding the latch. Because both
//! are RMWs on the same word, the hardware totally orders them: every unit
//! is observed exactly once, either by the owner (offset advanced before
//! revocation landed) or by the reclaimer (the remainder `[offset, len)`
//! read back from the `fetch_or`, made absolute with the armed morsel's
//! start, which the slot records under the same latch). A
//! falsely-declared-dead worker — stalled, not dead — therefore finishes
//! the units it already claimed and retires at its next claim; the
//! replacement starts exactly where the revocation cursor stood, and no
//! unit is processed twice or dropped.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xprs_storage::partition::{morselize, AdjustInfo, Morsel};

use crate::io::lock;

/// Claim-word revocation bit. The low 32 bits hold the offset of the next
/// unclaimed unit within the armed morsel, the next 31 the morsel's length.
const REVOKED: u64 = 1 << 63;

/// Longest morsel the claim word's 31-bit length field can hold.
const MAX_MORSEL_UNITS: u64 = (1 << 31) - 1;

/// Most morsels a deal materializes (16 MB of [`Morsel`]s). A fragment of
/// more than `MAX_DEAL_MORSELS · morsel_units` units is cut at the coarser
/// grain `ceil(total / MAX_DEAL_MORSELS)` instead: at the default grain of
/// 16 that is every fragment past 2²⁴ units, so no deal below it changes.
/// Past 2⁵¹ units the 31-bit morsel length binds first and the deal grows
/// beyond this bound rather than overflow the claim word.
pub const MAX_DEAL_MORSELS: u64 = 1 << 20;

fn pack(offset: u64, len: u64) -> u64 {
    debug_assert!(offset <= len && len <= MAX_MORSEL_UNITS);
    (len << 32) | offset
}

fn unpack(word: u64) -> (u64, u64) {
    (word & 0xFFFF_FFFF, (word >> 32) & MAX_MORSEL_UNITS)
}

/// One worker slot's share of the deque layer.
struct SlotState {
    /// Morsels dealt or stolen to this slot but not yet begun. Owned from
    /// the front, stolen from the back.
    pending: VecDeque<Morsel>,
    /// The packed `(revoked, len, offset)` claim word; shared with the
    /// owning worker's unit fast path.
    claim: Arc<AtomicU64>,
    /// A revoked slot hands out no further morsels (its pending work has
    /// moved elsewhere) and its owner retires at the next claim.
    revoked: bool,
    /// Set once the slot's owner takes its first morsel. Until then thieves
    /// leave the slot its last pending morsel (the first-morsel guarantee).
    started: bool,
    /// Start unit of the last morsel this slot armed: the base the claim
    /// word's offsets are relative to, and what the disk-affinity steal
    /// pass matches victims against (`unit % n_disks`).
    last_unit: Option<u64>,
}

impl SlotState {
    fn fresh(pending: VecDeque<Morsel>) -> Self {
        SlotState {
            pending,
            claim: Arc::new(AtomicU64::new(0)),
            revoked: false,
            started: false,
            last_unit: None,
        }
    }

    /// Arm the claim word for a freshly taken morsel. Caller holds the
    /// latch and has checked `revoked == false`, and revocation only
    /// happens under the same latch, so a plain store cannot clobber a
    /// REVOKED bit.
    fn arm(&mut self, m: Morsel) {
        self.started = true;
        self.last_unit = Some(m.start);
        self.claim.store(pack(0, m.len()), Ordering::SeqCst);
    }

    /// Revoke the slot (caller holds the latch) and hand back the unclaimed
    /// remainder of its armed morsel in absolute units — `None` when
    /// nothing was in flight or an earlier revocation already took it.
    fn revoke(&mut self) -> Option<Morsel> {
        self.revoked = true;
        let prev = self.claim.fetch_or(REVOKED, Ordering::SeqCst);
        let (offset, len) = unpack(prev);
        let base = self.last_unit?;
        (prev & REVOKED == 0 && offset < len)
            .then(|| Morsel { start: base + offset, end: base + len })
    }
}

/// A morsel handed to a worker, with its provenance (for steal counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextMorsel {
    /// The claimed morsel; its units are now claimable on the slot's word,
    /// as offsets from `morsel.start`.
    pub morsel: Morsel,
    /// Victim slot the morsel was stolen from (`None` = own deque).
    pub stolen_from: Option<usize>,
}

/// Work-stealing morsel partition for one fragment.
pub struct StealPartition {
    inner: Mutex<Vec<SlotState>>,
    seed: u64,
    total_units: u64,
    /// Disks under the unit space (`unit % n_disks` = home disk, matching
    /// [`xprs_disk::StripedLayout::disk_of`]). `0` or `1` disables the
    /// affinity steal pass.
    n_disks: u32,
}

impl StealPartition {
    /// Deal `[0, total_units)` in morsels of `morsel_units` round-robin
    /// over `parallelism` slots. A fragment too small to give every slot a
    /// whole morsel (`total / parallelism < morsel_units`) is cut into
    /// exactly one near-equal morsel per slot instead — sizes differ by at
    /// most one unit. A fixed grain of `floor(total / parallelism)` would
    /// leave a remainder morsel (111 units over 8 slots: nine 13-unit
    /// morsels), and the slot dealt two of them sets the fragment's time
    /// at two morsel-times while the others idle. Fragments smaller than
    /// the slot count deal one unit to as many slots as there are units.
    /// A fragment too large for [`MAX_DEAL_MORSELS`] morsels of
    /// `morsel_units` is cut at the coarser grain that fits.
    /// `seed` fixes the victim order for deterministic tests.
    pub fn new(total_units: u64, morsel_units: u64, parallelism: u32, seed: u64) -> Self {
        let n = parallelism.max(1) as usize;
        let grain = morsel_units
            .max(total_units.div_ceil(MAX_DEAL_MORSELS))
            .clamp(1, MAX_MORSEL_UNITS);
        let share = total_units / n as u64;
        let morsels = if share >= grain {
            morselize(total_units, grain)
        } else {
            // The first `total % n` morsels carry the extra unit.
            let extra = total_units % n as u64;
            let mut start = 0;
            (0..n as u64)
                .map(|i| {
                    let m = Morsel { start, end: start + share + u64::from(i < extra) };
                    start = m.end;
                    m
                })
                .filter(|m| !m.is_empty())
                .collect()
        };
        let per_slot = morsels.len().div_ceil(n);
        let mut slots: Vec<SlotState> =
            (0..n).map(|_| SlotState::fresh(VecDeque::with_capacity(per_slot))).collect();
        for (i, m) in morsels.into_iter().enumerate() {
            slots[i % n].pending.push_back(m);
        }
        StealPartition { inner: Mutex::new(slots), seed, total_units, n_disks: 0 }
    }

    /// Enable disk-affine victim selection for a page-scan fragment over a
    /// striped array of `n_disks` disks: instead of taking the first
    /// victim in the seeded rotation, an idle worker scores every victim's
    /// would-be morsel by *(lands off the thief's current disk?, block
    /// distance from the thief's last unit)* and steals the minimum — a
    /// same-disk continuation when one exists, the shortest seek jump
    /// otherwise.
    ///
    /// A blind steal teleports the thief to an arbitrary victim's tail:
    /// the jump degrades the stripe's sequential service class on both the
    /// abandoned and the invaded disk — a measured ~13% loss on uniform
    /// scans. Affine selection keeps the steal's rescue property (work
    /// still moves to idle workers) while paying the smallest available
    /// seek penalty for it.
    pub fn with_disks(mut self, n_disks: u32) -> Self {
        self.n_disks = n_disks;
        self
    }

    /// Total units in the fragment.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// The claim word `slot`'s owner uses for its per-unit fast path.
    pub fn claim_of(&self, slot: usize) -> Arc<AtomicU64> {
        lock(&self.inner)[slot].claim.clone()
    }

    /// Begin the slot's next morsel: own deque first, then steal the back
    /// half of the first victim (in seeded order) with pending work. On
    /// success the slot's claim word is armed with the morsel's length.
    /// `None` means the slot is revoked or no pending morsel exists
    /// anywhere — the worker retires.
    pub fn next_morsel(&self, slot: usize) -> Option<NextMorsel> {
        let mut slots = lock(&self.inner);
        if slots[slot].revoked {
            return None;
        }
        if let Some(m) = slots[slot].pending.pop_front() {
            slots[slot].arm(m);
            return Some(NextMorsel { morsel: m, stolen_from: None });
        }
        let n = slots.len();
        // Disk-affine selection: score every victim's would-be morsel by
        // (off-thief's-disk?, block distance from the thief's last unit)
        // and take the minimum — stay on the disk the thief was streaming
        // when possible, and jump as short a seek as possible otherwise.
        // Ties resolve to the seeded rotation's first, keeping replay
        // determinism. Without a disk mapping, or for a thief that never
        // armed a morsel, every candidate ties and the first victim in the
        // rotation with stealable work is taken.
        let affinity = (self.n_disks > 1).then_some(slots[slot].last_unit).flatten();
        let mut best: Option<((u64, u64), usize)> = None;
        for victim in victim_order(self.seed, slot, n) {
            let Some(c) = steal_candidate(&slots, victim) else { continue };
            let key = affinity.map_or((0, 0), |last| {
                let n_disks = u64::from(self.n_disks);
                (u64::from(c.start % n_disks != last % n_disks), c.start.abs_diff(last))
            });
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, victim));
            }
        }
        let (_, victim) = best?;
        let m = steal_from(&mut slots, slot, victim);
        slots[slot].arm(m);
        Some(NextMorsel { morsel: m, stolen_from: Some(victim) })
    }

    /// Revoke `slot` (presumed dead), reclaim its *unclaimed* work — the
    /// in-flight remainder plus every pending morsel — into a fresh
    /// replacement slot, and return the replacement's index.
    ///
    /// Units the owner claimed before the revocation landed stay its
    /// responsibility: a stalled false positive finishes them and reports
    /// them itself, which is exactly what keeps the ledger exactly-once.
    pub fn fail_slot(&self, dead: usize) -> usize {
        let mut slots = lock(&self.inner);
        let mut reclaimed: VecDeque<Morsel> = slots[dead].revoke().into_iter().collect();
        reclaimed.append(&mut slots[dead].pending);
        slots.push(SlotState::fresh(reclaimed));
        slots.len() - 1
    }

    /// Revoke **every** slot and discard all unclaimed work — per-query
    /// cancellation. Each claim word takes the `REVOKED` bit, so a worker
    /// mid-steal (or mid-morsel) loses its next `claim_unit` CAS and drains
    /// at the very next unit boundary; units already claimed before the bit
    /// landed stay the claimant's responsibility and are finished and
    /// reported, exactly as with [`StealPartition::fail_slot`] — the
    /// completion ledger never double-counts or loses a unit, the forfeited
    /// remainder is simply never handed out again.
    pub fn revoke_all(&self) {
        let mut slots = lock(&self.inner);
        for s in slots.iter_mut() {
            s.revoke();
            s.pending.clear();
        }
    }

    /// Adjust to `new_parallelism` active slots. Growing adds empty slots
    /// (they immediately steal); shrinking revokes the highest-numbered
    /// active slots and redistributes their unclaimed work round-robin
    /// over the survivors. Keeps the §2.4 protocols' contract: the
    /// returned `new_slots` need staffing, `retiring_slots` drain at their
    /// next claim.
    pub fn adjust(&self, new_parallelism: u32) -> AdjustInfo {
        let mut slots = lock(&self.inner);
        let want = new_parallelism.max(1) as usize;
        let active: Vec<usize> =
            (0..slots.len()).filter(|&s| !slots[s].revoked).collect();
        let mut info = AdjustInfo { new_slots: Vec::new(), retiring_slots: Vec::new() };
        if active.len() < want {
            for _ in active.len()..want {
                slots.push(SlotState::fresh(VecDeque::new()));
                info.new_slots.push(slots.len() - 1);
            }
            return info;
        }
        if active.len() == want {
            return info;
        }
        let (survivors, retiring) = active.split_at(want);
        let mut orphaned = VecDeque::new();
        for &slot in retiring {
            orphaned.extend(slots[slot].revoke());
            orphaned.append(&mut slots[slot].pending);
            info.retiring_slots.push(slot);
        }
        for (i, m) in orphaned.into_iter().enumerate() {
            slots[survivors[i % survivors.len()]].pending.push_back(m);
        }
        info
    }

    /// Slots not yet revoked (the master re-staffs exited slots that are
    /// still active after an adjustment).
    pub fn active_slots(&self) -> Vec<usize> {
        let slots = lock(&self.inner);
        (0..slots.len()).filter(|&s| !slots[s].revoked).collect()
    }

    /// Active slot count.
    pub fn parallelism(&self) -> u32 {
        self.active_slots().len() as u32
    }

    /// Total slots ever created (including revoked ones).
    pub fn n_slots(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Units sitting in pending morsels (excludes in-flight remainders);
    /// for tests and diagnostics.
    pub fn pending_units(&self) -> u64 {
        lock(&self.inner)
            .iter()
            .flat_map(|s| s.pending.iter())
            .map(Morsel::len)
            .sum()
    }

    /// Claim the next unit of the slot's in-flight morsel and return its
    /// **offset within that morsel**: the unit is `morsel.start + offset`
    /// for the [`NextMorsel`] the slot's last [`StealPartition::next_morsel`]
    /// returned (only that call re-arms the word, so the owner always
    /// knows the base). Lock-free: one CAS on the slot's private word.
    /// `None` means the morsel is exhausted *or* the slot was revoked —
    /// either way the worker goes back to `next_morsel`, which settles the
    /// question under the latch.
    pub fn claim_unit(claim: &AtomicU64) -> Option<u64> {
        claim
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |word| {
                let (offset, len) = unpack(word);
                (word & REVOKED == 0 && offset < len).then_some(word + 1)
            })
            .ok()
            .map(|prev| prev & 0xFFFF_FFFF)
    }
}

/// Pending morsels of `victim` a thief may take: everything once the owner
/// has begun, all but the last before that (the first-morsel guarantee).
fn stealable(slots: &[SlotState], victim: usize) -> usize {
    let len = slots[victim].pending.len();
    if slots[victim].started { len } else { len.saturating_sub(1) }
}

/// The morsel a thief *would* receive from `victim` — the front of the
/// stolen back half — without committing the steal. `None` when nothing is
/// stealable.
fn steal_candidate(slots: &[SlotState], victim: usize) -> Option<Morsel> {
    let n = stealable(slots, victim);
    (n > 0).then(|| slots[victim].pending[slots[victim].pending.len() - n.div_ceil(2)])
}

/// Steal the back half of `victim`'s stealable morsels (round up, so a lone
/// one moves) into `thief`'s deque and hand back the first of them — the
/// morsel [`steal_candidate`] announced, which the caller has checked
/// exists.
fn steal_from(slots: &mut [SlotState], thief: usize, victim: usize) -> Morsel {
    let n = stealable(slots, victim);
    let len = slots[victim].pending.len();
    slots[thief].pending = slots[victim].pending.split_off(len - n.div_ceil(2));
    slots[thief].pending.pop_front().expect("candidate verified")
}

/// The victim visit order for `slot` among `n` slots: every other slot
/// exactly once, rotated by a seed-and-slot-dependent offset so different
/// workers fan out over different victims but any fixed seed replays the
/// same order.
fn victim_order(seed: u64, slot: usize, n: usize) -> impl Iterator<Item = usize> {
    let offset = if n == 0 {
        0
    } else {
        (seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize % n
    };
    (1..=n).map(move |k| (slot + offset + k) % n).filter(move |&v| v != slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Drain every slot round-robin (claim a unit, else take a morsel) and
    /// record the units claimed. No slot may be mid-morsel on entry: the
    /// base of an armed morsel is known only to whoever armed it.
    fn drain(p: &StealPartition) -> Vec<u64> {
        let mut seen = Vec::new();
        let mut claims: Vec<_> = (0..p.n_slots()).map(|s| Some((p.claim_of(s), 0))).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (slot, entry) in claims.iter_mut().enumerate() {
                let Some((claim, base)) = entry else { continue };
                if let Some(offset) = StealPartition::claim_unit(claim) {
                    seen.push(*base + offset);
                    progressed = true;
                } else if let Some(next) = p.next_morsel(slot) {
                    *base = next.morsel.start;
                    progressed = true;
                } else {
                    *entry = None;
                }
            }
        }
        seen
    }

    #[test]
    fn every_unit_claimed_exactly_once() {
        for (total, grain, workers) in [(100u64, 8u64, 4u32), (17, 5, 3), (7, 100, 2), (0, 4, 4)] {
            let p = StealPartition::new(total, grain, workers, 42);
            let mut seen = drain(&p);
            seen.sort_unstable();
            assert_eq!(seen, (0..total).collect::<Vec<_>>(), "({total},{grain},{workers})");
        }
    }

    #[test]
    fn a_fragment_too_small_for_whole_morsels_deals_one_morsel_per_slot() {
        // 111 pages over 8 slots at grain 16: a fixed grain of 111/8 = 13
        // leaves a ninth 7-page morsel on slot 0. Seven 14s and one 13 do not.
        let p = StealPartition::new(111, 16, 8, 5);
        let lens: Vec<u64> =
            (0..8).map(|s| p.next_morsel(s).expect("one morsel each").morsel.len()).collect();
        assert_eq!(lens, vec![14, 14, 14, 14, 14, 14, 14, 13]);
        assert_eq!(p.pending_units(), 0, "no remainder morsel");
        // A whole morsel per slot is dealt at the configured grain as before.
        let p = StealPartition::new(130, 16, 8, 5);
        assert_eq!(p.next_morsel(0).expect("first").morsel.len(), 16);
    }

    #[test]
    fn stealing_reaches_work_dealt_elsewhere() {
        // 8 morsels, 4 per slot. Slot 1 drains its own deque, then must
        // steal from slot 0 to see any more work.
        let p = StealPartition::new(64, 8, 2, 7);
        for _ in 0..4 {
            let own = p.next_morsel(1).expect("own deque first");
            assert_eq!(own.stolen_from, None);
        }
        let next = p.next_morsel(1).expect("slot 1 finds work by stealing");
        assert_eq!(next.stolen_from, Some(0));
    }

    #[test]
    fn unstarted_owner_keeps_its_last_morsel() {
        // Grain clamps to ceil(3/3)=1: one morsel per slot. No thief may
        // take an unstarted owner's only morsel, so slot 0 retires empty-
        // handed while slots 1 and 2 keep their guaranteed first morsel.
        let p = StealPartition::new(3, 100, 3, 11);
        assert_eq!(p.next_morsel(0).expect("own morsel").stolen_from, None);
        assert!(p.next_morsel(0).is_none(), "reserved morsels are not stealable");
        assert_eq!(p.pending_units(), 2);
        // Once an owner starts, its surplus (everything but in-flight) is
        // fair game again.
        assert_eq!(p.next_morsel(1).expect("own morsel").stolen_from, None);
        assert!(p.next_morsel(1).is_none(), "slot 2 never started; its morsel is kept");
        assert_eq!(p.next_morsel(2).expect("own morsel").stolen_from, None);
    }

    #[test]
    fn fail_slot_reclaims_unclaimed_remainder_only() {
        let p = StealPartition::new(32, 8, 1, 0);
        let claim = p.claim_of(0);
        p.next_morsel(0).expect("first morsel");
        // Owner claims 3 of the 8 in-flight units, then is declared dead.
        for want in 0..3 {
            assert_eq!(StealPartition::claim_unit(&claim), Some(want));
        }
        let replacement = p.fail_slot(0);
        // The owner's next claim refuses (revoked).
        assert_eq!(StealPartition::claim_unit(&claim), None);
        assert!(p.next_morsel(0).is_none(), "revoked slot draws no morsel");
        // The replacement — the only slot left to draw — sees exactly the
        // remainder plus the pending tail.
        assert_eq!(p.active_slots(), vec![replacement]);
        let mut seen = drain(&p);
        seen.sort_unstable();
        assert_eq!(seen, (3..32).collect::<Vec<_>>());
    }

    #[test]
    fn revoke_all_stops_every_slot_mid_morsel() {
        let p = StealPartition::new(64, 8, 4, 3);
        // Slot 0 is mid-morsel (2 of 8 units claimed), slot 1 unstarted,
        // slot 2 has stolen from slot 3's deque.
        let claim0 = p.claim_of(0);
        p.next_morsel(0).expect("own morsel");
        assert_eq!(StealPartition::claim_unit(&claim0), Some(0));
        assert_eq!(StealPartition::claim_unit(&claim0), Some(1));
        p.next_morsel(3).expect("start slot 3 so its surplus is stealable");
        p.revoke_all();
        // Every in-flight claim refuses, every deque is empty, and no slot
        // — owner, thief, or fresh — can draw another morsel.
        for slot in 0..p.n_slots() {
            assert_eq!(StealPartition::claim_unit(&p.claim_of(slot)), None, "slot {slot}");
            assert!(p.next_morsel(slot).is_none(), "slot {slot} must draw nothing");
        }
        assert_eq!(p.pending_units(), 0, "unclaimed work is forfeited, not redealt");
        assert!(p.active_slots().is_empty());
    }

    #[test]
    fn double_fail_does_not_duplicate_the_remainder() {
        let p = StealPartition::new(16, 8, 1, 0);
        let claim = p.claim_of(0);
        p.next_morsel(0).expect("morsel");
        assert_eq!(StealPartition::claim_unit(&claim), Some(0));
        let r1 = p.fail_slot(0);
        let r2 = p.fail_slot(0);
        assert_ne!(r1, r2);
        let mut seen = drain(&p);
        seen.sort_unstable();
        assert_eq!(seen, (1..16).collect::<Vec<_>>(), "remainder reclaimed exactly once");
    }

    #[test]
    fn adjust_grows_and_shrinks() {
        let p = StealPartition::new(64, 4, 2, 3);
        let info = p.adjust(4);
        assert_eq!(info.new_slots, vec![2, 3]);
        assert!(info.retiring_slots.is_empty());
        assert_eq!(p.parallelism(), 4);
        let info = p.adjust(1);
        assert_eq!(info.retiring_slots, vec![1, 2, 3]);
        assert_eq!(p.parallelism(), 1);
        // Survivor still drains everything.
        let mut seen = drain(&p);
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn affine_steal_prefers_the_thiefs_disk() {
        // 4 slots, grain 1, 2 disks: the round-robin deal gives slot s the
        // units ≡ s (mod 4), so slots 0 and 2 hold even (disk-0) units and
        // slots 1 and 3 odd ones. Slot 0 drains its own deque (last unit
        // 28, disk 0), then steals. Every victim has stealable work, but
        // only slot 2 can offer a disk-0 unit — the affine score must pick
        // it over nearer off-disk candidates.
        let p = StealPartition::new(32, 1, 4, 123).with_disks(2);
        let claim = p.claim_of(0);
        for _ in 0..8 {
            let nm = p.next_morsel(0).expect("own deque first");
            assert_eq!(nm.stolen_from, None);
            while StealPartition::claim_unit(&claim).is_some() {}
        }
        let stolen = p.next_morsel(0).expect("plenty pending elsewhere");
        assert_eq!(stolen.stolen_from, Some(2), "only slot 2 holds disk-0 units");
        assert_eq!(
            stolen.morsel.start % 2,
            0,
            "thief last read disk 0; affine steal must stay there, got unit {}",
            stolen.morsel.start
        );
    }

    #[test]
    fn affine_steal_takes_the_shortest_seek_when_no_disk_matches() {
        // Same deal, but with 4 disks every victim's units live on its own
        // disk — no candidate can match the thief's disk 0, so the score
        // falls to block distance. Thief's last unit is 28; candidates are
        // slot 1 → 17, slot 2 → 18, slot 3 → 19 (each victim's 5th of 8
        // pending morsels after the back-half split). 19 is nearest.
        let p = StealPartition::new(32, 1, 4, 123).with_disks(4);
        let claim = p.claim_of(0);
        for _ in 0..8 {
            p.next_morsel(0).expect("own deque first");
            while StealPartition::claim_unit(&claim).is_some() {}
        }
        let stolen = p.next_morsel(0).expect("steal must still rescue work");
        assert_eq!(stolen.stolen_from, Some(3));
        assert_eq!(stolen.morsel.start, 19, "nearest stealable unit to 28");
        // And exactly-once still holds: the armed steal, everything still
        // pending, and slot 0's own residue class claimed above.
        assert_eq!(StealPartition::claim_unit(&claim), Some(0));
        let mut seen = drain(&p);
        seen.push(19);
        seen.extend((0..32).step_by(4));
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>(), "no unit lost under affine stealing");
    }

    #[test]
    fn victim_order_is_deterministic_and_complete() {
        for slot in 0..5 {
            let a: Vec<usize> = victim_order(9, slot, 5).collect();
            let b: Vec<usize> = victim_order(9, slot, 5).collect();
            assert_eq!(a, b, "same seed must replay the same order");
            let set: HashSet<usize> = a.iter().copied().collect();
            assert_eq!(set.len(), 4, "every other slot visited once: {a:?}");
            assert!(!set.contains(&slot));
        }
    }
}

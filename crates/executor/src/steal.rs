//! Morsel-driven work stealing (the lock-light successor to the §2.4
//! static shares).
//!
//! The fragment's unit space `[0, total_units)` is cut into fixed-size
//! [`Morsel`]s which are dealt round-robin into per-worker deques — the
//! morsel-granular analogue of the §2.4 residue-class shares, which keeps
//! the deal's per-disk access pattern close to the static path's (a
//! contiguous block deal measurably degrades the striped disks' service
//! classification). A worker takes its next morsel from the front of its
//! own deque; when that runs dry it steals the back half of a victim's
//! *pending* morsels, visiting victims in a seeded deterministic order. Within a claimed morsel the
//! worker claims units one at a time on a **private atomic** — no lock, no
//! shared cursor — so the per-unit hot path costs one uncontended RMW where
//! the static-share path paid one fragment-global mutex round.
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
//! # Exactly-once under revocation
//!
//! All deque traffic (take, steal, [`StealPartition::fail_slot`],
//! [`StealPartition::adjust`]) serializes on one coordinator latch taken
//! once per *morsel*, not per unit — lock-light by amortization. The
//! per-slot claim word packs `(revoked, end, cursor)` into one `AtomicU64`;
//! the owner advances `cursor` with a CAS loop and revocation sets the
//! `REVOKED` bit with `fetch_or` while holding the latch. Because both are
//! RMWs on the same word, the hardware totally orders them: every unit
//! index is observed exactly once, either by the owner (cursor advanced
//! before revocation landed) or by the reclaimer (the remainder
//! `[cursor, end)` read back from the `fetch_or`). A falsely-declared-dead
//! worker — stalled, not dead — therefore finishes the units it already
//! claimed and retires at its next claim; the replacement starts exactly
//! where the revocation cursor stood, and no unit is processed twice or
//! dropped. This is the morsel-granular analogue of the static path's
//! "cursor advances at claim time" argument.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xprs_storage::partition::{morselize, AdjustInfo, Morsel};

use crate::io::lock;

/// Claim-word revocation bit. The low 32 bits hold the cursor, the next 31
/// the in-flight morsel's end, so `total_units` must fit in 31 bits (the
/// master falls back to static shares otherwise).
const REVOKED: u64 = 1 << 63;

/// Largest unit count the packed claim word can address.
pub const MAX_STEAL_UNITS: u64 = 1 << 31;

fn pack(cursor: u64, end: u64) -> u64 {
    debug_assert!(cursor <= end && end < MAX_STEAL_UNITS);
    (end << 32) | cursor
}

fn unpack(word: u64) -> (u64, u64) {
    (word & 0xFFFF_FFFF, (word >> 32) & (MAX_STEAL_UNITS - 1))
}

/// One worker slot's share of the deque layer.
struct SlotState {
    /// Morsels dealt or stolen to this slot but not yet begun. Owned from
    /// the front, stolen from the back.
    pending: VecDeque<Morsel>,
    /// The packed `(revoked, end, cursor)` claim word; shared with the
    /// owning worker's unit fast path.
    claim: Arc<AtomicU64>,
    /// A revoked slot hands out no further morsels (its pending work has
    /// moved elsewhere) and its owner retires at the next claim.
    revoked: bool,
    /// Set once the slot's owner takes its first morsel. Until then thieves
    /// leave the slot its last pending morsel (the first-morsel guarantee).
    started: bool,
    /// Start unit of the last morsel this slot armed; the disk-affinity
    /// steal pass prefers victims whose stealable work begins on the same
    /// disk residue (`unit % n_disks`).
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
}

/// A morsel handed to a worker, with its provenance (for steal counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextMorsel {
    /// The claimed morsel; its units are now claimable on the slot's word.
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
    /// `seed` fixes the victim order for deterministic tests.
    ///
    /// # Panics
    /// Panics if `total_units >= MAX_STEAL_UNITS` (the claim word cannot
    /// address it; callers fall back to static shares first).
    pub fn new(total_units: u64, morsel_units: u64, parallelism: u32, seed: u64) -> Self {
        assert!(total_units < MAX_STEAL_UNITS, "unit space too large for the claim word");
        let n = parallelism.max(1) as usize;
        let share = total_units / n as u64;
        let morsels = if share >= morsel_units.max(1) {
            morselize(total_units, morsel_units)
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
        let mut slots: Vec<SlotState> =
            (0..n).map(|_| SlotState::fresh(VecDeque::new())).collect();
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
    /// abandoned and the invaded disk — the measured ~13% uniform-scan
    /// regression vs the static shares. Affine selection keeps the steal's
    /// rescue property (work still moves to idle workers) while paying the
    /// smallest available seek penalty for it.
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
    /// success the slot's claim word is armed with the morsel's range.
    /// `None` means the slot is revoked or no pending morsel exists
    /// anywhere — the worker retires.
    pub fn next_morsel(&self, slot: usize) -> Option<NextMorsel> {
        let mut slots = lock(&self.inner);
        if slots[slot].revoked {
            return None;
        }
        if let Some(m) = slots[slot].pending.pop_front() {
            slots[slot].started = true;
            slots[slot].last_unit = Some(m.start);
            arm(&slots[slot], m);
            return Some(NextMorsel { morsel: m, stolen_from: None });
        }
        let n = slots.len();
        // Disk-affine selection: score every victim's would-be morsel by
        // (off-thief's-disk?, block distance from the thief's last unit)
        // and take the minimum — stay on the disk the thief was streaming
        // when possible, and jump as short a seek as possible otherwise.
        // Ties resolve to the seeded rotation's first, keeping replay
        // determinism.
        if self.n_disks > 1 {
            if let Some(last) = slots[slot].last_unit {
                let want = last % u64::from(self.n_disks);
                let mut best: Option<((u64, u64), usize)> = None;
                for victim in victim_order(self.seed, slot, n) {
                    let Some(c) = steal_candidate(&slots, victim) else { continue };
                    let off_disk = u64::from(c.start % u64::from(self.n_disks) != want);
                    let key = (off_disk, c.start.abs_diff(last));
                    if best.is_none_or(|(k, _)| key < k) {
                        best = Some((key, victim));
                    }
                }
                if let Some((_, victim)) = best {
                    let m = steal_from(&mut slots, slot, victim).expect("candidate verified");
                    slots[slot].last_unit = Some(m.start);
                    arm(&slots[slot], m);
                    return Some(NextMorsel { morsel: m, stolen_from: Some(victim) });
                }
                return None;
            }
        }
        // Blind fallback — no disk mapping, or the thief never armed a
        // morsel: first victim in the seeded rotation with stealable work.
        for victim in victim_order(self.seed, slot, n) {
            let Some(m) = steal_from(&mut slots, slot, victim) else { continue };
            slots[slot].last_unit = Some(m.start);
            arm(&slots[slot], m);
            return Some(NextMorsel { morsel: m, stolen_from: Some(victim) });
        }
        None
    }

    /// Revoke `slot` (presumed dead), reclaim its *unclaimed* work — the
    /// in-flight remainder `[cursor, end)` plus every pending morsel — into
    /// a fresh replacement slot, and return the replacement's index.
    ///
    /// Units the owner claimed before the revocation landed stay its
    /// responsibility: a stalled false positive finishes them and reports
    /// them itself, which is exactly what keeps the ledger exactly-once.
    pub fn fail_slot(&self, dead: usize) -> usize {
        let mut slots = lock(&self.inner);
        let mut reclaimed = VecDeque::new();
        let already = slots[dead].revoked;
        slots[dead].revoked = true;
        let prev = slots[dead].claim.fetch_or(REVOKED, Ordering::SeqCst);
        if !already && prev & REVOKED == 0 {
            let (cursor, end) = unpack(prev);
            if cursor < end {
                reclaimed.push_back(Morsel { start: cursor, end });
            }
        }
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
            s.revoked = true;
            s.claim.fetch_or(REVOKED, Ordering::SeqCst);
            s.pending.clear();
        }
    }

    /// Adjust to `new_parallelism` active slots. Growing adds empty slots
    /// (they immediately steal); shrinking revokes the highest-numbered
    /// active slots and redistributes their unclaimed work round-robin
    /// over the survivors. Mirrors the §2.4 protocols' contract: the
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
            slots[slot].revoked = true;
            let prev = slots[slot].claim.fetch_or(REVOKED, Ordering::SeqCst);
            if prev & REVOKED == 0 {
                let (cursor, end) = unpack(prev);
                if cursor < end {
                    orphaned.push_back(Morsel { start: cursor, end });
                }
            }
            let mut pending = std::mem::take(&mut slots[slot].pending);
            orphaned.append(&mut pending);
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

    /// Claim the next unit of the slot's in-flight morsel. Lock-free: one
    /// CAS on the slot's private word. `None` means the morsel is
    /// exhausted *or* the slot was revoked — either way the worker goes
    /// back to [`StealPartition::next_morsel`], which settles the question
    /// under the latch.
    pub fn claim_unit(claim: &AtomicU64) -> Option<u64> {
        claim
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |word| {
                if word & REVOKED != 0 {
                    return None;
                }
                let (cursor, end) = unpack(word);
                (cursor < end).then(|| pack(cursor + 1, end))
            })
            .ok()
            .map(|prev| prev & 0xFFFF_FFFF)
    }
}

/// Arm the slot's claim word for a freshly taken morsel. Caller holds the
/// latch and has checked `revoked == false`, and revocation only happens
/// under the same latch, so a plain store cannot clobber a REVOKED bit.
fn arm(slot: &SlotState, m: Morsel) {
    slot.claim.store(pack(m.start, m.end), Ordering::SeqCst);
}

/// The morsel a thief *would* receive from `victim` — the front of the
/// stolen back half — without committing the steal. `None` when nothing is
/// stealable (empty, or an unstarted owner's guaranteed first morsel).
fn steal_candidate(slots: &[SlotState], victim: usize) -> Option<Morsel> {
    let len = slots[victim].pending.len();
    let stealable = if slots[victim].started { len } else { len.saturating_sub(1) };
    if stealable == 0 {
        return None;
    }
    Some(slots[victim].pending[len - stealable.div_ceil(2)])
}

/// Steal the back half of `victim`'s pending morsels (round up, so a lone
/// stealable morsel moves) into `thief`'s deque and hand back the first of
/// them. A victim that hasn't begun keeps its last pending morsel (the
/// first-morsel guarantee); otherwise everything pending is fair game.
fn steal_from(slots: &mut [SlotState], thief: usize, victim: usize) -> Option<Morsel> {
    let len = slots[victim].pending.len();
    let stealable = if slots[victim].started { len } else { len.saturating_sub(1) };
    if stealable == 0 {
        return None;
    }
    let tail = slots[victim].pending.split_off(len - stealable.div_ceil(2));
    slots[thief].pending = tail;
    let m = slots[thief].pending.pop_front().expect("stole at least one");
    slots[thief].started = true;
    Some(m)
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
    /// record who processed what.
    fn drain(p: &StealPartition) -> Vec<u64> {
        let mut seen = Vec::new();
        let mut claims: Vec<_> = (0..p.n_slots()).map(|s| Some(p.claim_of(s))).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (slot, entry) in claims.iter_mut().enumerate() {
                let Some(claim) = entry else { continue };
                if let Some(u) = StealPartition::claim_unit(claim) {
                    seen.push(u);
                    progressed = true;
                } else if p.next_morsel(slot).is_some() {
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
        // The replacement sees exactly the remainder plus the pending tail.
        let p2 = replacement;
        let mut seen = Vec::new();
        let claim2 = p.claim_of(p2);
        loop {
            if let Some(u) = StealPartition::claim_unit(&claim2) {
                seen.push(u);
            } else if p.next_morsel(p2).is_none() {
                break;
            }
        }
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
        let mut seen = Vec::new();
        for slot in [r1, r2] {
            let c = p.claim_of(slot);
            loop {
                if let Some(u) = StealPartition::claim_unit(&c) {
                    seen.push(u);
                } else if p.next_morsel(slot).is_none() {
                    break;
                }
            }
        }
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
        // And exactly-once still holds: drain claims the armed steal and
        // everything pending; slot 0's own residue class was claimed above.
        let mut seen = drain(&p);
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

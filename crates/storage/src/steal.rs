//! Morsel-driven work stealing: the one way a fragment's work units reach
//! its backends, the executor's threads and the simulator's alike
//! (re-exported as [`crate::partition::StealPartition`]).
//!
//! The fragment's unit space `[0, total_units)` is cut into [`Morsel`]s
//! which are dealt round-robin, in unit order, into per-worker deques — the
//! morsel-granular analogue of the §2.4 residue-class shares. Every backend
//! therefore reads at one *read front*: at any moment the backends hold
//! neighbouring morsels, so each disk of a striped relation sees requests
//! that land within a few blocks of each other (a contiguous block deal
//! measurably degrades the striped disks' service classification). A worker
//! takes its next morsel from the front of its own deque (on a disk-mapped
//! scan, of the started deques, below); when that runs dry it steals the
//! back half of a victim's *pending* morsels, visiting victims in a seeded
//! deterministic order. Within a claimed morsel the worker
//! claims units one at a time on a **private atomic** — no lock, no shared
//! cursor — so the per-unit hot path costs one uncontended RMW.
//!
//! # One read front
//!
//! A page scan over striped disks ([`StealPartition::with_disks`]) deals
//! one page per morsel, so the backends together hold one page each at the
//! front and an armed remainder is never longer than a page: every backend
//! keeps reading until no page is left, as in the §2.4 page protocols. A
//! disk-mapped slot takes the lowest morsel at the head of its own or any
//! started slot's deque, so pages leave the deal in unit order and a
//! backend that ran late rejoins the front instead of trailing it
//! ([`StealPartition::next_morsel`]). A plain partition takes from its own
//! deque first. [`StealPartition::adjust`] keeps the front across a resize
//! — the morsel analogue of the §2.4 max-page protocol, which
//! re-partitions a resized scan's remaining pages from one frontier: on
//! grow and on shrink it gathers every active slot's pending morsels (and a
//! retiring slot's remainder) and deals them again in unit order,
//! round-robin over the active slots. Armed morsels and claim words are
//! untouched. Key-space and sliced fragments have no unit→disk mapping:
//! they keep `morsel_units`, which amortizes the latch over a morsel.
//!
//! Two rules keep the initial deal meaningful: a fragment with at least
//! `parallelism` units deals at least one morsel to every slot (one
//! near-equal morsel each when it is too small for whole ones), and a thief
//! never takes the *last* pending morsel of a slot that has not begun
//! working. Together they guarantee every staffed slot
//! processes at least one unit of a large-enough fragment, so first-touch
//! stays local. A per-slot fault-injection point (`kill slot s after k
//! units`) needs more than one page of a one-page deal, so the slot keeps
//! its deal until it is past the point ([`StealPartition::reserve`]) and
//! the fault stays deterministic under stealing. Stealing itself is the
//! rescue path: it moves work to a backend whose own deque ran dry, at the
//! end of a scan or after a death, not the way a resized scan is staffed.
//!
//! # Any unit count
//!
//! The deal is bounded: at most [`MAX_DEAL_MORSELS`] morsels are ever
//! materialized, the grain growing past `morsel_units` (or past one page)
//! for fragments too large to be cut that finely; an adjustment re-deals
//! the morsels it gathers without cutting them. The claim word addresses
//! the *armed morsel*, not the fragment — it packs `(revoked, len,
//! offset)` relative to the morsel's start — so a key domain spanning the
//! whole `i32` space (2³² units) is served like any other fragment.
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
//! start, which the slot records under the same latch). A worker an
//! adjustment retires therefore finishes the units it already claimed and
//! retires at its next claim; a replacement starts exactly where the
//! revocation cursor stood, and no unit is processed twice or dropped.
//!
//! # The claim word is the slot's account
//!
//! A slot shares no other atomic with its worker. Its claims are the
//! fragment's progress ([`StealPartition::claimed`]) and, once the last
//! worker is out, the fragment's completion. How a worker left — done or
//! dead — is its pool job's report, never read off the claims.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::lock;
use crate::partition::{morselize, AdjustInfo, Morsel};

/// Claim-word revocation bit. The low 32 bits hold the offset of the next
/// unclaimed unit within the armed morsel, the next 31 the morsel's length.
const REVOKED: u64 = 1 << 63;

/// Longest morsel the claim word's 31-bit length field can hold.
const MAX_MORSEL_UNITS: u64 = (1 << 31) - 1;

/// Most morsels a deal materializes (16 MB of [`Morsel`]s). A fragment of
/// more than `MAX_DEAL_MORSELS · morsel_units` units is cut at the coarser
/// grain `ceil(total / MAX_DEAL_MORSELS)` instead: at the default grain of
/// 16 that is every fragment past 2²⁴ units, and a disk-mapped scan's
/// single pages past 2²⁰, so no deal below those changes.
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

/// One worker slot's share of the deque layer, and its whole account.
struct SlotState {
    /// Morsels dealt or stolen to this slot but not yet begun. Owned from
    /// the front, stolen from the back.
    pending: VecDeque<Morsel>,
    /// The packed `(revoked, len, offset)` claim word: the one atomic the
    /// slot shares with its owning worker (the per-unit fast path).
    claim: Arc<AtomicU64>,
    /// A revoked slot hands out no further morsels (its pending work has
    /// moved elsewhere) and its owner retires at the next claim.
    revoked: bool,
    /// Set once the slot's owner takes its first morsel. Until then thieves
    /// leave the slot its last pending morsel (the first-morsel guarantee).
    started: bool,
    /// The owner's last take found no work.
    idle: bool,
    /// Units of the slot's deal nobody else may take until the slot has
    /// claimed that many ([`StealPartition::reserve`]).
    keep: u64,
    /// Start unit of the last morsel this slot armed: the base the claim
    /// word's offsets are relative to, and the base a revocation makes its
    /// remainder absolute with.
    last_unit: Option<u64>,
    /// Units claimed from the morsels armed before the current one; the
    /// claim word's offset counts the current one's.
    claimed: u64,
    /// The owner exited voluntarily; a dead worker never sets it.
    exited: bool,
    /// [`StealPartition::fail_slot`] replaced the owner.
    failed: bool,
}

impl SlotState {
    fn fresh(pending: VecDeque<Morsel>) -> Self {
        SlotState {
            pending,
            claim: Arc::new(AtomicU64::new(0)),
            revoked: false,
            started: false,
            idle: false,
            keep: 0,
            last_unit: None,
            claimed: 0,
            exited: false,
            failed: false,
        }
    }

    /// Units this slot has claimed over its life.
    fn progress(&self) -> u64 {
        self.claimed + unpack(self.claim.load(Ordering::SeqCst)).0
    }

    /// Whether the slot's deque is still its own alone
    /// ([`StealPartition::reserve`]).
    fn reserved(&self) -> bool {
        self.keep > 0 && self.progress() < self.keep
    }

    /// Whether the slot still holds unclaimed work: a pending morsel, or an
    /// armed one that is neither exhausted nor taken by a revocation.
    fn holds_work(&self) -> bool {
        let word = self.claim.load(Ordering::SeqCst);
        let (offset, len) = unpack(word);
        !self.pending.is_empty() || (word & REVOKED == 0 && offset < len)
    }

    /// Arm the claim word for a freshly taken morsel, folding the last
    /// morsel's claims into `claimed`. Caller holds the latch and has
    /// checked `revoked == false`, and revocation only happens under the
    /// same latch, so the swap cannot clobber a REVOKED bit.
    fn arm(&mut self, m: Morsel) {
        self.started = true;
        self.idle = false;
        self.last_unit = Some(m.start);
        let prev = self.claim.swap(pack(0, m.len()), Ordering::SeqCst);
        self.claimed += unpack(prev).0;
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
    /// Victim slot the morsel was stolen from (`None` = taken from the
    /// read front: the own deque's head, or on a disk-mapped scan the
    /// lowest head of a started slot).
    pub stolen_from: Option<usize>,
}

/// Work-stealing morsel partition for one fragment.
pub struct StealPartition {
    inner: Mutex<Vec<SlotState>>,
    seed: u64,
    /// The grain a deal cuts at when nothing forces it coarser or finer.
    morsel_units: u64,
    /// The units are pages striped over disks ([`StealPartition::with_disks`]).
    disk_mapped: bool,
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
        let mut part = StealPartition {
            inner: Mutex::new(Vec::new()),
            seed,
            morsel_units,
            disk_mapped: false,
        };
        part.deal(total_units, n);
        part
    }

    /// Map the unit space onto a striped array of `n_disks` disks — a
    /// page-scan fragment, one unit per block — and re-deal the fresh
    /// partition one page per morsel, so the backends read one front.
    /// [`StealPartition::next_morsel`] hands the pages out in unit order
    /// across the started slots' deques.
    pub fn with_disks(mut self, n_disks: u32) -> Self {
        self.disk_mapped = n_disks > 0;
        let slots = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        let total = slots.iter().flat_map(|s| &s.pending).map(Morsel::len).sum();
        let n = slots.len();
        self.deal(total, n);
        self
    }

    /// Replace the slots with `n` fresh ones dealt `[0, total_units)`: one
    /// page per morsel on a disk-mapped unit space, `morsel_units` per
    /// morsel otherwise, and coarser when that would take more than
    /// [`MAX_DEAL_MORSELS`] morsels.
    fn deal(&mut self, total_units: u64, n: usize) {
        let grain = if self.disk_mapped { 1 } else { self.morsel_units };
        let grain = grain.max(total_units.div_ceil(MAX_DEAL_MORSELS)).clamp(1, MAX_MORSEL_UNITS);
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
        *self.inner.get_mut().unwrap_or_else(PoisonError::into_inner) = slots;
    }

    /// Keep `slot`'s deque from other slots until the slot has claimed
    /// `units` units: a fault aimed at "slot s after k units" then fires on
    /// every interleaving, however late the slot's owner runs, where a
    /// one-page deal would otherwise let faster slots take all but a page of
    /// its share.
    pub fn reserve(&self, slot: usize, units: u64) {
        lock(&self.inner)[slot].keep = units;
    }

    /// The claim word `slot`'s owner uses for its per-unit fast path.
    pub fn claim_of(&self, slot: usize) -> Arc<AtomicU64> {
        lock(&self.inner)[slot].claim.clone()
    }

    /// `slot`'s owner leaves: mark the slot exited, so the next adjustment
    /// that deals it work hands it back to be staffed. `false`, marking
    /// nothing, when an adjustment has dealt the slot work since its owner's
    /// last take found none: no hand-back comes for a slot that has not
    /// exited, so its owner must run on.
    pub fn exit(&self, slot: usize) -> bool {
        let s = &mut lock(&self.inner)[slot];
        s.exited = !s.idle || s.pending.is_empty();
        s.exited
    }

    /// Units claimed across every slot, revoked ones included. Every
    /// claimed unit is finished by its claimant before that worker exits,
    /// so once a fragment's last worker is out this is its finished count.
    pub fn claimed(&self) -> u64 {
        lock(&self.inner).iter().map(SlotState::progress).sum()
    }

    /// Slots [`StealPartition::fail_slot`] replaced.
    pub fn recoveries(&self) -> u64 {
        lock(&self.inner).iter().filter(|s| s.failed).count() as u64
    }

    /// Slots that never claimed a unit.
    pub fn idle_slots(&self) -> u64 {
        lock(&self.inner).iter().filter(|s| s.progress() == 0).count() as u64
    }

    /// Begin the slot's next morsel: take it from the read front — the
    /// own deque's head, or on a disk-mapped scan the lowest head among the
    /// own deque and every started slot's — then steal the back half of
    /// the first victim (in seeded order) with pending work. On success the
    /// slot's claim word is armed with the morsel's length. `None` means
    /// the slot is revoked or no pending morsel exists anywhere — the
    /// worker retires.
    ///
    /// A disk-mapped scan's slots take the lowest head because a slot's
    /// later morsels are fixed in its deque: a backend that falls behind —
    /// a paced thread woken late on a busy host — would otherwise read
    /// behind the others for the rest of the scan, out of the disks'
    /// window. Its next morsels go to whoever is free when they come due,
    /// and once it is back it rejoins the front. Unstarted slots' queues
    /// are left alone (the first-morsel guarantee).
    pub fn next_morsel(&self, slot: usize) -> Option<NextMorsel> {
        let mut slots = lock(&self.inner);
        if slots[slot].revoked {
            return None;
        }
        let front = (0..slots.len())
            .filter(|&s| {
                s == slot || (self.disk_mapped && slots[s].started && !slots[s].reserved())
            })
            .filter_map(|s| Some((slots[s].pending.front()?.start, s)))
            .min();
        if let Some((_, owner)) = front {
            let m = slots[owner].pending.pop_front()?;
            slots[slot].arm(m);
            return Some(NextMorsel { morsel: m, stolen_from: None });
        }
        // Nothing at the front: steal from the first victim in the seeded
        // rotation with stealable work. On a disk-mapped scan every started
        // slot's head was a front candidate above, so the victim is a slot
        // that has not begun and the steal takes its surplus.
        let Some(victim) =
            victim_order(self.seed, slot, slots.len()).find(|&v| stealable(&slots, v) > 0)
        else {
            slots[slot].idle = true;
            return None;
        };
        let m = steal_from(&mut slots, slot, victim);
        slots[slot].arm(m);
        Some(NextMorsel { morsel: m, stolen_from: Some(victim) })
    }

    /// The owner of `dead` is gone: revoke the slot, reclaim its
    /// *unclaimed* work — the in-flight remainder plus every pending morsel
    /// — into a fresh replacement slot, count one recovery, and return the
    /// replacement's index, to be staffed.
    ///
    /// `None`, counting nothing, when there is nothing to replace: the slot
    /// was already revoked (an adjustment retired it, or a cancel revoked
    /// every slot, and its work has gone elsewhere), or no slot holds an
    /// unclaimed unit. A worker dies only at a claim boundary, having
    /// finished every unit it claimed, so no unit is lost or run twice.
    pub fn fail_slot(&self, dead: usize) -> Option<usize> {
        let mut slots = lock(&self.inner);
        if slots[dead].revoked || !slots.iter().any(SlotState::holds_work) {
            return None;
        }
        slots[dead].failed = true;
        let mut reclaimed: VecDeque<Morsel> = slots[dead].revoke().into_iter().collect();
        reclaimed.append(&mut slots[dead].pending);
        slots.push(SlotState::fresh(reclaimed));
        Some(slots.len() - 1)
    }

    /// Revoke **every** slot and discard all unclaimed work — per-query
    /// cancellation. Each claim word takes the `REVOKED` bit, so a worker
    /// mid-steal (or mid-morsel) loses its next `claim_unit` CAS and drains
    /// at the very next unit boundary; units already claimed before the bit
    /// landed stay the claimant's responsibility and are finished, exactly
    /// as with [`StealPartition::fail_slot`] — no unit is counted twice or
    /// lost, the forfeited remainder is simply never handed out again.
    pub fn revoke_all(&self) {
        let mut slots = lock(&self.inner);
        for s in slots.iter_mut() {
            s.revoke();
            s.pending.clear();
        }
    }

    /// Adjust to `new_parallelism` active slots: grow by adding fresh
    /// slots, shrink by revoking the highest-numbered active ones. Either
    /// way the read front is re-dealt: every pending morsel — the active
    /// slots' and the retiring slots', with their armed remainders — is
    /// gathered and dealt in unit order, round-robin over the active slots.
    /// A grown scan's new slots so start on the lowest pending units beside
    /// the running ones instead of stealing the tail of a victim's deque.
    /// Armed morsels and claim words of the surviving slots are untouched.
    ///
    /// Keeps the §2.4 protocols' contract: the returned `new_slots` need
    /// backends, `retiring_slots` drain at their next claim. `new_slots`
    /// also lists every exited slot that stays active: the new deal may
    /// hand it work, so it is re-staffed. Once every unit is claimed
    /// nothing changes: a slot staffed then would find no work, and its job
    /// could start after the fragment's completion was recorded.
    pub fn adjust(&self, new_parallelism: u32) -> AdjustInfo {
        let mut slots = lock(&self.inner);
        let mut info = AdjustInfo { new_slots: Vec::new(), retiring_slots: Vec::new() };
        if !slots.iter().any(SlotState::holds_work) {
            return info;
        }
        let want = new_parallelism.max(1) as usize;
        let active: Vec<usize> =
            (0..slots.len()).filter(|&s| !slots[s].revoked).collect();
        if active.len() != want {
            let mut pending = Vec::new();
            for &slot in active.iter().skip(want) {
                pending.extend(slots[slot].revoke());
                info.retiring_slots.push(slot);
            }
            for _ in active.len()..want {
                slots.push(SlotState::fresh(VecDeque::new()));
                info.new_slots.push(slots.len() - 1);
            }
            for s in slots.iter_mut() {
                pending.extend(s.pending.drain(..));
            }
            pending.sort_unstable_by_key(|m| m.start);
            let survivors: Vec<usize> =
                (0..slots.len()).filter(|&s| !slots[s].revoked).collect();
            for (i, m) in pending.into_iter().enumerate() {
                slots[survivors[i % survivors.len()]].pending.push_back(m);
            }
        }
        for (slot, s) in slots.iter_mut().enumerate() {
            if s.exited && !s.revoked {
                s.exited = false;
                info.new_slots.push(slot);
            }
        }
        info
    }

    /// Slots not yet revoked.
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

    /// The morsels dealt or stolen to `slot` and not yet begun, in deque
    /// order; for traces and tests.
    pub fn pending(&self, slot: usize) -> Vec<Morsel> {
        lock(&self.inner)[slot].pending.iter().copied().collect()
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
    #[inline]
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

/// Pending morsels of `victim` a thief may take: none while its deque is
/// reserved, everything once the owner has begun, all but the last before
/// that (the first-morsel guarantee).
fn stealable(slots: &[SlotState], victim: usize) -> usize {
    let len = slots[victim].pending.len();
    if slots[victim].reserved() {
        0
    } else if slots[victim].started {
        len
    } else {
        len.saturating_sub(1)
    }
}

/// Steal the back half of `victim`'s stealable morsels (round up, so a lone
/// one moves) into `thief`'s deque and hand back the first of them. The
/// caller has checked that `victim` has stealable work.
fn steal_from(slots: &mut [SlotState], thief: usize, victim: usize) -> Morsel {
    let n = stealable(slots, victim);
    let len = slots[victim].pending.len();
    slots[thief].pending = slots[victim].pending.split_off(len - n.div_ceil(2));
    slots[thief].pending.pop_front().expect("victim verified stealable")
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
        let mut walk = Walk::default();
        walk.run(p, usize::MAX);
        walk.seen
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
        // Owner claims 3 of the 8 in-flight units, then dies.
        for want in 0..3 {
            assert_eq!(StealPartition::claim_unit(&claim), Some(want));
        }
        let replacement = p.fail_slot(0).expect("unclaimed work to hand over");
        // The owner's next claim refuses (revoked).
        assert_eq!(StealPartition::claim_unit(&claim), None);
        assert!(p.next_morsel(0).is_none(), "revoked slot draws no morsel");
        // The replacement — the only slot left to draw — sees exactly the
        // remainder plus the pending tail.
        assert_eq!(p.active_slots(), vec![replacement]);
        let mut seen = drain(&p);
        seen.sort_unstable();
        assert_eq!(seen, (3..32).collect::<Vec<_>>());
        // The dead slot's three claims count, across morsels and revocation.
        assert_eq!((p.claimed(), p.recoveries()), (32, 1));
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
        assert_eq!(p.fail_slot(0), Some(1));
        assert_eq!(p.fail_slot(0), None, "a revoked slot is not replaced twice");
        assert_eq!(p.recoveries(), 1);
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
    fn adjust_hands_back_the_slots_that_exited_and_stay_active() {
        let p = StealPartition::new(64, 4, 3, 3);
        p.exit(0);
        p.exit(2);
        // Shrinking to two retires slot 2; only slot 0 is handed back.
        let info = p.adjust(2);
        assert_eq!((info.new_slots, info.retiring_slots), (vec![0], vec![2]));
        assert!(p.adjust(2).new_slots.is_empty(), "a handed-back slot is live again");
        // Slot 0's owner is lost: it, not the retired slot 2, is replaced
        // by slot 3.
        p.exit(1);
        assert_eq!(p.fail_slot(2), None, "a retired slot is not replaced");
        assert_eq!(p.fail_slot(0), Some(3));
        // Growing hands back the fresh slot first, then the exited one.
        assert_eq!(p.adjust(3).new_slots, vec![4, 1]);
    }

    /// A slot an adjustment retired is still finishing the unit it last
    /// claimed, and its work has moved to the survivors: losing its owner
    /// replaces nothing, or the "replacement" would run the fragment one
    /// backend above the policy's `x`. Once every unit is claimed no loss
    /// replaces anything either: a replacement would find no work.
    #[test]
    fn fail_slot_replaces_neither_a_retired_slot_nor_a_fully_claimed_one() {
        let p = StealPartition::new(64, 4, 2, 0);
        let claims: Vec<_> = (0..2).map(|s| p.claim_of(s)).collect();
        for slot in 0..2 {
            p.next_morsel(slot).expect("a morsel each");
        }
        assert_eq!(StealPartition::claim_unit(&claims[1]), Some(0));
        assert_eq!(p.adjust(1).retiring_slots, vec![1]);
        assert_eq!(p.fail_slot(1), None);
        assert_eq!((p.n_slots(), p.recoveries()), (2, 0));

        let p = StealPartition::new(64, 4, 2, 0);
        drain(&p);
        assert_eq!(p.fail_slot(0), None);
        assert_eq!((p.n_slots(), p.recoveries()), (2, 0));
    }

    #[test]
    fn adjust_staffs_nothing_once_every_unit_is_claimed() {
        let p = StealPartition::new(64, 4, 2, 3);
        drain(&p);
        p.exit(0);
        let info = p.adjust(4);
        assert!(info.new_slots.is_empty() && info.retiring_slots.is_empty(), "{info:?}");
        assert_eq!((p.n_slots(), p.claimed()), (2, 64));
    }

    /// A slot whose owner found no work is dealt some by a resize before it
    /// is marked exited: the resize hands back only exited slots, so `exit`
    /// refuses and the owner runs on, or the work would be stranded.
    #[test]
    fn a_slot_dealt_work_after_its_last_empty_take_does_not_exit() {
        let p = StealPartition::new(48, 4, 3, 0);
        // Slots 0 and 1 drain all they may; unstarted slot 2 keeps one morsel.
        for slot in [0, 1] {
            let claim = p.claim_of(slot);
            while p.next_morsel(slot).is_some() {
                while StealPartition::claim_unit(&claim).is_some() {}
            }
        }
        assert_eq!(p.pending(2).len(), 1);
        // Shrinking retires slot 2 and re-deals its morsel to slot 0, which
        // has not exited, so nothing is handed back.
        let info = p.adjust(2);
        assert_eq!((info.new_slots, info.retiring_slots), (vec![], vec![2]));
        assert!(!p.exit(0), "slot 0 holds work");
        assert!(p.exit(1));
        assert!(p.next_morsel(0).is_some());
    }

    /// A slot a fault is aimed at keeps its deal from faster slots until it
    /// has claimed the reserved units; then its queue is the front again.
    #[test]
    fn a_reserved_slot_keeps_its_deal_until_it_has_claimed_it() {
        let p = StealPartition::new(32, 16, 4, 1).with_disks(4);
        p.reserve(0, 3);
        let c0 = p.claim_of(0);
        p.next_morsel(0).expect("first page");
        assert_eq!(StealPartition::claim_unit(&c0), Some(0));
        for slot in 1..4 {
            let claim = p.claim_of(slot);
            while p.next_morsel(slot).is_some() {
                while StealPartition::claim_unit(&claim).is_some() {}
            }
        }
        assert_eq!(p.pending(0).len(), 7, "slot 0's pages wait for it");
        for _ in 0..2 {
            p.next_morsel(0).expect("own page");
            assert_eq!(StealPartition::claim_unit(&c0), Some(0));
        }
        assert!(p.next_morsel(1).is_some(), "past its reserve, slot 0's queue is the front");
    }

    /// Every slot's claim word and the base of the morsel it last armed,
    /// walked the way workers run them — across adjustments, which add
    /// slots and hand exited ones back.
    #[derive(Default)]
    struct Walk {
        owners: Vec<(Arc<AtomicU64>, u64)>,
        seen: Vec<u64>,
        steals: u64,
        /// The longest morsel any slot was handed.
        longest: u64,
    }

    impl Walk {
        /// Up to `rounds` rounds of claim-a-unit-else-take-a-morsel on every
        /// slot; stops early once no slot can progress.
        fn run(&mut self, p: &StealPartition, rounds: usize) {
            for _ in 0..rounds {
                while self.owners.len() < p.n_slots() {
                    self.owners.push((p.claim_of(self.owners.len()), 0));
                }
                let mut progressed = false;
                for (slot, (claim, base)) in self.owners.iter_mut().enumerate() {
                    if let Some(offset) = StealPartition::claim_unit(claim) {
                        self.seen.push(*base + offset);
                        progressed = true;
                    } else if let Some(next) = p.next_morsel(slot) {
                        *base = next.morsel.start;
                        self.longest = self.longest.max(next.morsel.len());
                        self.steals += u64::from(next.stolen_from.is_some());
                        progressed = true;
                    }
                }
                if !progressed {
                    return;
                }
            }
        }
    }

    #[test]
    fn a_grown_scan_deals_its_lowest_pending_morsels_to_the_deque_heads() {
        // One slot has armed three of sixteen 16-unit morsels; growing to
        // six re-deals the thirteen pending ones in unit order, so the six
        // deque heads are the six lowest, in slot order — nobody starts by
        // stealing.
        let p = StealPartition::new(256, 16, 1, 9);
        let mut walk = Walk::default();
        walk.run(&p, 40);
        let info = p.adjust(6);
        assert_eq!(info.new_slots, vec![1, 2, 3, 4, 5]);
        let heads: Vec<u64> = (0..6).map(|s| p.pending(s)[0].start).collect();
        assert_eq!(heads, vec![48, 64, 80, 96, 112, 128]);
        for slot in 0..6 {
            let starts: Vec<u64> = p.pending(slot).iter().map(|m| m.start).collect();
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "slot {slot}: {starts:?}");
        }
        for slot in 1..6 {
            assert_eq!(p.next_morsel(slot).map(|n| n.stolen_from), Some(None), "slot {slot}");
        }
    }

    #[test]
    fn a_late_slot_on_a_disk_mapped_scan_rejoins_the_front() {
        // Four disks, four slots: one page per morsel, slot s dealt every
        // fourth page. Slot 0 stalls in its first page while the others go
        // on; its queued pages go to whoever asks when they are the lowest,
        // so every page is handed out in unit order, and slot 0 comes back
        // to the front, not to its own queue's stale head.
        let p = StealPartition::new(256, 16, 4, 1).with_disks(4);
        let mut handed: Vec<u64> =
            (0..4).map(|s| p.next_morsel(s).expect("first").morsel.start).collect();
        assert_eq!(handed, vec![0, 1, 2, 3]);
        for slot in [1, 2, 3].into_iter().cycle().take(12) {
            let next = p.next_morsel(slot).expect("work left");
            assert_eq!(next.stolen_from, None, "a front take is not a rescue steal");
            handed.push(next.morsel.start);
        }
        let back = p.next_morsel(0).expect("work left").morsel.start;
        handed.push(back);
        assert!(handed.windows(2).all(|w| w[0] < w[1]), "{handed:?}");
        assert_eq!(back, 16, "the late slot takes the front's next page");
        // A plain partition keeps its own queue order: slot 2 takes its own
        // 48, not slot 0's lower 32.
        let p = StealPartition::new(256, 8, 4, 1);
        for slot in 0..4 {
            p.next_morsel(slot).expect("own morsel");
        }
        assert_eq!(p.next_morsel(2).expect("own morsel").morsel.start, 48);
    }

    #[test]
    fn a_shrunk_scan_leaves_every_survivor_ascending() {
        // Four started slots; shrinking to two hands the retiring slots'
        // remainders and queues to the survivors in unit order, not at the
        // back of their queues.
        let p = StealPartition::new(256, 8, 4, 2);
        let mut walk = Walk::default();
        walk.run(&p, 6);
        let info = p.adjust(2);
        assert_eq!(info.retiring_slots, vec![2, 3]);
        for slot in 0..2 {
            let starts: Vec<u64> = p.pending(slot).iter().map(|m| m.start).collect();
            assert!(starts.windows(2).all(|w| w[0] < w[1]), "slot {slot}: {starts:?}");
        }
        walk.run(&p, usize::MAX);
        walk.seen.sort_unstable();
        assert_eq!(walk.seen, (0..256).collect::<Vec<_>>());
    }

    /// The widest morsel pending on any of the first `slots` slots.
    fn widest(p: &StealPartition, slots: usize) -> u64 {
        (0..slots).flat_map(|s| p.pending(s)).map(|m| m.len()).max().unwrap_or(0)
    }

    #[test]
    fn a_disk_mapped_deal_keeps_one_read_front_at_every_width_and_resize() {
        let window = xprs_disk::DiskParams::paper_default().reorder_window;
        for disks in [1u32, 2, 4, 8] {
            for backends in 1u32..=16 {
                let p = StealPartition::new(2_000, 16, backends, 3).with_disks(disks);
                let grain = widest(&p, backends as usize);
                assert_eq!(grain, 1, "{backends} backends over {disks}");
                let front = u64::from(disks) * window;
                assert!(u64::from(backends) * grain <= front, "{backends} × {grain} over {disks}");
                // Mid-scan resizes re-deal the same pages.
                Walk::default().run(&p, 30);
                for resize in [backends + 5, 1, backends.max(2) * 2] {
                    p.adjust(resize);
                    let grain = widest(&p, p.n_slots());
                    assert_eq!(grain, 1, "after a resize to {resize}");
                    // More slots than the window has blocks: one page each.
                    let bound = front.max(u64::from(resize));
                    assert!(u64::from(resize) * grain <= bound, "{resize} × {grain} over {disks}");
                }
            }
        }
    }

    /// Every morsel a disk-mapped scan hands out is one page, whatever the
    /// staffing, across a grow, a shrink and a death, so no backend's armed
    /// remainder outlasts the page it is reading.
    #[test]
    fn a_disk_mapped_deal_is_one_page_per_morsel_through_resizes_and_a_death() {
        for slots in 1u32..=16 {
            let p = StealPartition::new(500, 16, slots, u64::from(slots)).with_disks(4);
            let mut walk = Walk::default();
            walk.run(&p, 20);
            p.adjust(slots + 3);
            walk.run(&p, 20);
            p.adjust(slots.div_ceil(2));
            walk.run(&p, 20);
            assert!(p.fail_slot(p.active_slots()[0]).is_some(), "{slots}: work left to hand on");
            assert_eq!(widest(&p, p.n_slots()), 1, "{slots}: pending after the death");
            walk.run(&p, usize::MAX);
            assert_eq!(walk.longest, 1, "{slots} slots");
            walk.seen.sort_unstable();
            assert_eq!(walk.seen, (0..500).collect::<Vec<_>>(), "{slots} slots");
        }
    }

    /// Sliced page scans and key spaces have no unit→disk mapping: they
    /// keep the configured grain, which amortizes the latch over a morsel
    /// and keeps a lookup's slices together, at every width and resize.
    #[test]
    fn a_partition_without_disks_deals_whole_morsels_at_every_width() {
        for slots in 1u32..=16 {
            let p = StealPartition::new(2_000, 16, slots, 3);
            assert_eq!(widest(&p, slots as usize), 16, "{slots} slots");
            let mut walk = Walk::default();
            walk.run(&p, 10);
            p.adjust(slots + 5);
            assert_eq!(widest(&p, p.n_slots()), 16, "{slots} slots grown");
            walk.run(&p, usize::MAX);
            assert_eq!(walk.longest, 16, "{slots} slots");
        }
    }

    /// A latch round per page: draining a disk-mapped scan of `P` pages
    /// over `x` slots takes exactly `P + x` calls of `next_morsel` — one per
    /// page, and the empty one each slot retires on.
    #[test]
    fn draining_a_disk_mapped_scan_takes_one_next_morsel_call_per_page_plus_one_per_slot() {
        for (pages, x) in [(0u64, 3u32), (5, 8), (64, 1), (64, 4), (777, 6), (2_000, 16)] {
            let p = StealPartition::new(pages, 16, x, 7).with_disks(4);
            let claims: Vec<_> = (0..x as usize).map(|s| p.claim_of(s)).collect();
            let mut retired = vec![false; x as usize];
            let (mut calls, mut claimed) = (0, 0);
            while retired.contains(&false) {
                for slot in 0..x as usize {
                    if retired[slot] || StealPartition::claim_unit(&claims[slot]).is_some() {
                        claimed += u64::from(!retired[slot]);
                        continue;
                    }
                    calls += 1;
                    retired[slot] = p.next_morsel(slot).is_none();
                }
            }
            assert_eq!(claimed, pages);
            assert_eq!(calls, pages + u64::from(x), "{pages} pages over {x} slots");
        }
    }

    /// A death hands its work on: after `fail_slot`, survivors draining the
    /// partition steal the replacement's surplus but never its last pending
    /// morsel, so the replacement, staffed late, still claims a unit.
    #[test]
    fn survivors_leave_a_replacement_its_last_pending_morsel() {
        for with_disks in [true, false] {
            let p = StealPartition::new(64, 4, 4, 5);
            let p = if with_disks { p.with_disks(4) } else { p };
            let mut walk = Walk::default();
            walk.run(&p, 2);
            let replacement = p.fail_slot(0).expect("slot 0 held work");
            // Slots 1–3 drain everything they may take.
            let mut seen = Vec::new();
            for slot in 1..4 {
                let claim = p.claim_of(slot);
                let mut base = walk.owners[slot].1;
                loop {
                    match StealPartition::claim_unit(&claim) {
                        Some(offset) => seen.push(base + offset),
                        None => match p.next_morsel(slot) {
                            Some(next) => base = next.morsel.start,
                            None => break,
                        },
                    }
                }
            }
            assert_eq!(p.pending(replacement).len(), 1, "disk-mapped {with_disks}");
            let left = drain(&p);
            assert!(!left.is_empty(), "the replacement claims its morsel");
            seen.extend(walk.seen);
            seen.extend(left);
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>(), "disk-mapped {with_disks}");
        }
    }

    /// Resizes re-deal instead of leaving new slots to steal, and the
    /// re-deals and a death together still claim every unit once.
    #[test]
    fn draining_across_resizes_and_a_death_claims_every_unit_once() {
        let p = StealPartition::new(777, 16, 3, 5).with_disks(4);
        let mut walk = Walk::default();
        for resize in [8, 2, 5, 1, 6] {
            walk.run(&p, 25);
            p.adjust(resize);
        }
        walk.run(&p, 10);
        assert_eq!(walk.steals, 0, "every resized slot started from its own deque");
        if let Some(replacement) = p.fail_slot(p.active_slots()[0]) {
            assert_eq!(replacement, p.n_slots() - 1);
        }
        walk.run(&p, usize::MAX);
        walk.seen.sort_unstable();
        assert_eq!(walk.seen, (0..777).collect::<Vec<_>>());
        assert_eq!(p.claimed(), 777);
    }

    #[test]
    fn a_thief_steals_from_the_first_victim_in_the_seeded_rotation() {
        // 4 slots, grain 1, 4 disks: the round-robin deal gives slot s the
        // units ≡ s (mod 4). Slot 0 drains its own deque (no other slot has
        // started, so no other head is at the front), then steals. Every
        // victim is unstarted and holds stealable work, so the thief takes
        // the first victim of its seeded rotation, whatever disk it is on.
        let p = StealPartition::new(32, 1, 4, 123).with_disks(4);
        let claim = p.claim_of(0);
        for _ in 0..8 {
            let nm = p.next_morsel(0).expect("own deque first");
            assert_eq!(nm.stolen_from, None);
            while StealPartition::claim_unit(&claim).is_some() {}
        }
        let first = victim_order(123, 0, 4).next().expect("three victims");
        assert_eq!(first, 1);
        let stolen = p.next_morsel(0).expect("steal must still rescue work");
        assert_eq!(stolen.stolen_from, Some(first));
        // Slot 1 holds 1, 5, …, 29 and keeps its last one (it has not
        // started), so 7 are stealable and the back 4 move: 17 comes first.
        assert_eq!(stolen.morsel.start, 17);
        // And exactly-once still holds: the armed steal, everything still
        // pending, and slot 0's own residue class claimed above.
        assert_eq!(StealPartition::claim_unit(&claim), Some(0));
        let mut seen = drain(&p);
        seen.push(17);
        seen.extend((0..32).step_by(4));
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>(), "no unit lost or repeated by a steal");
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

//! Property tests for the morsel work-stealing deque layer: for arbitrary
//! unit counts, grains, worker counts, and seeded interleavings — with and
//! without a mid-run `fail_slot` from the PR 3 fault machinery — every unit
//! is claimed **exactly once** across owners, thieves, and the replacement
//! slot that inherits a dead worker's unclaimed remainder. Plain tests at
//! the end hold the same contract on a 2³²-unit fragment, where the deal is
//! bounded and the claim word addresses units past 2³¹.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use xprs_executor::{StealPartition, MAX_DEAL_MORSELS};
use xprs_storage::partition::Morsel;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// One slot's owner as the worker loop runs it: the claim word, plus the
/// start of the morsel it is armed with — the base that turns the word's
/// offsets into unit indices.
struct Owner {
    slot: usize,
    claim: Arc<AtomicU64>,
    base: u64,
}

enum Step {
    Unit(u64),
    Armed,
    Retired,
}

impl Owner {
    fn new(part: &StealPartition, slot: usize) -> Self {
        Owner { slot, claim: part.claim_of(slot), base: 0 }
    }

    /// Claim a unit of the armed morsel, else arm the next one, else retire.
    fn step(&mut self, part: &StealPartition) -> Step {
        if let Some(offset) = StealPartition::claim_unit(&self.claim) {
            return Step::Unit(self.base + offset);
        }
        match part.next_morsel(self.slot) {
            Some(next) => {
                self.base = next.morsel.start;
                Step::Armed
            }
            None => Step::Retired,
        }
    }

    /// Every unit the slot can still claim, until it retires.
    fn drain(&mut self, part: &StealPartition, mut each: impl FnMut(u64)) {
        loop {
            match self.step(part) {
                Step::Unit(u) => each(u),
                Step::Armed => {}
                Step::Retired => return,
            }
        }
    }
}

/// Drive the partition to exhaustion under a seeded interleaving: each step
/// one pseudo-randomly chosen live slot either claims a unit of its
/// in-flight morsel or takes/steals its next morsel; a slot with neither
/// retires. At step `fail_at` (if given) a pseudo-random live slot is
/// declared dead — its unclaimed remainder moves to a fresh replacement
/// slot, which joins the interleaving. Returns every unit claimed, in
/// claim order.
fn drive(
    part: &StealPartition,
    seed: u64,
    mut fail_at: Option<u64>,
) -> Vec<u64> {
    let mut rng = seed ^ 0x5EED_0BEE;
    let mut owners: Vec<Owner> = (0..part.n_slots()).map(|s| Owner::new(part, s)).collect();
    let mut live: Vec<usize> = (0..owners.len()).collect();
    let mut seen = Vec::new();
    let mut step = 0u64;
    while !live.is_empty() {
        if fail_at == Some(step) {
            fail_at = None;
            let victim = live[(lcg(&mut rng) % live.len() as u64) as usize];
            let replacement = part.fail_slot(victim);
            owners.push(Owner::new(part, replacement));
            assert_eq!(owners.len() - 1, replacement, "slots grow by one per failure");
            live.push(replacement);
        }
        step += 1;
        let pick = (lcg(&mut rng) % live.len() as u64) as usize;
        let slot = live[pick];
        match owners[slot].step(part) {
            Step::Unit(u) => seen.push(u),
            Step::Armed => {}
            Step::Retired => {
                live.swap_remove(pick);
            }
        }
    }
    seen
}

/// Every morsel of a fresh partition, in unit order: each slot's first
/// draw (which must come from its own deque whenever the fragment has a
/// unit per slot), then whatever the slots can still draw. Units are never
/// claimed — re-arming a slot only forfeits units this walk does not count.
fn dealt_morsels(part: &StealPartition, total: u64, workers: u32) -> Vec<(u64, u64)> {
    let mut morsels = Vec::new();
    for slot in 0..workers as usize {
        match part.next_morsel(slot) {
            Some(first) => {
                if total >= u64::from(workers) {
                    assert_eq!(first.stolen_from, None, "slot {slot} dealt no first morsel");
                }
                morsels.push((first.morsel.start, first.morsel.end));
            }
            None => assert!(total < u64::from(workers), "slot {slot} left empty-handed"),
        }
    }
    for slot in 0..workers as usize {
        while let Some(next) = part.next_morsel(slot) {
            morsels.push((next.morsel.start, next.morsel.end));
        }
    }
    morsels.sort_unstable();
    morsels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The initial deal tiles `[0, total)` exactly, hands every slot a
    /// non-empty first morsel when there is a unit per slot, and — when the
    /// fragment is too small for a whole morsel per slot — is exactly one
    /// near-equal morsel per slot, never a remainder morsel that one slot
    /// would have to run after its own. A fragment with a whole morsel per
    /// slot is cut at exactly the configured grain: the bounded deal leaves
    /// every fragment this small as it was.
    #[test]
    fn deal_tiles_and_gives_every_slot_one_near_equal_morsel_when_small(
        total in 0u64..600,
        grain in 1u64..40,
        workers in 1u32..14,
        seed in 0u64..1_000_000,
    ) {
        let part = StealPartition::new(total, grain, workers, seed);
        let morsels = dealt_morsels(&part, total, workers);
        let mut next = 0;
        for &(start, end) in &morsels {
            prop_assert_eq!(start, next, "gap or overlap in {:?}", &morsels);
            prop_assert!(end > start, "empty morsel in {:?}", &morsels);
            next = end;
        }
        prop_assert_eq!(next, total);
        let n = u64::from(workers);
        if total >= n && total / n < grain {
            prop_assert_eq!(morsels.len() as u64, n, "{:?}", &morsels);
            let lens: Vec<u64> = morsels.iter().map(|&(s, e)| e - s).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            prop_assert!(hi - lo <= 1, "uneven deal {:?}", lens);
        } else if let (true, Some((&(start, end), whole))) = (total >= n, morsels.split_last()) {
            prop_assert!(whole.iter().all(|&(s, e)| e - s == grain), "{:?}", &morsels);
            prop_assert!(end - start <= grain);
        }
    }

    /// Fault-free: any interleaving of owners and thieves claims
    /// `[0, total)` exactly once.
    #[test]
    fn seeded_interleavings_claim_every_unit_exactly_once(
        total in 0u64..600,
        grain in 1u64..40,
        workers in 1u32..9,
        seed in 0u64..1_000_000,
    ) {
        let part = StealPartition::new(total, grain, workers, seed);
        let mut seen = drive(&part, seed, None);
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    /// A mid-run slot failure revokes the victim and moves its unclaimed
    /// work to the replacement; units the victim claimed before revocation
    /// stay claimed. Exactly-once must survive any failure point.
    #[test]
    fn mid_run_fail_slot_preserves_exactly_once(
        total in 1u64..400,
        grain in 1u64..32,
        workers in 1u32..7,
        seed in 0u64..1_000_000,
        fail_at in 0u64..500,
    ) {
        let part = StealPartition::new(total, grain, workers, seed);
        let mut seen = drive(&part, seed, Some(fail_at));
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    /// Real threads, real races: every worker loops claim-or-steal on its
    /// own OS thread while the main thread kills one slot mid-run; the
    /// union of what the threads claimed and what the replacement slot
    /// yields afterwards is `[0, total)` exactly once.
    #[test]
    fn threaded_stealing_with_a_death_is_exactly_once(
        total in 1u64..400,
        grain in 1u64..32,
        workers in 2u32..7,
        seed in 0u64..1_000_000,
    ) {
        let part = Arc::new(StealPartition::new(total, grain, workers, seed));
        let victim = (seed % workers as u64) as usize;
        let handles: Vec<_> = (0..workers as usize)
            .map(|slot| {
                let part = Arc::clone(&part);
                std::thread::spawn(move || {
                    let mut mine = Vec::new();
                    Owner::new(&part, slot).drain(&part, |u| {
                        mine.push(u);
                        std::thread::yield_now();
                    });
                    mine
                })
            })
            .collect();
        std::thread::yield_now();
        let replacement = part.fail_slot(victim);
        let mut seen: Vec<u64> =
            handles.into_iter().flat_map(|h| h.join().expect("worker thread")).collect();
        // The replacement inherits whatever the dead slot never claimed.
        Owner::new(&part, replacement).drain(&part, |u| seen.push(u));
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }
}

/// An `i32` key domain spanning the whole key space.
const HUGE: u64 = 1 << 32;

/// A 2³²-unit fragment at the default grain is dealt in bounded time and
/// memory: at most `MAX_DEAL_MORSELS` morsels, which still tile the space
/// (checked morsel by morsel — nobody drains four billion units).
#[test]
fn a_two_to_the_32_unit_deal_is_bounded_and_tiles_the_space() {
    let t0 = Instant::now();
    let part = StealPartition::new(HUGE, 16, 8, 7);
    assert!(t0.elapsed() < Duration::from_secs(1), "deal took {:?}", t0.elapsed());
    let morsels = dealt_morsels(&part, HUGE, 8);
    assert!(morsels.len() as u64 <= MAX_DEAL_MORSELS, "{} morsels dealt", morsels.len());
    let mut next = 0;
    for &(start, end) in &morsels {
        assert_eq!(start, next, "gap or overlap at {next}");
        assert!(end > start);
        next = end;
    }
    assert_eq!(next, HUGE);
}

/// Four 2³⁰-unit morsels over two slots; slot 1 is dealt `[2³⁰, 2³¹)` and
/// then `[3·2³⁰, 2³²)`, which lies wholly above what a 31-bit absolute
/// cursor could address. Returns the partition with slot 1 armed on that
/// morsel (re-arming forfeits the low one, which is not under test) and
/// `claimed` of its units claimed — each checked to be the absolute unit
/// index.
fn armed_above_two_to_the_31(claimed: u64) -> (StealPartition, Owner, Morsel) {
    let part = StealPartition::new(HUGE, 1 << 30, 2, 3);
    let high = Morsel { start: 3 << 30, end: HUGE };
    assert_eq!(part.next_morsel(1).map(|n| n.morsel), Some(Morsel { start: 1 << 30, end: 1 << 31 }));
    assert_eq!(part.next_morsel(1).map(|n| n.morsel), Some(high));
    let mut owner = Owner { slot: 1, claim: part.claim_of(1), base: high.start };
    for i in 0..claimed {
        assert!(matches!(owner.step(&part), Step::Unit(u) if u == high.start + i));
    }
    (part, owner, high)
}

#[test]
fn fail_slot_above_two_to_the_31_reclaims_the_absolute_remainder_once() {
    let (part, mut owner, high) = armed_above_two_to_the_31(3);
    let replacement = part.fail_slot(1);
    assert!(matches!(owner.step(&part), Step::Retired), "the revoked owner claims no more");
    let want = Morsel { start: high.start + 3, end: high.end };
    assert_eq!(part.next_morsel(replacement).map(|n| n.morsel), Some(want));
    // A second declaration of the same death finds nothing left to reclaim:
    // its replacement can only steal.
    let pending = part.pending_units();
    let again = part.fail_slot(1);
    assert_eq!(part.pending_units(), pending);
    assert!(matches!(part.next_morsel(again), Some(n) if n.stolen_from == Some(0)));
}

#[test]
fn adjust_above_two_to_the_31_hands_the_absolute_remainder_to_a_survivor() {
    let (part, mut owner, high) = armed_above_two_to_the_31(2);
    let info = part.adjust(1);
    assert_eq!(info.retiring_slots, vec![1]);
    assert!(matches!(owner.step(&part), Step::Retired));
    // Slot 0 holds its own two morsels, then the orphaned remainder.
    let drawn: Vec<Morsel> =
        std::iter::from_fn(|| part.next_morsel(0).map(|n| n.morsel)).collect();
    assert_eq!(
        drawn,
        vec![
            Morsel { start: 0, end: 1 << 30 },
            Morsel { start: 1 << 31, end: 3 << 30 },
            Morsel { start: high.start + 2, end: high.end },
        ]
    );
}

#[test]
fn revoke_all_above_two_to_the_31_forfeits_the_remainder() {
    let (part, mut owner, _) = armed_above_two_to_the_31(1);
    part.revoke_all();
    assert!(matches!(owner.step(&part), Step::Retired));
    assert_eq!(part.pending_units(), 0, "unclaimed work is forfeited, not redealt");
    assert!((0..part.n_slots()).all(|s| part.next_morsel(s).is_none()));
}

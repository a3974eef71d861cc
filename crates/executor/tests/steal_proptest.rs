//! Property tests for the morsel work-stealing deque layer: for arbitrary
//! unit counts, grains, worker counts, and seeded interleavings — with and
//! without a mid-run `fail_slot` from the PR 3 fault machinery — every unit
//! is claimed **exactly once** across owners, thieves, and the replacement
//! slot that inherits a dead worker's unclaimed remainder.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use proptest::prelude::*;
use xprs_executor::StealPartition;

fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
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
    let mut claims: Vec<Arc<AtomicU64>> =
        (0..part.n_slots()).map(|s| part.claim_of(s)).collect();
    let mut live: Vec<usize> = (0..claims.len()).collect();
    let mut seen = Vec::new();
    let mut step = 0u64;
    while !live.is_empty() {
        if fail_at == Some(step) {
            fail_at = None;
            let victim = live[(lcg(&mut rng) % live.len() as u64) as usize];
            let replacement = part.fail_slot(victim);
            claims.push(part.claim_of(replacement));
            assert_eq!(claims.len() - 1, replacement, "slots grow by one per failure");
            live.push(replacement);
        }
        step += 1;
        let pick = (lcg(&mut rng) % live.len() as u64) as usize;
        let slot = live[pick];
        if let Some(u) = StealPartition::claim_unit(&claims[slot]) {
            seen.push(u);
        } else if part.next_morsel(slot).is_none() {
            live.swap_remove(pick);
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
    /// would have to run after its own.
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
                    let claim = part.claim_of(slot);
                    let mut mine = Vec::new();
                    loop {
                        if let Some(u) = StealPartition::claim_unit(&claim) {
                            mine.push(u);
                            std::thread::yield_now();
                        } else if part.next_morsel(slot).is_none() {
                            return mine;
                        }
                    }
                })
            })
            .collect();
        std::thread::yield_now();
        let replacement = part.fail_slot(victim);
        let mut seen: Vec<u64> =
            handles.into_iter().flat_map(|h| h.join().expect("worker thread")).collect();
        // The replacement inherits whatever the dead slot never claimed.
        let claim = part.claim_of(replacement);
        loop {
            if let Some(u) = StealPartition::claim_unit(&claim) {
                seen.push(u);
            } else if part.next_morsel(replacement).is_none() {
                break;
            }
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }
}

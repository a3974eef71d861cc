//! Figures 5 and 6: the dynamic parallelism adjustment, traced on the deal
//! every engine runs.
//!
//! Replays the Figure 5 scenario (a 64-page scan grown 2 → 4) and the
//! Figure 6 scenario (keys 0–99 grown 2 → 3) on [`StealPartition`]. For
//! each it prints the initial deal, every slot's claims before the resize,
//! the pending morsels the master gathers and re-deals, every slot's claims
//! over the whole run, and the exactly-once check.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use xprs_storage::partition::{Morsel, StealPartition, DEFAULT_MORSEL_UNITS};

fn main() {
    println!("# Figure 5 — a page scan grown 2 → 4 (the max-page contract)");
    println!();
    println!("64 pages striped over 4 disks, dealt disk-mapped to 2 backends.");
    let pages = StealPartition::new(64, DEFAULT_MORSEL_UNITS, 2, 0).with_disks(4);
    trace(&pages, 64, &[5, 3], 4);

    println!("# Figure 6 — an index scan over keys 0–99 grown 2 → 3 (interval re-partitioning)");
    println!();
    println!("Key offsets 0–99, dealt as a plain key space to 2 backends.");
    let keys = StealPartition::new(100, DEFAULT_MORSEL_UNITS, 2, 0);
    trace(&keys, 100, &[20, 10], 3);
}

/// A slot's backend, run as a worker runs it: claim on the slot's word and
/// take the slot's next morsel when the armed one runs dry.
struct Backend {
    claim: Arc<AtomicU64>,
    base: u64,
    claims: Vec<u64>,
}

impl Backend {
    /// Claim one unit; `false` once the slot finds no work.
    fn step(&mut self, part: &StealPartition, slot: usize) -> bool {
        loop {
            if let Some(offset) = StealPartition::claim_unit(&self.claim) {
                self.claims.push(self.base + offset);
                return true;
            }
            match part.next_morsel(slot) {
                Some(next) => self.base = next.morsel.start,
                None => return false,
            }
        }
    }
}

/// Run `progress[s]` claims on slot `s`, resize to `grow_to`, drain
/// round-robin, and check that `0..units` was claimed exactly once.
fn trace(part: &StealPartition, units: u64, progress: &[usize], grow_to: u32) {
    let mut backends: Vec<Backend> = Vec::new();
    let staff = |backends: &mut Vec<Backend>| {
        while backends.len() < part.n_slots() {
            let claim = part.claim_of(backends.len());
            backends.push(Backend { claim, base: 0, claims: Vec::new() });
        }
    };
    staff(&mut backends);
    print_deal("initial deal", part);
    for (slot, &n) in progress.iter().enumerate() {
        for _ in 0..n {
            backends[slot].step(part, slot);
        }
    }
    println!("before the resize:");
    for (slot, b) in backends.iter().enumerate() {
        println!("  slot {slot} claimed {}", runs(&b.claims));
    }
    let mut gathered: Vec<Morsel> = (0..part.n_slots()).flat_map(|s| part.pending(s)).collect();
    gathered.sort_unstable_by_key(|m| m.start);
    println!("master: adjust parallelism {} → {grow_to}", part.parallelism());
    println!("  gathers the pending morsels {}", morsels(&gathered));
    println!("  (armed morsels stay with their claimants, claimed units with theirs)");
    let info = part.adjust(grow_to);
    print_deal("  re-deals them in unit order", part);
    println!("  staffs slots {:?}, retires slots {:?}", info.new_slots, info.retiring_slots);
    staff(&mut backends);
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (slot, b) in backends.iter_mut().enumerate() {
            progressed |= b.step(part, slot);
        }
    }
    println!("whole run:");
    for (slot, b) in backends.iter().enumerate() {
        println!("  slot {slot} claimed {}", runs(&b.claims));
    }
    let mut all: Vec<u64> = backends.iter().flat_map(|b| b.claims.iter().copied()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..units).collect::<Vec<_>>(), "a unit was lost or claimed twice");
    println!("exactly once: {units} units, each claimed by one of {} slots ✓", backends.len());
    println!();
}

fn print_deal(title: &str, part: &StealPartition) {
    println!("{title}:");
    for slot in part.active_slots() {
        println!("    slot {slot} ← {}", morsels(&part.pending(slot)));
    }
}

/// Morsels as `[start,end)`; a one-page morsel as its page.
fn morsels(ms: &[Morsel]) -> String {
    let parts: Vec<String> = ms
        .iter()
        .map(|m| if m.len() == 1 { m.start.to_string() } else { format!("[{},{})", m.start, m.end) })
        .collect();
    if parts.is_empty() { "nothing".into() } else { parts.join(" ") }
}

/// Claims in order, consecutive units folded into `a–b` runs.
fn runs(claims: &[u64]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < claims.len() {
        let mut j = i;
        while j + 1 < claims.len() && claims[j + 1] == claims[j] + 1 {
            j += 1;
        }
        out.push(if i == j { claims[i].to_string() } else { format!("{}–{}", claims[i], claims[j]) });
        i = j + 1;
    }
    if out.is_empty() { "nothing".into() } else { out.join(", ") }
}

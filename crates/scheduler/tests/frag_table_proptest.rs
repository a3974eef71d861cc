//! The fragment lifecycle over random DAGs and random legal event orders.
//! After **every** event: a fragment is released (made `Ready`) exactly
//! once and only when all its producers are `Done`; the per-phase counters
//! add up to the table's size and agree with a scan; and `wedge_check`
//! fires iff something is unfinished while nothing runs.

use proptest::prelude::*;
use xprs_scheduler::{FragTable, Phase, SchedError, TaskId};

/// Per fragment, which of the earlier fragments it consumes: bit `k` of
/// `masks[i]` selects producer `i - 1 - k`.
fn producers(masks: &[u8]) -> Vec<Vec<usize>> {
    masks
        .iter()
        .enumerate()
        .map(|(i, mask)| (0..i.min(8)).filter(|k| mask >> k & 1 == 1).map(|k| i - 1 - k).collect())
        .collect()
}

const PHASES: [Phase; 4] = [Phase::Blocked, Phase::Ready, Phase::Running, Phase::Done];

struct Model {
    deps: Vec<Vec<usize>>,
    table: FragTable<usize>,
    released: Vec<u32>,
}

impl Model {
    fn new(deps: Vec<Vec<usize>>) -> Self {
        let mut table = FragTable::new();
        for (i, d) in deps.iter().enumerate() {
            table.add(TaskId(i as u64), d);
        }
        Model { released: vec![0; deps.len()], deps, table }
    }

    fn released(&mut self, idx: usize) {
        self.released[idx] += 1;
        assert_eq!(self.released[idx], 1, "fragment {idx} released twice");
        assert_eq!(self.table.phase(idx), Phase::Ready);
        for &p in &self.deps[idx] {
            assert_eq!(self.table.phase(p), Phase::Done, "{idx} released before producer {p}");
        }
    }

    fn check(&self) {
        let n = self.table.len();
        let scan = PHASES.map(|p| (0..n).filter(|&i| self.table.phase(i) == p).count());
        assert_eq!(scan, PHASES.map(|p| self.table.count(p)), "counters drifted from the states");
        assert_eq!(scan.iter().sum::<usize>(), n);
        let (running, done) = (self.table.count(Phase::Running), self.table.count(Phase::Done));
        let wedged = done < n && running == 0;
        let want = wedged.then_some(SchedError::Wedged { policy: "P", unfinished: n - done });
        assert_eq!(self.table.wedge_check("P").err(), want);
        assert_eq!(self.table.iter_running().count(), running);
        for i in 0..n {
            // A fragment nobody released is still unknown to the policy.
            let known = self.table.lookup(TaskId(i as u64)).is_ok();
            assert_eq!(known, self.table.phase(i) != Phase::Blocked);
            assert!(self.released[i] == 1 || matches!(self.table.phase(i), Phase::Blocked | Phase::Done));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_step_of_a_random_legal_run_keeps_the_lifecycle_honest(
        masks in proptest::collection::vec(0u8..=255, 1..14),
        timed_roots in proptest::bool::ANY,
        picks in proptest::collection::vec(0usize..1_000, 80..81),
    ) {
        let mut m = Model::new(producers(&masks));
        let n = m.table.len();
        m.check();
        if !timed_roots {
            for idx in m.table.release_roots() {
                m.released(idx);
            }
            m.check();
        }
        for pick in picks {
            // The legal events of this instant: release a root whose time
            // has come, start a ready fragment, finish a running one,
            // retire (cancel) a fragment together with all its consumers.
            let mut legal: Vec<(char, usize)> = Vec::new();
            for i in 0..n {
                match m.table.phase(i) {
                    Phase::Blocked if m.deps[i].is_empty() => legal.push(('r', i)),
                    Phase::Ready => legal.push(('s', i)),
                    Phase::Running => legal.push(('f', i)),
                    _ => {}
                }
                if pick % 7 == 0 && m.table.phase(i) != Phase::Done {
                    legal.push(('c', i));
                }
            }
            let Some(&(event, idx)) = legal.get(pick % legal.len().max(1)) else { break };
            match event {
                'r' => {
                    prop_assert!(m.table.release(idx));
                    m.released(idx);
                }
                's' => prop_assert_eq!(m.table.start(idx, || Ok::<_, SchedError>(idx)), Ok(())),
                'f' => {
                    let (payload, ready) = m.table.finish(idx).expect("running");
                    prop_assert_eq!(payload, idx);
                    prop_assert!(ready.windows(2).all(|w| w[0] < w[1]), "ascending: {:?}", ready);
                    for r in ready {
                        m.released(r);
                    }
                }
                _ => {
                    // Cancel: the fragment and, transitively, everything
                    // that consumes it — producers first, as a query's
                    // fragments are ordered.
                    let mut doomed = vec![false; n];
                    doomed[idx] = true;
                    for i in idx + 1..n {
                        doomed[i] = m.deps[i].iter().any(|&p| doomed[p]);
                    }
                    for i in (0..n).filter(|&i| doomed[i]) {
                        let before = m.table.phase(i);
                        let announce = m.table.retire(i);
                        let want = match before {
                            Phase::Done => None,
                            Phase::Blocked => Some(false),
                            Phase::Ready | Phase::Running => Some(true),
                        };
                        prop_assert_eq!(announce, want);
                    }
                }
            }
            m.check();
        }
        // Drive what is left to completion: every fragment ends Done.
        while !m.table.all_done() {
            let i = (0..n).find(|&i| m.table.phase(i) != Phase::Done
                && (m.table.phase(i) != Phase::Blocked || m.deps[i].is_empty())).expect("progress");
            match m.table.phase(i) {
                Phase::Blocked => { prop_assert!(m.table.release(i)); m.released(i); }
                Phase::Ready => m.table.start(i, || Ok::<_, SchedError>(i)).expect("ready"),
                _ => for r in m.table.finish(i).expect("running").1 { m.released(r); },
            }
            m.check();
        }
    }
}

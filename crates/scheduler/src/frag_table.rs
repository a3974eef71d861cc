//! The fragment lifecycle, once: `Blocked → Ready → Running(R) → Done`.
//!
//! Section 2.5's master loop releases a fragment when its producers are
//! done, starts it, adjusts it, retires it and notices a wedge. All three
//! drivers of a [`crate::policy::SchedulePolicy`] — the fluid estimator,
//! the discrete-event simulator and the threaded executor — walk that
//! lifecycle through this table, so an illegal transition maps to the same
//! [`SchedError`] whichever substrate the policy happens to be driving.
//!
//! The table is pure bookkeeping: no clock, no channel, no thread. A driver
//! owns those, and hands the table only *what happened* — a root's arrival
//! time came ([`FragTable::release`]), the policy said `Start`
//! ([`FragTable::start`]), the substrate finished a fragment
//! ([`FragTable::finish`]), a query was cancelled ([`FragTable::retire`]).
//! `R` is whatever the driver must hold while a fragment runs (its worker
//! context, its partition, its remaining work): it exists exactly as long
//! as the fragment is `Running`.
//!
//! | event on a fragment that is…   | `Blocked`     | `Ready`      | `Running`        | `Done`                |
//! |--------------------------------|---------------|--------------|------------------|-----------------------|
//! | [`lookup`](FragTable::lookup)  | `UnknownTask` | index        | index            | index                 |
//! | [`start`](FragTable::start)    | `UnknownTask` | → `Running`  | `AlreadyRunning` | `AlreadyRunning`      |
//! | [`running`](FragTable::running)| `NotRunning`  | `NotRunning` | the payload      | `NotRunning`          |
//! | [`finish`](FragTable::finish)  | `NotRunning`  | `NotRunning` | → `Done`         | `DuplicateCompletion` |
//! | [`retire`](FragTable::retire)  | → `Done`      | → `Done`, announce | → `Done`, announce | no-op           |
//!
//! A `Blocked` fragment has never been announced to the policy, so an
//! action that names one refers to a task outside the policy's universe —
//! the same `UnknownTask` as an id the run never held.

use std::collections::HashMap;

use crate::deps::FragmentDag;
use crate::error::SchedError;
use crate::task::TaskId;

#[derive(Debug)]
enum State<R> {
    Blocked,
    Ready,
    Running(R),
    Done,
}

/// Where a fragment is in its lifecycle, without the running payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Producers unfinished, or a root whose arrival has not been released;
    /// the policy has not been told about it.
    Blocked,
    /// Announced to the policy, not started.
    Ready,
    /// Started and not yet finished.
    Running,
    /// Finished or retired.
    Done,
}

/// The fragments of a run, their dependencies and their lifecycle state.
#[derive(Debug)]
pub struct FragTable<R> {
    ids: Vec<TaskId>,
    index: HashMap<TaskId, usize>,
    /// `consumers[i]`: fragments that list `i` among their producers, in
    /// ascending index order.
    consumers: Vec<Vec<usize>>,
    /// Producers of each fragment that are not yet `Done`.
    waiting: Vec<usize>,
    state: Vec<State<R>>,
    /// Fragments per [`Phase`], in declaration order.
    counts: [usize; 4],
}

impl<R> Default for FragTable<R> {
    fn default() -> Self {
        FragTable {
            ids: Vec::new(),
            index: HashMap::new(),
            consumers: Vec::new(),
            waiting: Vec::new(),
            state: Vec::new(),
            counts: [0; 4],
        }
    }
}

impl<R> FragTable<R> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table over the fragments and dependencies of `dag`, index for
    /// index.
    pub fn from_dag(dag: &FragmentDag) -> Self {
        let mut table = Self::new();
        for (i, task) in dag.tasks().iter().enumerate() {
            table.add(task.id, dag.deps_of(i));
        }
        table
    }

    /// Add a `Blocked` fragment whose producers are the already-added
    /// indices `deps`; returns its index. When an id repeats, actions that
    /// name it resolve to the first fragment added under it.
    ///
    /// # Panics
    /// Panics if a dependency index is not already present — building
    /// bottom-up is what keeps the graph acyclic (the rule of
    /// [`FragmentDag::add`]).
    pub fn add(&mut self, id: TaskId, deps: &[usize]) -> usize {
        let idx = self.ids.len();
        for &d in deps {
            assert!(d < idx, "producer {d} of fragment {idx} not yet added");
            self.consumers[d].push(idx);
        }
        self.ids.push(id);
        self.index.entry(id).or_insert(idx);
        self.consumers.push(Vec::new());
        self.waiting.push(deps.len());
        self.state.push(State::Blocked);
        self.counts[Phase::Blocked as usize] += 1;
        idx
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table holds no fragment.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The lifecycle phase of fragment `idx`.
    pub fn phase(&self, idx: usize) -> Phase {
        match self.state[idx] {
            State::Blocked => Phase::Blocked,
            State::Ready => Phase::Ready,
            State::Running(_) => Phase::Running,
            State::Done => Phase::Done,
        }
    }

    /// How many fragments are in `phase`.
    pub fn count(&self, phase: Phase) -> usize {
        self.counts[phase as usize]
    }

    /// True once every fragment is `Done`.
    pub fn all_done(&self) -> bool {
        self.count(Phase::Done) == self.len()
    }

    /// Every running fragment with its payload, in index order.
    pub fn iter_running(&self) -> impl Iterator<Item = (usize, &R)> {
        self.state.iter().enumerate().filter_map(|(i, s)| match s {
            State::Running(r) => Some((i, r)),
            _ => None,
        })
    }

    fn set(&mut self, idx: usize, next: State<R>) -> State<R> {
        self.counts[self.phase(idx) as usize] -= 1;
        let prev = std::mem::replace(&mut self.state[idx], next);
        self.counts[self.phase(idx) as usize] += 1;
        prev
    }

    /// Resolve the task an action names to its fragment index.
    ///
    /// # Errors
    /// [`SchedError::UnknownTask`] for an id the table does not hold, and
    /// for a fragment that is still `Blocked`: the policy was never told
    /// about it.
    pub fn lookup(&self, id: TaskId) -> Result<usize, SchedError> {
        match self.index.get(&id) {
            Some(&idx) if !matches!(self.state[idx], State::Blocked) => Ok(idx),
            _ => Err(SchedError::UnknownTask { task: id }),
        }
    }

    /// Release every `Blocked` fragment that has no producers and return
    /// their indices in ascending order — the announcement of a run whose
    /// roots all arrive at time zero.
    pub fn release_roots(&mut self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.release(i)).collect()
    }

    /// Release fragment `idx` — a root whose arrival time has come. Returns
    /// whether it became `Ready`: a fragment that still waits on a producer,
    /// or that was released before, is left as it is.
    pub fn release(&mut self, idx: usize) -> bool {
        let releasable = self.waiting[idx] == 0 && matches!(self.state[idx], State::Blocked);
        if releasable {
            self.set(idx, State::Ready);
        }
        releasable
    }

    /// Apply a `Start`: `Ready → Running(build()?)`. The payload is built
    /// only once the transition is known to be legal, and a failed build
    /// leaves the fragment `Ready`.
    ///
    /// # Errors
    /// [`SchedError::UnknownTask`] if the fragment is still `Blocked`,
    /// [`SchedError::AlreadyRunning`] if it is running or done, and
    /// whatever `build` returns.
    pub fn start<E: From<SchedError>>(
        &mut self,
        idx: usize,
        build: impl FnOnce() -> Result<R, E>,
    ) -> Result<(), E> {
        let task = self.ids[idx];
        match self.state[idx] {
            State::Ready => {}
            State::Blocked => return Err(SchedError::UnknownTask { task }.into()),
            State::Running(_) | State::Done => {
                return Err(SchedError::AlreadyRunning { task }.into())
            }
        }
        let payload = build()?;
        self.set(idx, State::Running(payload));
        Ok(())
    }

    /// The payload of running fragment `idx` — what an `Adjust` acts on.
    ///
    /// # Errors
    /// [`SchedError::NotRunning`] in every other phase.
    pub fn running(&self, idx: usize) -> Result<&R, SchedError> {
        match &self.state[idx] {
            State::Running(r) => Ok(r),
            _ => Err(SchedError::NotRunning { task: self.ids[idx] }),
        }
    }

    /// [`FragTable::running`], mutably.
    ///
    /// # Errors
    /// [`SchedError::NotRunning`] in every other phase.
    pub fn running_mut(&mut self, idx: usize) -> Result<&mut R, SchedError> {
        match &mut self.state[idx] {
            State::Running(r) => Ok(r),
            _ => Err(SchedError::NotRunning { task: self.ids[idx] }),
        }
    }

    /// Fragment `idx` completed: `Running → Done`. Hands back its payload
    /// and the consumers this completion made `Ready` (their last
    /// unfinished producer), in ascending index order; the caller announces
    /// them to the policy.
    ///
    /// # Errors
    /// [`SchedError::DuplicateCompletion`] if the fragment is already
    /// `Done`, [`SchedError::NotRunning`] if it never started. The state is
    /// left untouched on error.
    pub fn finish(&mut self, idx: usize) -> Result<(R, Vec<usize>), SchedError> {
        let task = self.ids[idx];
        match self.state[idx] {
            State::Running(_) => {}
            State::Done => return Err(SchedError::DuplicateCompletion { task }),
            State::Blocked | State::Ready => return Err(SchedError::NotRunning { task }),
        }
        let State::Running(payload) = self.set(idx, State::Done) else {
            unreachable!("checked Running above")
        };
        let mut ready = Vec::new();
        for c in self.producer_done(idx) {
            if self.release(c) {
                ready.push(c);
            }
        }
        Ok((payload, ready))
    }

    /// Retire fragment `idx` without running it to completion (its query
    /// was cancelled): any phase `→ Done`, dropping a running payload.
    /// Returns `None` if it was already `Done`, otherwise whether the
    /// policy knows the fragment and must be told it finished.
    ///
    /// Retirement releases nobody: a cancelled query's consumers are
    /// retired with it, never announced.
    pub fn retire(&mut self, idx: usize) -> Option<bool> {
        let announce = match self.state[idx] {
            State::Done => return None,
            State::Blocked => false,
            State::Ready | State::Running(_) => true,
        };
        self.set(idx, State::Done);
        self.producer_done(idx);
        Some(announce)
    }

    /// Count `idx` as done at each of its consumers; returns the consumers
    /// left with no unfinished producer.
    fn producer_done(&mut self, idx: usize) -> Vec<usize> {
        let mut unblocked = Vec::new();
        for &c in &self.consumers[idx] {
            self.waiting[c] -= 1;
            if self.waiting[c] == 0 {
                unblocked.push(c);
            }
        }
        unblocked
    }

    /// A run with unfinished fragments and nothing running will never see
    /// another completion: the policy has wedged. Drivers call this after
    /// each decision round, once no timed arrival is still to come.
    ///
    /// # Errors
    /// [`SchedError::Wedged`] naming `policy` and the unfinished count.
    pub fn wedge_check(&self, policy: &'static str) -> Result<(), SchedError> {
        let unfinished = self.len() - self.count(Phase::Done);
        if unfinished > 0 && self.count(Phase::Running) == 0 {
            return Err(SchedError::Wedged { policy, unfinished });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → c ← b, c → d: ids 10, 11, 12, 13.
    fn diamond() -> FragTable<&'static str> {
        let mut t = FragTable::new();
        let a = t.add(TaskId(10), &[]);
        let b = t.add(TaskId(11), &[]);
        let c = t.add(TaskId(12), &[a, b]);
        t.add(TaskId(13), &[c]);
        t
    }

    fn run(t: &mut FragTable<&'static str>, idx: usize) -> Result<(), SchedError> {
        t.start(idx, || Ok("ctx"))
    }

    #[test]
    fn roots_release_once_and_consumers_on_their_last_producer() {
        let mut t = diamond();
        assert_eq!(t.release_roots(), vec![0, 1]);
        assert!(t.release_roots().is_empty(), "a second release finds nothing");
        assert!(!t.release(2), "a consumer is not released past its producers");
        run(&mut t, 0).unwrap();
        run(&mut t, 1).unwrap();
        assert_eq!(t.finish(0).unwrap(), ("ctx", vec![]));
        assert_eq!(t.phase(2), Phase::Blocked);
        assert_eq!(t.finish(1).unwrap(), ("ctx", vec![2]));
        assert_eq!(t.phase(2), Phase::Ready);
        run(&mut t, 2).unwrap();
        assert_eq!(t.finish(2).unwrap().1, vec![3]);
        run(&mut t, 3).unwrap();
        t.finish(3).unwrap();
        assert!(t.all_done());
        assert_eq!(t.wedge_check("P"), Ok(()));
    }

    #[test]
    fn lookup_hides_what_the_policy_was_never_told() {
        let mut t = diamond();
        t.release(0);
        assert_eq!(t.lookup(TaskId(10)), Ok(0));
        assert_eq!(t.lookup(TaskId(11)), Err(SchedError::UnknownTask { task: TaskId(11) }));
        assert_eq!(t.lookup(TaskId(999)), Err(SchedError::UnknownTask { task: TaskId(999) }));
        // Start by index says the same of a Blocked fragment.
        assert_eq!(run(&mut t, 2), Err(SchedError::UnknownTask { task: TaskId(12) }));
    }

    #[test]
    fn a_second_start_is_already_running_and_builds_nothing() {
        let mut t = diamond();
        t.release_roots();
        run(&mut t, 0).unwrap();
        let again = t.start(0, || -> Result<_, SchedError> { panic!("must not build") });
        assert_eq!(again, Err(SchedError::AlreadyRunning { task: TaskId(10) }));
        t.finish(0).unwrap();
        assert_eq!(run(&mut t, 0), Err(SchedError::AlreadyRunning { task: TaskId(10) }));
    }

    #[test]
    fn a_failed_build_leaves_the_fragment_ready() {
        let mut t = diamond();
        t.release_roots();
        #[derive(Debug, PartialEq)]
        enum BuildError {
            Sched(SchedError),
            NoSuchRelation,
        }
        impl From<SchedError> for BuildError {
            fn from(e: SchedError) -> Self {
                BuildError::Sched(e)
            }
        }
        assert_eq!(t.start(0, || Err(BuildError::NoSuchRelation)), Err(BuildError::NoSuchRelation));
        assert_eq!(t.phase(0), Phase::Ready);
        assert_eq!(t.count(Phase::Running), 0);
        let blocked = BuildError::Sched(SchedError::UnknownTask { task: TaskId(12) });
        assert_eq!(t.start(2, || Err(BuildError::NoSuchRelation)), Err(blocked));
    }

    #[test]
    fn only_a_running_fragment_has_a_payload_to_adjust() {
        let mut t = diamond();
        t.release_roots();
        let not_running = Err(SchedError::NotRunning { task: TaskId(10) });
        assert_eq!(t.running(0).copied(), not_running, "Ready");
        run(&mut t, 0).unwrap();
        *t.running_mut(0).unwrap() = "adjusted";
        assert_eq!(t.running(0), Ok(&"adjusted"));
        assert_eq!(t.iter_running().collect::<Vec<_>>(), vec![(0, &"adjusted")]);
        t.finish(0).unwrap();
        assert_eq!(t.running(0).copied(), not_running, "Done");
        assert_eq!(t.running_mut(2).err(), Some(SchedError::NotRunning { task: TaskId(12) }));
    }

    #[test]
    fn duplicate_completion_is_a_typed_error_not_a_panic() {
        // A second completion for an already-finalized fragment used to
        // panic the master; it is SchedError::DuplicateCompletion.
        let mut t = diamond();
        t.release_roots();
        run(&mut t, 0).unwrap();
        t.finish(0).unwrap();
        assert_eq!(t.finish(0).err(), Some(SchedError::DuplicateCompletion { task: TaskId(10) }));
        assert_eq!(t.phase(0), Phase::Done, "state must stay Done");
    }

    #[test]
    fn completion_for_a_never_started_fragment_is_not_running() {
        let mut t = diamond();
        t.release_roots();
        assert_eq!(t.finish(1).err(), Some(SchedError::NotRunning { task: TaskId(11) }));
        assert_eq!(t.phase(1), Phase::Ready, "state must be left as it was");
        assert_eq!(t.finish(2).err(), Some(SchedError::NotRunning { task: TaskId(12) }));
        assert_eq!(t.phase(2), Phase::Blocked);
    }

    #[test]
    fn retire_announces_only_what_the_policy_knows_and_releases_nobody() {
        let mut t = diamond();
        t.release_roots();
        run(&mut t, 0).unwrap();
        // Cancel the whole query, producers first: Running, Ready, Blocked ×2.
        assert_eq!(t.retire(0), Some(true));
        assert_eq!(t.retire(1), Some(true));
        assert_eq!(t.phase(2), Phase::Blocked, "its producers were retired, not finished");
        assert_eq!(t.retire(2), Some(false));
        assert_eq!(t.retire(3), Some(false));
        assert_eq!(t.retire(3), None, "already Done");
        assert!(t.all_done());
    }

    #[test]
    fn a_consumer_of_a_retired_producer_still_waits_for_the_live_one() {
        let mut t = diamond();
        t.release_roots();
        run(&mut t, 1).unwrap();
        assert_eq!(t.retire(0), Some(true));
        assert_eq!(t.finish(1).unwrap().1, vec![2], "the last producer to finish releases it");
    }

    #[test]
    fn wedged_means_unfinished_with_nothing_running() {
        let mut t = diamond();
        assert_eq!(t.wedge_check("P"), Err(SchedError::Wedged { policy: "P", unfinished: 4 }));
        t.release_roots();
        run(&mut t, 0).unwrap();
        assert_eq!(t.wedge_check("P"), Ok(()));
        t.finish(0).unwrap();
        assert_eq!(t.wedge_check("P"), Err(SchedError::Wedged { policy: "P", unfinished: 3 }));
        assert_eq!(FragTable::<()>::new().wedge_check("P"), Ok(()));
    }

    #[test]
    fn a_repeated_id_resolves_to_its_first_fragment() {
        let mut t: FragTable<()> = FragTable::new();
        t.add(TaskId(7), &[]);
        t.add(TaskId(7), &[]);
        t.release_roots();
        assert_eq!(t.lookup(TaskId(7)), Ok(0));
    }

    #[test]
    fn from_dag_mirrors_the_dag_index_for_index() {
        use crate::task::{IoKind, TaskProfile};
        let p = |id| TaskProfile::new(TaskId(id), 1.0, 10.0, IoKind::Sequential);
        let mut dag = FragmentDag::new();
        let a = dag.add(p(5), &[]);
        dag.add(p(6), &[a]);
        let mut t: FragTable<()> = FragTable::from_dag(&dag);
        assert_eq!(t.len(), 2);
        assert_eq!(t.release_roots(), vec![a]);
        assert_eq!(t.lookup(TaskId(5)), Ok(a));
    }
}

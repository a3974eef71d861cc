//! Order dependencies between plan fragments of a single query.
//!
//! Within one bushy plan, a fragment may consume the materialized output of
//! other fragments (across blocking edges), so it only becomes runnable when
//! all of its producers have finished. Section 4 notes the scheduling
//! algorithm "only needs to check if a task is ready before choosing it to
//! execute" — [`crate::fluid::FluidSim`] and the execution engines do exactly
//! that, driven by this DAG type.

use crate::task::TaskProfile;

/// A set of plan fragments plus producer→consumer dependencies.
#[derive(Debug, Clone, Default)]
pub struct FragmentDag {
    tasks: Vec<TaskProfile>,
    /// `deps[i]` lists the indices that must finish before task `i` can run.
    deps: Vec<Vec<usize>>,
}

impl FragmentDag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fragment whose producers are the (already-added) indices in
    /// `deps`. Returns the fragment's index.
    ///
    /// # Panics
    /// Panics if any dependency index is not already present — building
    /// bottom-up guarantees acyclicity by construction.
    pub fn add(&mut self, task: TaskProfile, deps: &[usize]) -> usize {
        let idx = self.tasks.len();
        for &d in deps {
            assert!(d < idx, "dependency {d} of task {idx} not yet added (forward edges are not allowed)");
        }
        self.tasks.push(task);
        self.deps.push(deps.to_vec());
        idx
    }

    /// Number of fragments.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the DAG holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The fragment profiles, indexed by insertion order.
    pub fn tasks(&self) -> &[TaskProfile] {
        &self.tasks
    }

    /// Producers of fragment `i`.
    pub fn deps_of(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Indices with no dependencies (runnable immediately).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.tasks.len()).filter(|&i| self.deps[i].is_empty()).collect()
    }

    /// Splice another DAG into this one (for scheduling the fragments of
    /// several queries together). Task ids must already be globally unique;
    /// dependencies of `other` are re-based onto this DAG's index space.
    ///
    /// # Panics
    /// Panics if a task id of `other` already exists here.
    pub fn append(&mut self, other: &FragmentDag) -> usize {
        let offset = self.tasks.len();
        for t in other.tasks() {
            assert!(
                self.tasks.iter().all(|mine| mine.id != t.id),
                "duplicate task id {} when merging fragment DAGs",
                t.id
            );
        }
        for i in 0..other.len() {
            let deps: Vec<usize> = other.deps_of(i).iter().map(|&d| d + offset).collect();
            self.tasks.push(other.tasks()[i].clone());
            self.deps.push(deps);
        }
        offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{IoKind, TaskId};

    fn t(id: u64, time: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), time, 20.0, IoKind::Sequential)
    }

    #[test]
    fn bottom_up_construction_tracks_roots() {
        let mut dag = FragmentDag::new();
        let a = dag.add(t(0, 1.0), &[]);
        let b = dag.add(t(1, 2.0), &[]);
        let c = dag.add(t(2, 3.0), &[a, b]);
        assert_eq!(dag.roots(), vec![a, b]);
        assert_eq!(dag.deps_of(c), &[a, b]);
        assert_eq!(dag.len(), 3);
    }

    #[test]
    #[should_panic(expected = "forward edges")]
    fn forward_dependencies_are_rejected() {
        let mut dag = FragmentDag::new();
        dag.add(t(0, 1.0), &[3]);
    }

    #[test]
    fn append_rebases_dependencies() {
        let mut a = FragmentDag::new();
        let a0 = a.add(t(0, 1.0), &[]);
        let _a1 = a.add(t(1, 2.0), &[a0]);
        let mut b = FragmentDag::new();
        let b0 = b.add(t(10, 3.0), &[]);
        let _b1 = b.add(t(11, 4.0), &[b0]);
        let off = a.append(&b);
        assert_eq!(off, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(a.deps_of(3), &[2]);
        assert_eq!(a.roots(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn append_rejects_id_collisions() {
        let mut a = FragmentDag::new();
        a.add(t(0, 1.0), &[]);
        let mut b = FragmentDag::new();
        b.add(t(0, 1.0), &[]);
        a.append(&b);
    }

    #[test]
    fn empty_dag_reports_sensibly() {
        let dag = FragmentDag::new();
        assert!(dag.is_empty());
        assert!(dag.roots().is_empty());
    }
}

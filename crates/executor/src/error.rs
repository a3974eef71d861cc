//! The executor's typed failure taxonomy.

use xprs_scheduler::error::SchedError;

use crate::io::IoFault;

/// Why a run could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A worker thread panicked; the run was drained and abandoned.
    WorkerPanicked {
        /// Global fragment index the worker was staffing.
        fragment: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The scheduling policy misbehaved (diverged, wedged, referenced an
    /// unknown task, double-started or double-completed a fragment). The
    /// run was drained and abandoned.
    Sched {
        /// The typed scheduler error.
        source: SchedError,
        /// Fragments that had completed at the failure instant.
        completed: usize,
        /// Total fragments in the run.
        total: usize,
    },
    /// A fragment program referenced a relation the catalog does not hold.
    UnknownRelation {
        /// Global fragment index.
        fragment: usize,
        /// The missing relation's name.
        name: String,
    },
    /// A disk read failed unrecoverably (every bounded retry exhausted);
    /// the run was drained and abandoned.
    IoFault {
        /// Global fragment index whose worker hit the fault.
        fragment: usize,
        /// The underlying fault.
        fault: IoFault,
    },
    /// A merge-indexed probe needed an index on `a` that the relation does
    /// not have (a planning/catalog mismatch); the run was drained and
    /// abandoned.
    IndexMissing {
        /// Global fragment index whose worker hit the probe.
        fragment: usize,
        /// The unindexed relation's name.
        name: String,
    },
    /// A query brought no fragments, so none is its root.
    RootMissing {
        /// Query index in the submitted batch.
        query: usize,
    },
    /// A query's root fragment completed without materializing output.
    OutputMissing {
        /// Query index in the submitted batch.
        query: usize,
    },
    /// A fragment was started before one of its producers materialized —
    /// the readiness protocol was violated.
    ProducerNotMaterialized {
        /// The consumer fragment being started.
        fragment: usize,
        /// The producer whose output is missing.
        producer: usize,
    },
    /// A fragment program reads a fragment not emitted before it, names a
    /// relation the query does not bind, or walks a key domain without
    /// reading any fragment — a hand-built fragment set the optimizer never
    /// cut. The run refuses to start.
    MalformedFragment {
        /// Query index in the submitted batch.
        query: usize,
        /// The offending fragment's index within the query.
        fragment: usize,
    },
    /// A run was handed cancel tokens, but not exactly one per query (an
    /// empty token slice means "nothing is cancellable" and is accepted).
    /// Refused before any machine or pool is built.
    TokenCountMismatch {
        /// Tokens supplied.
        tokens: usize,
        /// Queries submitted.
        queries: usize,
    },
    /// The configuration cannot describe a machine to run on: a negative or
    /// non-finite `scale`, no processors, no disks. Refused
    /// before any machine or pool is built.
    InvalidConfig {
        /// The offending `ExecConfig` field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanicked { fragment, message } => {
                write!(f, "worker staffing fragment {fragment} panicked: {message}")
            }
            ExecError::Sched { source, completed, total } => {
                write!(f, "scheduling failed with {completed}/{total} fragments complete: {source}")
            }
            ExecError::UnknownRelation { fragment, name } => {
                write!(f, "fragment {fragment} references unknown relation {name:?}")
            }
            ExecError::IoFault { fragment, fault } => {
                write!(f, "fragment {fragment}: {fault}")
            }
            ExecError::IndexMissing { fragment, name } => {
                write!(f, "fragment {fragment}: merge-indexed probe over unindexed {name:?}")
            }
            ExecError::RootMissing { query } => {
                write!(f, "query {query} has no root fragment")
            }
            ExecError::OutputMissing { query } => {
                write!(f, "query {query}'s root fragment finished without output")
            }
            ExecError::ProducerNotMaterialized { fragment, producer } => {
                write!(
                    f,
                    "fragment {fragment} started before producer {producer} materialized"
                )
            }
            ExecError::MalformedFragment { query, fragment } => {
                write!(
                    f,
                    "query {query}: malformed fragment {fragment} (it reads a later fragment, \
                     an unbound relation, or a key domain with no input)"
                )
            }
            ExecError::TokenCountMismatch { tokens, queries } => {
                write!(
                    f,
                    "one cancel token per query (or none at all): {tokens} tokens for \
                     {queries} queries"
                )
            }
            ExecError::InvalidConfig { field, value } => {
                write!(f, "invalid executor configuration: {field} = {value}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Sched { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_scheduler::TaskId;

    #[test]
    fn sched_exec_error_exposes_its_source() {
        use std::error::Error;
        let e = ExecError::Sched {
            source: SchedError::DuplicateCompletion { task: TaskId(1) },
            completed: 2,
            total: 5,
        };
        assert!(e.to_string().contains("2/5"));
        assert!(e.source().is_some());
        let e = ExecError::UnknownRelation { fragment: 7, name: "ghost".to_string() };
        assert!(e.to_string().contains("ghost"));
    }
}

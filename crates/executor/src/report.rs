//! What goes into a run and what comes out: [`QueryRun`], [`QueryResult`]
//! and the [`ExecReport`].

use std::sync::Arc;

use xprs_disk::ClassStats;
use xprs_optimizer::OptimizedQuery;
use xprs_scheduler::MachineConfig;
#[cfg(doc)]
use xprs_scheduler::TaskProfile;

use crate::io::MachineStats;
use crate::obs::{ExecMetrics, FragmentProfile, QueryProfile, UtilSample};
use crate::program::Materialized;
use crate::worker::RelBinding;

/// One query to execute: the optimizer's output plus concrete selection
/// ranges for each of the query's relations.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Optimized plan with fragment estimates.
    pub optimized: OptimizedQuery,
    /// Per-relation inclusive selection range on `a` (aligned with the
    /// query's relation list).
    pub bindings: Vec<RelBinding>,
}

/// Result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The root fragment's output, sorted by key.
    pub rows: Arc<Materialized>,
    /// Wall-clock seconds from run start to query completion.
    pub finished_at: f64,
}

/// Result of a whole run.
#[derive(Debug)]
pub struct ExecReport {
    /// Per-query results, in submission order.
    pub results: Vec<QueryResult>,
    /// Machine statistics (I/O class mix).
    pub stats: MachineStats,
    /// Per-shard buffer-pool counters (empty when buffering is disabled).
    pub pool_shards: Vec<xprs_storage::PoolStats>,
    /// Buffer-pool pins still outstanding when the run finished. Any value
    /// above zero is a pin leak: some reader fetched a page and never
    /// released it, permanently shrinking the pool.
    pub pool_pinned_at_exit: u64,
    /// Total wall-clock seconds.
    pub wall: f64,
    /// OS threads the worker pool created over the whole run.
    pub pool_threads: u64,
    /// Worker-slot staffing jobs submitted over the whole run.
    pub pool_jobs: u64,
    /// Worker slots declared dead by the patrol and replaced, summed over
    /// the fragment profiles.
    pub worker_recoveries: u64,
    /// Times the observed I/O rate drifted outside the tolerance band and
    /// the policy was re-entered with a corrected machine model.
    pub recalibrations: u64,
    /// The machine model the run was configured with.
    pub machine: MachineConfig,
    /// Wall seconds per simulated second the run was throttled to.
    pub scale: f64,
    /// Per-disk per-class request counts and busy time, indexed by disk.
    pub disk_classes: Vec<ClassStats>,
    /// Simulated CPU seconds consumed across all workers.
    pub cpu_busy: f64,
    /// Per-query fragment profiles, in submission order.
    pub profiles: Vec<QueryProfile>,
    /// Cumulative machine counters sampled at every scheduling decision;
    /// consecutive samples bracket the pairing windows the utilization
    /// audit measures.
    pub samples: Vec<UtilSample>,
    /// Parallelism adjustments applied across all fragments.
    pub adjusts: u64,
    /// Fragment heartbeats (`staffed + units`), summed over the profiles.
    pub heartbeats: u64,
    /// Quiet patrol ticks the master ran (dead-worker sweep + drift check).
    pub patrol_ticks: u64,
    /// Buffer-pool pages granted to fragments at admission, summed over the
    /// run. Zero when no fragment declared it holds anything — every
    /// single-fragment query ([`TaskProfile::memory`]).
    pub mem_granted_pages: u64,
    /// Pages released back as fragments completed. Equal to
    /// `mem_granted_pages` on any successful run — a gap is a grant leak.
    pub mem_released_pages: u64,
    /// Fragments that had to wait in the admission queue because the pool
    /// was over-committed when their start was decided.
    pub mem_grant_waits: u64,
    /// Spill runs cut, summed over the fragment profiles.
    pub spill_chunks: u64,
    /// Rows spilled, summed over the fragment profiles.
    pub spill_rows: u64,
    /// The machine's hot-path metric registry (cumulative over a shared
    /// session's runs). `Some` on every run: the `Option` is kept only
    /// because `benchmark/` still reads it as one; a later change to
    /// `benchmark/` makes it the registry itself.
    pub metrics: Option<Arc<ExecMetrics>>,
}

impl ExecReport {
    /// Every fragment's profile, query by query.
    pub fn fragments(&self) -> impl Iterator<Item = &FragmentProfile> {
        self.profiles.iter().flat_map(|q| &q.fragments)
    }

    /// Fragments whose observed page footprint exceeded the pages their
    /// [`TaskProfile::memory`] declared (detection only — the run is never
    /// failed for it; disk-resident scans re-reading evicted pages land
    /// here routinely).
    pub fn footprint_overruns(&self) -> u64 {
        let overran =
            |f: &&FragmentProfile| f.declared_pages > 0 && f.observed_pages > f.declared_pages;
        self.fragments().filter(overran).count() as u64
    }
}

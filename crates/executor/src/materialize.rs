//! Fragment-barrier materialization: the workers' locally sorted runs
//! become one key-ordered, CSR-indexed [`Materialized`] — merged serially on
//! the master or farmed to the worker pool — and the heavy-hitter keys of a
//! key-domain merge, withheld from the workers, are computed here and fanned
//! across the pool.

use std::collections::HashMap;
use std::sync::Arc;

use xprs_optimizer::program::{Driver, FragmentProgram, PipelineOp};
use xprs_storage::runs::{merge_runs, split_runs_stats};
use xprs_storage::Tuple;

use crate::io::Machine;
use crate::master::Executor;
use crate::obs::MergeProfile;
use crate::pool::WorkerPool;
use crate::program::Materialized;
use crate::staffing::UnitSpace;
use crate::worker::FragCtx;

/// One pool-merge task: merges a disjoint key sub-range of the runs.
type MergeTask = Box<dyn FnOnce() -> Vec<(i32, Tuple)> + Send>;

/// Fragment outputs at least this many rows long have their sorted worker
/// runs merged in parallel on the worker pool; smaller outputs are merged
/// serially on the master, where splitting would cost more than it buys.
const PARALLEL_MERGE_MIN_ROWS: usize = 4096;

impl Executor {
    /// Fragment-barrier materialization.
    ///
    /// The sink holds the workers' locally sorted runs: a stable k-way
    /// merge (O(n log k), no re-sort) produces the key-ordered rows, and
    /// for outputs past [`PARALLEL_MERGE_MIN_ROWS`] the merge itself is
    /// farmed to the persistent worker pool — the runs are split at key
    /// boundaries into one disjoint sub-range per modelled processor,
    /// merged concurrently, and concatenated. The fan-out is the machine's,
    /// not the host's: a one-processor machine merges serially. A single
    /// counting pass then erects the CSR index.
    pub(crate) fn materialize(
        &self,
        ctx: &FragCtx,
        pool: &WorkerPool,
        machine: &Machine,
    ) -> (Materialized, MergeProfile) {
        let mut runs = ctx.out.harvest_runs();
        let ways = self.cfg.machine.n_procs as usize;
        if !ctx.hot_keys.is_empty() {
            // The hot keys' output was withheld from the workers; compute
            // it now, fanned across the pool with the small side
            // replicated, and inject the ordered chunks as extra runs.
            // Only these runs carry hot keys, so the stable merge
            // concatenates them in chunk order — byte-identical to the
            // single-worker emission order.
            runs.extend(hot_key_fanout(ctx, pool, ways));
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        for r in &runs {
            machine.metrics().merge_run_rows.observe(r.len() as u64);
        }
        let mut profile = MergeProfile {
            runs: runs.len() as u64,
            rows: total as u64,
            ways: 1,
            parallel: false,
            hot_keys: ctx.hot_keys.len() as u64,
            way_rows_max: 0,
            way_rows_mean: 0,
        };
        if ways <= 1 || runs.len() <= 1 || total < PARALLEL_MERGE_MIN_ROWS {
            // ≤ 1 run needs no merge at all — splitting it across the
            // pool would be pure copy overhead.
            return (Materialized::from_runs(runs), profile);
        }
        profile.ways = ways as u64;
        profile.parallel = true;
        let (groups, stats) = split_runs_stats(runs, ways);
        let mut hot = ctx.hot_keys.clone();
        hot.extend(&stats.hot_keys);
        hot.sort_unstable();
        hot.dedup();
        profile.hot_keys = hot.len() as u64;
        profile.way_rows_max = stats.group_rows.iter().copied().max().unwrap_or(0) as u64;
        profile.way_rows_mean = stats.group_rows.iter().map(|&r| r as u64).sum::<u64>()
            / stats.group_rows.len().max(1) as u64;
        for &r in &stats.group_rows {
            machine.metrics().merge_way_rows.observe(r as u64);
        }
        let tasks: Vec<MergeTask> = groups
            .into_iter()
            .map(|group| Box::new(move || merge_runs(group)) as MergeTask)
            .collect();
        let mut rows = Vec::with_capacity(total);
        for part in pool.scatter_gather(tasks) {
            rows.extend(part);
        }
        (Materialized::from_sorted_rows(rows), profile)
    }

    /// Heavy-hitter detection for a key-domain merge fragment, run before
    /// its workers are staffed (the Afrati et al. playbook: detect, then
    /// replicate the small side and split the hot key's *output*).
    ///
    /// A key's output size is the product of its match counts across the
    /// materialized inputs; a key is hot when that product strictly
    /// exceeds an even `1/ways` share of the total output — the same
    /// threshold `split_runs_stats` applies to sample mass. Keys found hot
    /// are *withheld from the workers* (see `scan_key`) and computed by
    /// the master at materialization, fanned across the pool.
    ///
    /// Scope: key-domain drivers whose ops are all `MergeWith` (every
    /// side materialized, so the product is known up front), outputs past
    /// [`PARALLEL_MERGE_MIN_ROWS`], and machines of more than one processor.
    pub(crate) fn hot_join_keys(
        &self,
        program: &FragmentProgram,
        inputs: &HashMap<usize, Arc<Materialized>>,
        units: &UnitSpace,
    ) -> Vec<i32> {
        if program.driver != Driver::KeyDomain
            || program.ops.is_empty()
            || !program.ops.iter().all(|op| matches!(op, PipelineOp::MergeWith { .. }))
        {
            return Vec::new();
        }
        let ways = u64::from(self.cfg.machine.n_procs);
        let UnitSpace::Keys { lo, hi } = *units else { return Vec::new() };
        if ways <= 1 || lo > hi {
            return Vec::new();
        }
        let deps: Vec<&Arc<Materialized>> = program
            .ops
            .iter()
            .map(|op| &inputs[&op.dep().expect("MergeWith always has a dep")])
            .collect();
        // Walk the first input's distinct keys (rows are key-sorted) and
        // take the match-count product per key.
        let rows = &deps[0].rows;
        let mut products: Vec<(i32, u64)> = Vec::new();
        let mut total = 0u64;
        let mut i = 0usize;
        while i < rows.len() {
            let k = rows[i].0;
            let mut j = i + 1;
            while j < rows.len() && rows[j].0 == k {
                j += 1;
            }
            if (k as i64) >= lo && (k as i64) <= hi {
                let mut prod = (j - i) as u64;
                for d in &deps[1..] {
                    prod = prod.saturating_mul(d.matches(k).count() as u64);
                    if prod == 0 {
                        break;
                    }
                }
                if prod > 0 {
                    total = total.saturating_add(prod);
                    products.push((k, prod));
                }
            }
            i = j;
        }
        if total < PARALLEL_MERGE_MIN_ROWS as u64 {
            return Vec::new();
        }
        products.retain(|&(_, p)| p > 1 && p.saturating_mul(ways) > total);
        products.into_iter().map(|(k, _)| k).collect()
    }
}

/// Compute the withheld heavy-hitter output of a key-domain merge fragment
/// on the worker pool.
///
/// For each hot key the *outer* (first `MergeWith`) side's matching rows
/// split into up to `ways` contiguous chunks; every chunk becomes one
/// scatter-gather task that crosses its rows with the replicated inner
/// sides (shared `Arc`s — replication in shared memory, no copy). A task
/// emits rows in exactly the worker pipeline's nesting order (outer
/// position, then inner positions), and chunks are returned in (key, chunk)
/// order, so concatenating them reproduces byte-for-byte what the single
/// worker owning the key's unit would have emitted.
fn hot_key_fanout(ctx: &FragCtx, pool: &WorkerPool, ways: usize) -> Vec<Vec<(i32, Tuple)>> {
    let deps: Vec<Arc<Materialized>> = ctx
        .program
        .ops
        .iter()
        .map(|op| ctx.inputs[&op.dep().expect("hot fan-out over MergeWith ops")].clone())
        .collect();
    let (outer, inners) = deps.split_first().expect("hot fan-out needs at least one dep");
    let mut tasks: Vec<MergeTask> = Vec::new();
    for &key in &ctx.hot_keys {
        let rows: Vec<Tuple> = outer.matches(key).cloned().collect();
        if rows.is_empty() {
            continue;
        }
        let chunk_rows = rows.len().div_ceil(ways.max(1));
        let mut rows = rows.into_iter().peekable();
        while rows.peek().is_some() {
            let chunk: Vec<Tuple> = rows.by_ref().take(chunk_rows).collect();
            let inners = inners.to_vec();
            tasks.push(Box::new(move || {
                let mut out = Vec::new();
                for t in &chunk {
                    hot_cross(key, Tuple::from_values(vec![]).join(t), &inners, &mut out);
                }
                out
            }) as MergeTask);
        }
    }
    if tasks.is_empty() {
        return Vec::new();
    }
    pool.scatter_gather(tasks)
}

/// Inner loops of the hot-key cross product, mirroring the worker
/// pipeline's `MergeWith` recursion: one nested loop per remaining input,
/// joining in input order, emitting at the leaves.
fn hot_cross(key: i32, row: Tuple, inners: &[Arc<Materialized>], out: &mut Vec<(i32, Tuple)>) {
    match inners.split_first() {
        None => out.push((key, row)),
        Some((next, rest)) => {
            for m in next.matches(key) {
                hot_cross(key, row.join(m), rest, out);
            }
        }
    }
}

//! What a `Start` builds before the first worker is staffed: the
//! fragment's unit space, the backends that realize the policy's `x`, its
//! spill budget, and the shared [`FragCtx`] the workers are born with.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

use xprs_optimizer::program::{Driver, PipelineOp};
use xprs_scheduler::{IoKind, MachineConfig, TaskProfile};
use xprs_storage::partition::{StealPartition, DEFAULT_MORSEL_UNITS};
use xprs_storage::PAGE_SIZE;

use crate::io::Machine;
use crate::master::{ControlFail, Executor, FragSlot, MasterMsg};
use crate::program::Materialized;
use crate::worker::{FragCtx, OutputSink, RelBinding, SpillSpec};

impl Executor {
    /// The shared context of fragment `gid` started at `x` processors:
    /// inputs bound, unit space dealt over the backends that realize `x`,
    /// heavy hitters withheld, page demand and spill budget fixed. Nothing
    /// is staffed and no memory is reserved here; what a reservation must
    /// cover is [`FragCtx::demand_pages`].
    pub(crate) fn fragment_ctx(
        &self,
        frags: &[FragSlot],
        gid: usize,
        x: u32,
        machine: &Machine,
        tx: &Sender<MasterMsg>,
    ) -> Result<Arc<FragCtx>, ControlFail> {
        // Materialized inputs, keyed by query-local fragment index. A
        // missing producer output is a readiness-protocol violation,
        // surfaced as a typed error rather than a panic.
        let mut inputs: HashMap<usize, Arc<Materialized>> = HashMap::new();
        for (local, &dep) in frags[gid].program.deps().zip(&frags[gid].deps) {
            let out = frags[dep]
                .output
                .clone()
                .ok_or(ControlFail::Producer { fragment: gid, producer: dep })?;
            inputs.insert(local, out);
        }

        // Every relation the program reads must be in the catalog before
        // anything is staffed: the driver's is resolved here, and a
        // merge-indexed probe's inside the worker, which relies on it.
        let relation = |rel: usize| {
            let name = &frags[gid].bindings[rel].name;
            let fail = || ControlFail::Relation { fragment: gid, name: name.clone() };
            self.catalog.get(name).ok_or_else(fail)
        };
        // The fragment's unit space per driver: pages for a sequential
        // scan (cut into tuple slices when there are fewer pages than
        // backends), a key interval for index scans and key-domain walks.
        let units = match frags[gid].program.driver {
            Driver::PageScan { rel } => UnitSpace::Pages(relation(rel)?.heap.n_blocks()),
            Driver::KeyScan { rel } => {
                let s = relation(rel)?.stats();
                let (lo, hi) = frags[gid].bindings[rel].pred;
                UnitSpace::Keys { lo: lo.max(s.min_a) as i64, hi: hi.min(s.max_a) as i64 }
            }
            Driver::KeyDomain => {
                // Intersection of the materialized inputs' key ranges.
                let mut lo = i64::MIN;
                let mut hi = i64::MAX;
                for op in &frags[gid].program.ops {
                    if let Some(dep) = op.dep() {
                        let m = &inputs[&dep];
                        lo = lo.max(m.min_key().map_or(i64::MAX, |k| k as i64));
                        hi = hi.min(m.max_key().map_or(i64::MIN, |k| k as i64));
                    }
                }
                UnitSpace::Keys { lo, hi }
            }
        };
        for op in &frags[gid].program.ops {
            if let PipelineOp::MergeIndexed { rel } = *op {
                relation(rel)?;
            }
        }
        let n_backends = self.backends_for(x, &frags[gid].profile, units.total());
        let page_slices = match units {
            UnitSpace::Pages(pages) => page_slices(pages, n_backends),
            UnitSpace::Keys { .. } => 1,
        };
        let total_units = units.total() * page_slices;
        // Heavy hitters of a key-domain merge are decided before staffing:
        // the workers are born knowing which keys to skip, and the master
        // owes their output at materialization.
        let hot_keys = self.hot_join_keys(&frags[gid].program, &inputs, &units);
        let mut part =
            StealPartition::new(total_units, DEFAULT_MORSEL_UNITS, n_backends, gid as u64);
        // Whole-page units are striped blocks (`unit % n_disks` = home
        // disk): deal them one page per morsel and take from the lowest
        // head of the started slots, so the backends read one front.
        // Key-space and sliced fragments have no unit→disk mapping: they
        // keep the default grain and take from their own deque first.
        if matches!(frags[gid].program.driver, Driver::PageScan { .. }) && page_slices == 1 {
            part = part.with_disks(self.cfg.machine.n_disks);
        }
        // A worker fault at "slot s after k units" fires on every
        // interleaving only if the slot keeps its deal until then, and a
        // death leaves its replacement work only if it keeps one unit more.
        for (slot, units) in machine.fault_plan().iter().flat_map(|p| p.worker_fault_points(gid)) {
            if slot < n_backends as usize {
                part.reserve(slot, units + 1);
            }
        }

        // Memory admission: what the fragment declared it holds, clamped to
        // the whole pool, is the page demand it must be granted before it is
        // staffed. A grant that covers the declaration leaves nothing to
        // bound; only a clamped one — the pool cannot hold what the fragment
        // does — fixes a spill budget, before the context exists, so the
        // workers are born knowing it. A fragment that holds nothing (every
        // single-fragment query) reserves nothing.
        let mut demand_pages = 0;
        let mut spill = None;
        if let (true, Some(pool)) = (total_units > 0, machine.pool()) {
            let declared = frags[gid].declared_pages();
            demand_pages = declared.min(pool.capacity() as u64);
            if declared > demand_pages {
                let row_bytes = self.row_bytes_estimate(&frags[gid].bindings);
                let grant_bytes = demand_pages * PAGE_SIZE as u64;
                spill = Some(SpillSpec {
                    threshold_rows: AtomicUsize::new(spill_threshold(
                        grant_bytes,
                        n_backends,
                        row_bytes,
                    )),
                    grant_bytes,
                    row_bytes,
                    chunks: AtomicU64::new(0),
                    rows: AtomicU64::new(0),
                });
            }
        }

        Ok(Arc::new(FragCtx {
            gid,
            program: frags[gid].program.clone(),
            rels: frags[gid].bindings.clone(),
            inputs,
            part: Arc::new(part),
            key_base: units.base(),
            page_slices,
            total_units,
            outstanding: AtomicU32::new(0),
            staffed: AtomicU64::new(0),
            out: OutputSink::default(),
            target_parallelism: AtomicU32::new(x),
            backends: AtomicU32::new(n_backends),
            done: AtomicBool::new(false),
            model_end: Mutex::new(None),
            stop: AtomicBool::new(false),
            pages_read: AtomicU64::new(0),
            done_tx: tx.clone(),
            demand_pages,
            spill,
            hot_keys,
        }))
    }

    /// [`staff_backends`] under this executor's machine.
    /// Unthrottled (`scale == 0`) a read takes no wall time, so there is
    /// no disk wait for a surplus backend to cover — it would only contend
    /// for the host's real cores — and a backend is a processor.
    pub(crate) fn backends_for(&self, x: u32, profile: &TaskProfile, units: u64) -> u32 {
        if self.cfg.scale == 0.0 {
            return x;
        }
        staff_backends(x, profile, &self.cfg.machine, units)
    }

    /// Estimated bytes per output row for a fragment's spill accounting:
    /// the widest stored tuple among the query's relations (heap pages over
    /// tuple count), defaulting to 64 when no relation has stats. An
    /// estimate is enough — it sizes simulated spill blocks; it does not
    /// place data.
    fn row_bytes_estimate(&self, bindings: &[RelBinding]) -> usize {
        bindings
            .iter()
            .filter_map(|b| {
                let rel = self.catalog.get(&b.name)?;
                let s = rel.stats();
                (s.n_tuples > 0)
                    .then(|| ((s.n_blocks * PAGE_SIZE as u64) / s.n_tuples).max(1) as usize)
            })
            .max()
            .unwrap_or(64)
    }
}

/// A fragment's unit space before it is wrapped in a partition: heap pages
/// or an inclusive key interval.
pub(crate) enum UnitSpace {
    Pages(u64),
    Keys { lo: i64, hi: i64 },
}

impl UnitSpace {
    fn total(&self) -> u64 {
        match *self {
            UnitSpace::Pages(n) => n,
            UnitSpace::Keys { lo, hi } => {
                if hi < lo {
                    0
                } else {
                    (hi - lo + 1) as u64
                }
            }
        }
    }

    /// Key that unit offset 0 maps to (0 for page scans).
    fn base(&self) -> i64 {
        match *self {
            UnitSpace::Pages(_) => 0,
            UnitSpace::Keys { lo, .. } => lo,
        }
    }
}

/// Backends that realize the rate the policy planned for `x` processors.
///
/// The policy's `C_i·x` arithmetic takes each processor to sustain the
/// rate `C_i` the fragment was profiled at — one backend, solo reads at
/// `1/seq_bw`. A read of a parallel scan is served at `1/almost_seq_bw`
/// instead, so a page spends `1/C_i + δ` in a backend's hands with
/// `δ = 1/almost_seq_bw − 1/seq_bw`, and by Little's law holding the
/// planned `λ = C_i·x` takes `λ·(1/C_i + δ) = x·(1 + C_i·δ)` pages in
/// flight. A backend keeps one page of read-ahead (`worker.rs`), so it
/// carries up to two requests and the formula is a *lower bound* on the
/// requests in flight, not their count: the second request only hides the
/// page's CPU behind its read, it does not shorten the read, and an
/// IO-bound page is nearly all read. Measured with read-ahead on
/// (`disk_mix`, seed 104, alternating, `latency_p50_ms`): `backends = x`
/// for every fragment 2182 / 2196 ms, this staffing 1979 / 1966 ms (the
/// prototype that sized the change: 2271 / 2181 vs 2107 / 2007) — it still
/// buys 7–10 %, so it stays (`docs/results/readahead.md` §5). A
/// backend blocked on a disk holds no processor, and the CPU gate admits
/// `n_procs` computing backends however many exist, so the surplus costs
/// threads, not processors.
///
/// `x = 1` keeps its solo stream, and `Random` fragments are profiled at
/// the service time they run at (`δ = 0`). No backend is staffed without a
/// whole morsel of [`DEFAULT_MORSEL_UNITS`] to itself — a fragment of a few
/// dozen pages finishes before extra backends have woken — but never fewer
/// than `x`. `C_i` is taken at most `seq_bw`: no backend issues faster than a
/// solo stream.
fn staff_backends(x: u32, profile: &TaskProfile, machine: &MachineConfig, units: u64) -> u32 {
    if x < 2 || profile.io_kind != IoKind::Sequential {
        return x;
    }
    let delta = 1.0 / machine.almost_seq_bw - 1.0 / machine.seq_bw;
    let by_rate = (f64::from(x) * (1.0 + profile.io_rate.min(machine.seq_bw) * delta)).ceil();
    let whole_morsels = u32::try_from(units.div_ceil(DEFAULT_MORSEL_UNITS)).unwrap_or(u32::MAX);
    x.max((by_rate as u32).min(whole_morsels))
}

/// Tuple slices each page of a `pages`-page scan is cut into when it is
/// dealt over `backends`: one per backend when the pages alone cannot staff
/// them all, else 1. A page is otherwise the smallest unit of work, so a
/// 6-page scan at 8 backends would leave two idle and take a whole page's
/// CPU instead of `T/8`; sliced, every backend evaluates an equal share of
/// the tuples. Sibling slices read their page through the buffer pool, and
/// a hit on the page while its read is in flight waits for that read
/// (`io.rs`).
pub(crate) fn page_slices(pages: u64, backends: u32) -> u64 {
    if pages < u64::from(backends) {
        u64::from(backends)
    } else {
        1
    }
}

/// Rows one backend may buffer before cutting a spill run, so that
/// `backends` of them together stay inside the fragment's grant.
pub(crate) fn spill_threshold(grant_bytes: u64, backends: u32, row_bytes: usize) -> usize {
    (grant_bytes / (u64::from(backends.max(1)) * row_bytes.max(1) as u64)).max(1) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_scheduler::TaskId;

    #[test]
    fn backends_follow_littles_law_within_their_bounds() {
        let m = MachineConfig::paper_default();
        let scan = |c: f64| TaskProfile::new(TaskId(1), 10.0, c, IoKind::Sequential);
        let big = 4_000; // pages: whole morsels for any staffing below
        // (x, profile, units) → backends.
        let table = [
            // δ = 1/60 − 1/97: an IO-bound scan at C = 83 needs 2·1.53 → 4
            // backends to hold 166 io/s; a CPU-bound one at C = 11, 8·1.07 → 9.
            (2, scan(83.0), big, 4),
            (8, scan(11.0), big, 9),
            (3, scan(70.0), big, 5),
            // One processor keeps its solo sequential stream.
            (1, scan(83.0), big, 1),
            // Random fragments are profiled at the service time they run at.
            (4, TaskProfile::new(TaskId(1), 10.0, 30.0, IoKind::Random), big, 4),
            // 24 pages are two 16-page morsels: no third backend.
            (2, scan(83.0), 24, 2),
            // The cap never takes a backend away from the policy's x.
            (8, scan(11.0), 24, 8),
            (2, scan(83.0), 0, 2),
            // A rate no solo stream can issue counts as the solo rate.
            (2, scan(5_000.0), big, 4),
        ];
        for (x, profile, units, want) in table {
            let got = staff_backends(x, &profile, &m, units);
            assert_eq!(got, want, "x={x} C={} units={units}", profile.io_rate);
            assert!(got >= x, "never below the policy's processors");
        }
        // A machine whose parallel reads cost what solo reads do has δ = 0.
        let flat = MachineConfig { almost_seq_bw: 97.0, random_bw: 35.0, ..m };
        assert_eq!(staff_backends(4, &scan(83.0), &flat, big), 4);
    }

    #[test]
    fn pages_are_sliced_only_when_fewer_than_backends() {
        // (pages, backends) → slices per page.
        let table = [(6, 8, 8), (7, 8, 8), (8, 8, 1), (9, 8, 1), (1, 1, 1), (400, 9, 1)];
        for (pages, backends, want) in table {
            assert_eq!(page_slices(pages, backends), want, "{pages} pages over {backends}");
        }
    }

    #[test]
    fn spill_threshold_keeps_all_backends_inside_the_grant() {
        for (grant, backends, row) in [(24 * 8192u64, 4u32, 100usize), (8192, 13, 812), (1, 3, 64)] {
            let rows = spill_threshold(grant, backends, row) as u64;
            assert!(rows >= 1);
            assert!(rows == 1 || rows * u64::from(backends) * row as u64 <= grant);
        }
    }
}

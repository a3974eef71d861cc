//! The layer sweep: what `--trace 1` adds to a run.
//!
//! Every layer is measured from outside, two ways. *Probes* time one
//! public function in a single-threaded loop over a workload's own inputs
//! (`_mt`: two threads) and report the median ns/op over [`BATCHES`]
//! batches. *Counters* come from the public reports of short traced passes
//! of the five workloads, run here with the system's own metrics on. Each
//! probe and pass runs under a span, so the trace file shows where the
//! sweep's own time went.
//!
//! The sweep is the same whichever workload the run names: a per-layer
//! number that only one workload can produce (the issue's
//! `throughput_mtuples_s`, `makespan_sim_s`, `interactive_p95_ms`, …) is
//! reported under that workload's prefix.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::host::count_allocs;
use crate::stats;
use crate::sut::{
    machine_procs, plan_selection, run_once, runs, CatalogBuilder, Class, Db, DiskProbe,
    MachineProbe, Models, Planned, Policy, PoolDispatchProbe, PoolProbe, SchedulerProbe, Service,
    Speed, StealProbe,
};
use crate::trace::{Open, Tracer};
use crate::workloads::cached_join::{self, CachedJoin};
use crate::workloads::cached_scan::{self, CachedScan};
use crate::workloads::disk_mix::{DiskMix, MixTotals, SPEEDUP};
use crate::workloads::sched_sim::SchedSim;
use crate::workloads::service_open::{self, ServiceOpen};
use crate::workloads::{Pass, Rng, SetupTimes, Workload, CACHED_WORKERS};

/// Timed batches per probe.
const BATCHES: usize = 15;
/// Times a probe walks the scan relation's pages per batch, so a batch of a
/// ~50 ns operation still lasts about a millisecond.
const SCANS: u64 = 10;
/// Queries per trial of the sweep's short `cached_scan` passes.
const SWEEP_QUERIES: usize = 20;

/// Everything the sweep measured, by per-layer metric name.
#[derive(Default)]
pub struct Sweep {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Sweep {
    fn put(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Count a pass's operations and failures.
    fn count(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.failures.extend(pass.failures.iter().cloned());
    }

    /// Count a pass and take its named metrics.
    fn absorb(&mut self, pass: Pass) {
        self.count(&pass);
        self.values.extend(pass.named);
    }
}

struct Ctx<'a> {
    tr: &'a Tracer,
    root: &'a Open<'a>,
}

impl Ctx<'_> {
    /// Median ns per operation of `run`, which says how many operations it
    /// did; each batch first prepares its input untimed. The span is named
    /// after the metric the probe feeds.
    fn probe_with<I>(
        &self,
        metric: &'static str,
        mut prepare: impl FnMut() -> I,
        mut run: impl FnMut(I) -> u64,
    ) -> f64 {
        let _s = self.tr.span(metric, Some(self.root), None);
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let input = prepare();
                let t = Instant::now();
                let ops = black_box(run(input));
                t.elapsed().as_nanos() as f64 / ops.max(1) as f64
            })
            .collect();
        stats::median(&samples)
    }

    fn probe(&self, metric: &'static str, mut run: impl FnMut() -> u64) -> f64 {
        self.probe_with(metric, || (), |()| run())
    }

    fn span(&self, name: &'static str) -> Open<'_> {
        self.tr.span(name, Some(self.root), None)
    }

    fn setup<W: Workload>(&self, seed: u64) -> (W, SetupTimes) {
        let s = self.span("setup");
        W::setup(seed, self.tr, &s)
    }
}

/// A one-page relation and a full scan of it: the cheapest query there is.
fn noop_query() -> (Db, Planned) {
    let mut b = CatalogBuilder::new();
    b.load("tiny", (0..100).map(|k| (k, 0)));
    let db = b.finish();
    let q = plan_selection(&db, "tiny", (i32::MIN, i32::MAX));
    (db, q)
}

/// Run the whole sweep for `seed`.
pub fn run(seed: u64, tr: &Tracer) -> Sweep {
    let root = tr.span("sweep", None, None);
    let cx = Ctx { tr, root: &root };
    let mut sw = Sweep::default();
    scan_layers(&cx, seed, &mut sw);
    join_layers(&cx, seed, &mut sw);
    mix_layers(&cx, seed, &mut sw);
    service_layers(&cx, seed, &mut sw);
    sched_layers(&cx, seed, &mut sw);
    sw
}

/// `cached_scan` inputs: set-up stages, heap, pool, machine, steal and pool
/// dispatch probes, the 1/2/8-worker passes and what they attribute.
fn scan_layers(cx: &Ctx<'_>, seed: u64, sw: &mut Sweep) {
    let (scan, times) = cx.setup::<CachedScan>(seed);
    sw.put("workload.gen_s", times.generate_s);
    sw.put("catalog.load_s", times.load_s);
    sw.put("btree.build_s", times.index_s);
    let pages = scan.pages;
    // One batch of a page-granular probe: every page, `SCANS` times over.
    let walk = SCANS * pages;

    let heap_ns = cx.probe("heap.scan_ns_tuple", || {
        let (lo, hi) = cached_scan::PRED;
        black_box(scan.db.scan_count(cached_scan::REL, lo, hi));
        cached_scan::TUPLES
    });
    sw.put("heap.scan_ns_tuple", heap_ns);

    // Pool: the working set resident (hits), then a pool a 27th of it (misses).
    let touch_all = |p: &PoolProbe| {
        black_box((0..walk).filter(|i| p.touch(1, i % pages)).count());
        walk
    };
    let hot = PoolProbe::new(2 * pages as usize);
    touch_all(&hot);
    sw.put(
        "shardpool.hit_ns",
        cx.probe("shardpool.hit_ns", || touch_all(&hot)),
    );
    let cold = PoolProbe::new(64);
    sw.put(
        "shardpool.miss_ns",
        cx.probe("shardpool.miss_ns", || touch_all(&cold)),
    );
    let hit_mt = cx.probe("shardpool.hit_ns_mt", || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| touch_all(&hot));
            }
        });
        walk
    });
    sw.put("shardpool.hit_ns_mt", hit_mt);
    let reserve = cx.probe("shardpool.reserve_ns", || {
        black_box((0..walk).filter(|_| hot.reserve_release(16)).count());
        walk
    });
    sw.put("shardpool.reserve_ns", reserve);

    // Machine throttle at scale 0: a cached read, a compute charge.
    let machine = MachineProbe::new(Speed::Unthrottled, 2 * pages as usize);
    for b in 0..pages {
        machine.read(1, b);
    }
    let read_hit_ns = cx.probe("machine.read_hit_ns", || {
        black_box((0..walk).filter(|i| machine.read(1, i % pages)).count());
        walk
    });
    sw.put("machine.read_hit_ns", read_hit_ns);
    let compute_ns = cx.probe("machine.compute_ns", || {
        (0..walk).for_each(|_| machine.compute(1e-4));
        walk
    });
    sw.put("machine.compute_ns", compute_ns);
    // Sleep overshoot: 500 misses on one disk at ×20, wall against model.
    {
        let _s = cx.span("machine.sleep_overshoot");
        let throttled = MachineProbe::new(Speed::Scaled(SPEEDUP), 0);
        let t = Instant::now();
        for i in 0..500u64 {
            throttled.read(1, i * 4);
        }
        let wall_sim_s = t.elapsed().as_secs_f64() * SPEEDUP;
        sw.put(
            "machine.sleep_overshoot",
            wall_sim_s / throttled.disk_busy_sim_s().max(1e-9),
        );
    }

    // Unit claiming: one slot draining both deals, then a thread per slot.
    let deal = || StealProbe::new(walk, 2, seed);
    let claim_ns = cx.probe_with("steal.claim_ns", deal, |p| p.drain(0) + p.drain(1));
    sw.put("steal.claim_ns", claim_ns);
    let claim_mt = cx.probe_with("steal.claim_ns_mt", deal, |p| {
        let other = p.handle();
        std::thread::scope(|s| {
            let h = s.spawn(move || other.drain(1));
            p.drain(0) + h.join().expect("steal probe thread panicked")
        })
    });
    sw.put("steal.claim_ns_mt", claim_mt);

    let dispatch = PoolDispatchProbe::new();
    let tasks = machine_procs() as usize;
    let dispatch_ns = cx.probe("pool.dispatch_us", || {
        (0..20).map(|_| dispatch.dispatch(tasks) as u64).sum()
    });
    sw.put("pool.dispatch_us", dispatch_ns / 1e3);
    dispatch.close();

    // One 1-page query through a private executor: machine, threads, master.
    let (tiny, tiny_q) = noop_query();
    let noop_ns = cx.probe("master.noop_query_us", || {
        let q = std::slice::from_ref(&tiny_q);
        let _ = run_once(&tiny, q, Policy::Fixed(1), Speed::Unthrottled, false);
        1
    });
    sw.put("master.noop_query_us", noop_ns / 1e3);

    // The workload itself, traced, at 1, 2 and 8 workers.
    let pass_at = |workers: u32, seconds: f64| {
        let _s = cx
            .tr
            .span("pass.cached_scan", Some(cx.root), Some(u64::from(workers)));
        scan.measure_with(seconds, true, workers, SWEEP_QUERIES, cx.tr)
    };
    let two = pass_at(CACHED_WORKERS, 1.5);
    let one = pass_at(1, 1.0);
    let eight = pass_at(8, 1.0);
    let tput = Pass::throughput_ops_s;
    sw.put(
        "worker.scaling_eff",
        tput(&two) / (2.0 * tput(&one)).max(1e-9),
    );
    sw.put("worker.oversub_ratio", tput(&eight) / tput(&two).max(1e-9));
    let cpu_ns_tuple = two.named("scan.cpu_ns_per_tuple").unwrap_or(0.0);
    sw.put("executor.overhead_ns_tuple", cpu_ns_tuple - heap_ns);
    // Probe cost × operation count against the CPU one query took.
    let attributed = cached_scan::TUPLES as f64 * heap_ns
        + pages as f64 * (read_hit_ns + claim_ns + compute_ns)
        + f64::from(CACHED_WORKERS) * dispatch_ns;
    let query_cpu_ns = cpu_ns_tuple * cached_scan::TUPLES as f64;
    sw.put(
        "unattributed_share",
        1.0 - attributed / query_cpu_ns.max(1.0),
    );
    sw.count(&one);
    sw.count(&eight);
    sw.absorb(two);
    // Allocations per input tuple, on a pass of its own: counting costs an
    // atomic add per allocation and must not touch the timed passes.
    let (counted, allocs) = {
        let _s = cx.span("pass.cached_scan.allocs");
        let off = Tracer::off();
        count_allocs(|| scan.measure_with(0.0, false, CACHED_WORKERS, SWEEP_QUERIES, &off))
    };
    sw.count(&counted);
    sw.put(
        "heap.allocs_per_tuple",
        allocs as f64 / (counted.ops.max(1) * cached_scan::TUPLES) as f64,
    );
}

/// `cached_join` run shape: merge, split, CSR build and lookup probes, and
/// a traced pass.
fn join_layers(cx: &Ctx<'_>, seed: u64, sw: &mut Sweep) {
    // What the executor's workers hand the master: one key-sorted run per
    // worker, the build side split between them.
    let mut rng = Rng::new(seed ^ 0x10_1A);
    let mut key = || rng.below(cached_join::KEY_DOMAIN) as i32;
    let rows = cached_join::BUILD_TUPLES;
    let per_run = rows / u64::from(CACHED_WORKERS);
    let sorted_runs: Vec<runs::Run> = (0..CACHED_WORKERS)
        .map(|_| {
            let mut r: runs::Run = (0..per_run).map(|i| (key(), i)).collect();
            r.sort_by_key(|&(k, _)| k);
            r
        })
        .collect();
    let fresh = || sorted_runs.clone();
    let merge_ns = cx.probe_with("runs.merge_ns_row", fresh, |r| {
        black_box(runs::merge(r));
        rows
    });
    sw.put("runs.merge_ns_row", merge_ns);
    let split_ns = cx.probe_with("runs.split_ns_row", fresh, |r| {
        black_box(runs::split(r, CACHED_WORKERS as usize));
        rows
    });
    sw.put("runs.split_ns_row", split_ns);
    let merged = runs::merge(fresh());
    let build_ns = cx.probe("runs.csr_build_ns_row", || {
        black_box(runs::csr_build(&merged));
        rows
    });
    sw.put("runs.csr_build_ns_row", build_ns);
    let csr = runs::csr_build(&merged);
    let probes: Vec<i32> = (0..cached_join::PROBE_TUPLES).map(|_| key()).collect();
    let lookup_ns = cx.probe("runs.csr_lookup_ns", || {
        black_box(probes.iter().map(|&k| csr.lookup(k)).sum::<usize>());
        probes.len() as u64
    });
    sw.put("runs.csr_lookup_ns", lookup_ns);

    let (join, _) = cx.setup::<CachedJoin>(seed);
    let _s = cx.span("pass.cached_join");
    sw.absorb(join.measure(1.5, true, cx.tr));
}

/// `disk_mix`: the first task set under both policies with the system's
/// metrics on, the DES on the same set, and the disk model replaying it.
fn mix_layers(cx: &Ctx<'_>, seed: u64, sw: &mut Sweep) {
    let (mix, _) = cx.setup::<DiskMix>(seed);
    let mut pass = Pass::default();
    let mut totals = MixTotals::default();
    let mut run = |policy: Policy| {
        let _s = cx.span("pass.disk_mix");
        pass.attempted += 1;
        mix.run_set(0, policy, true)
            .map_err(|why| pass.fail(1, why))
            .ok()
    };
    let adj = run(Policy::InterWithAdj);
    let intra = run(Policy::IntraOnly);
    if let (Some(adj), Some(intra)) = (&adj, &intra) {
        totals.add(adj);
        sw.put("mix.adj_gain_exec", 1.0 - adj.wall / intra.wall.max(1e-9));
        sw.put(
            "mix.fidelity_ratio",
            adj.wall * SPEEDUP / mix.des_makespan(0).max(1e-9),
        );
    }
    pass.named = totals.named();
    if let Some(adj) = &adj {
        pass.named.push((
            "mix.cpu_us_per_task",
            adj.cpu_s / adj.finished_at.len().max(1) as f64 * 1e6,
        ));
    }
    sw.absorb(pass);

    // The disk model alone: two co-scheduled scans of the set's two largest
    // relations interleaving on one disk, each read by its own backend.
    let mut by_pages: Vec<u64> = mix.sets[0].set.relations().iter().map(|r| r.1).collect();
    by_pages.sort_unstable();
    let local_blocks = by_pages[by_pages.len() - 2] / 4;
    let mut disk = DiskProbe::new();
    let serve_ns = cx.probe("disk.serve_ns", || {
        let mut sim_s = 0.0;
        for _ in 0..SCANS {
            for b in 0..local_blocks {
                sim_s += disk.serve(1, b, 0) + disk.serve(2, b, 1);
            }
        }
        black_box(sim_s);
        SCANS * 2 * local_blocks
    });
    sw.put("disk.serve_ns", serve_ns);
}

/// `service_open`: a short traced schedule, the grant and spill counts of
/// concurrent joins, and the service's own per-request overhead at scale 0.
fn service_layers(cx: &Ctx<'_>, seed: u64, sw: &mut Sweep) {
    let (svc, _) = cx.setup::<ServiceOpen>(seed);
    {
        let _s = cx.span("pass.service_open");
        sw.absorb(svc.measure(5.0, true, cx.tr));
    }
    let (grant_waits, spill_chunks) = {
        let _s = cx.span("service.grant_waits");
        svc.grant_probe()
    };
    sw.put("service.grant_waits", grant_waits as f64);
    sw.put("service.spill_chunks", spill_chunks as f64);

    let (tiny, q) = noop_query();
    let mut sizing = service_open::sizing();
    sizing.speed = Speed::Unthrottled;
    let service = Service::start(&tiny, &sizing, false);
    let mut submit_ns = Vec::new();
    let roundtrip_ns = cx.probe("service.noop_roundtrip_us", || {
        for _ in 0..20 {
            let t = Instant::now();
            let pending = service.submit(0, Class::Interactive, &q);
            submit_ns.push(t.elapsed().as_nanos() as f64);
            if let Ok(p) = pending {
                let _ = p.wait();
            }
        }
        20
    });
    service.shutdown();
    sw.put("service.noop_roundtrip_us", roundtrip_ns / 1e3);
    sw.put("service.submit_us", stats::median(&submit_ns) / 1e3);
}

/// `sched_sim`: a short pass, then each model driver and the policy alone.
fn sched_layers(cx: &Ctx<'_>, seed: u64, sw: &mut Sweep) {
    let (sched, _) = cx.setup::<SchedSim>(seed);
    {
        let _s = cx.span("pass.sched_sim");
        sw.absorb(sched.measure(1.0, true, cx.tr));
    }
    let models = Models::paper();
    let sets = &sched.sets[..8];
    let n = sets.len() as u64;
    let mut events = 0u64;
    let des_ns = cx.probe("des.run_us", || {
        events = sets
            .iter()
            .map(|s| models.des(s, Policy::InterWithAdj).map_or(0, |o| o.events))
            .sum();
        n
    });
    sw.put("des.run_us", des_ns / 1e3);
    sw.put("des.events_per_s", (events / n) as f64 / (des_ns / 1e9));
    let fluid_ns = cx.probe("fluid.run_us", || {
        for _ in 0..SCANS {
            for s in sets {
                let _ = black_box(models.fluid(s, Policy::InterWithAdj));
            }
        }
        SCANS * n
    });
    sw.put("fluid.run_us", fluid_ns / 1e3);

    let probes: Vec<SchedulerProbe> = sets.iter().map(SchedulerProbe::new).collect();
    let decide_ns = cx.probe("adaptive.decide_us", || {
        (0..SCANS)
            .map(|_| {
                probes
                    .iter()
                    .map(SchedulerProbe::drive_adaptive)
                    .sum::<u64>()
            })
            .sum()
    });
    sw.put("adaptive.decide_us", decide_ns / 1e3);
    let balance_ns = cx.probe("balance.point_ns", || {
        for _ in 0..100 {
            black_box(probes.iter().map(SchedulerProbe::balance).sum::<f64>());
        }
        100 * n
    });
    sw.put("balance.point_ns", balance_ns);

    let parcost_ns = cx.probe("optimizer.parcost_ms", || {
        black_box(sched.planning.optimize_parcost().parcost);
        1
    });
    sw.put("optimizer.parcost_ms", parcost_ns / 1e6);
    let seqcost_ns = cx.probe("optimizer.seqcost_ms", || {
        for _ in 0..10 {
            black_box(sched.planning.optimize_seqcost().seqcost);
        }
        10
    });
    sw.put("optimizer.seqcost_ms", seqcost_ns / 1e6);
}

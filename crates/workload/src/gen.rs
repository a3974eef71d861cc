//! Task and relation generation.
//!
//! Each generated task scans its own relation (distinct relations make the
//! disk-head interference between co-scheduled tasks real). The generator
//! produces both the scheduler-facing [`TaskProfile`] and a relation
//! specification that, when loaded into a catalog, *realizes* that profile
//! on the executor — so the same workload drives the analytic model, the
//! discrete-event simulator and the threaded executor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xprs_scheduler::{IoKind, TaskId, TaskProfile};
use xprs_storage::{Catalog, Tuple};

use crate::calibrate::Calibration;
use crate::spec::{LengthModel, WorkloadConfig};

/// One generated task.
#[derive(Debug, Clone)]
pub struct GeneratedTask {
    /// Scheduler-facing profile.
    pub profile: TaskProfile,
    /// Name of the backing relation.
    pub relation: String,
    /// Tuples in the relation.
    pub n_tuples: u64,
    /// `b`-attribute length realizing the I/O rate.
    pub blen: usize,
    /// Heap pages the scan will read.
    pub n_pages: u64,
}

/// A complete generated workload.
#[derive(Debug, Clone)]
pub struct GeneratedWorkload {
    /// The configuration that produced it.
    pub config: WorkloadConfig,
    /// Tasks in generation order.
    pub tasks: Vec<GeneratedTask>,
}

impl GeneratedWorkload {
    /// The task profiles, for driving schedulers and simulators.
    pub fn profiles(&self) -> Vec<TaskProfile> {
        self.tasks.iter().map(|t| t.profile.clone()).collect()
    }

    /// Create and bulk-load every backing relation into `catalog`.
    pub fn load_into(&self, catalog: &mut Catalog) {
        for t in &self.tasks {
            catalog.create(&t.relation, xprs_storage::Schema::paper_rel());
            let rows = (0..t.n_tuples).map(|i| Tuple::paper((i % 1000) as i32, t.blen));
            catalog.load(&t.relation, rows);
        }
    }
}

/// The workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    calibration: Calibration,
}

impl WorkloadGenerator {
    /// Generator with the paper calibration.
    pub fn new() -> Self {
        WorkloadGenerator { calibration: Calibration::paper_default() }
    }

    /// Generate the tasks of `config`. Deterministic per seed.
    pub fn generate(&self, config: &WorkloadConfig) -> GeneratedWorkload {
        assert!(config.n_tasks >= 1, "empty workload");
        if let LengthModel::Tuples { min, max } = config.length {
            assert!(min >= 1 && min <= max, "bad tuple-length bounds");
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tasks = Vec::with_capacity(config.n_tasks);
        for i in 0..config.n_tasks {
            let target_rate = config.kind.rate(i, rng.random::<f64>());
            let blen = self.calibration.blen_for_rate(target_rate);
            // The realized rate is quantized by whole tuples-per-page; use
            // it (not the target) so the profile matches the physical task.
            let rate = self.calibration.rate(blen);
            let tpp = self.calibration.tuples_per_page(blen);
            let (n_tuples, n_pages) = match config.length {
                LengthModel::Tuples { min, max } => {
                    let n_tuples = rng.random_range(min..=max);
                    (n_tuples, n_tuples.div_ceil(tpp))
                }
                LengthModel::SeqTime { min, max } => {
                    let t = rng.random_range(min..=max);
                    let n_pages = ((t * rate).round() as u64).max(1);
                    (n_pages * tpp, n_pages)
                }
            };
            let seq_time = n_pages as f64 / rate;
            let profile =
                TaskProfile::new(TaskId(i as u64), seq_time, rate, IoKind::Sequential);
            tasks.push(GeneratedTask {
                profile,
                relation: format!("wl_{}_{:02}", config.seed, i),
                n_tuples,
                blen,
                n_pages,
            });
        }
        GeneratedWorkload { config: config.clone(), tasks }
    }
}

impl Default for WorkloadGenerator {
    fn default() -> Self {
        Self::new()
    }
}

/// Specification of a larger-than-memory scan workload: every relation is
/// `spill_factor` times the buffer pool, so a scan cannot be served from
/// cache and every worker share is disk traffic — the paper's §3 regime,
/// and the one where morsel stealing has to earn its keep.
///
/// Block costs are deliberately **skewed**: a seeded fraction of pages are
/// *dense* (many thin tuples — per-page CPU dominates) and the rest are
/// *fat* (one page-filling tuple — pure I/O), laid out in contiguous runs.
/// A static §2.4 share that lands on a dense run is many times more
/// expensive than its neighbours, which is exactly the imbalance work
/// stealing exists to flatten.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskResidentSpec {
    /// RNG seed; the layout and keys are a pure function of the spec.
    pub seed: u64,
    /// Buffer-pool size the workload must spill past.
    pub bufpool_pages: u64,
    /// Relation size as a multiple of the buffer pool (the paper range
    /// is 4–16×).
    pub spill_factor: u64,
    /// Relations to generate (two lets IO-heavy scans co-run for the
    /// §2.2 pairing-window audit).
    pub n_relations: usize,
    /// Fraction of pages that are dense (CPU-heavy).
    pub dense_fraction: f64,
    /// Longest contiguous run of same-class pages; longer runs make the
    /// static-share imbalance coarser.
    pub max_run: u64,
    /// Dense-page `b`-attribute length (thin tuples, many per page).
    pub dense_blen: usize,
    /// Join keys are uniform in `0..key_mod`.
    pub key_mod: u64,
}

impl DiskResidentSpec {
    /// The paper-shaped spec: two relations at `spill_factor`× the pool,
    /// a quarter of the pages dense in runs of up to 8.
    pub fn paper(bufpool_pages: u64, spill_factor: u64, seed: u64) -> Self {
        DiskResidentSpec {
            seed,
            bufpool_pages,
            spill_factor,
            n_relations: 2,
            dense_fraction: 0.25,
            max_run: 8,
            dense_blen: 50,
            key_mod: 1000,
        }
    }

    /// Heap pages per generated relation.
    pub fn pages_per_relation(&self) -> u64 {
        self.bufpool_pages * self.spill_factor
    }
}

/// One generated disk-resident relation: its page-class layout plus the
/// page/tuple counts the loaded catalog must realize exactly.
#[derive(Debug, Clone)]
pub struct DiskResidentRelation {
    /// Catalog name (`dr_<seed>_<idx>`).
    pub name: String,
    /// `page_class[p]` is `true` when heap page `p` is dense.
    pub page_class: Vec<bool>,
    /// Dense-page tuple count (each dense page holds exactly this many).
    pub dense_tpp: u64,
    /// Total tuples across all pages.
    pub n_tuples: u64,
}

impl DiskResidentRelation {
    /// Heap pages the relation occupies.
    pub fn n_pages(&self) -> u64 {
        self.page_class.len() as u64
    }

    /// Dense (CPU-heavy) pages.
    pub fn dense_pages(&self) -> u64 {
        self.page_class.iter().filter(|&&d| d).count() as u64
    }
}

/// A generated larger-than-memory workload.
#[derive(Debug, Clone)]
pub struct DiskResidentWorkload {
    /// The spec that produced it.
    pub spec: DiskResidentSpec,
    /// Generated relations in index order.
    pub relations: Vec<DiskResidentRelation>,
}

impl DiskResidentWorkload {
    /// Create and bulk-load every relation into `catalog`. Pages are built
    /// to fill exactly — a dense page's tuples leave no room for one more,
    /// a fat tuple fills its page — so the loaded heap realizes
    /// `page_class` page for page.
    pub fn load_into(&self, catalog: &mut Catalog) {
        let fat_blen = fat_page_blen();
        for rel in &self.relations {
            catalog.create(&rel.name, xprs_storage::Schema::paper_rel());
            let mut key_seed = self.spec.seed ^ 0xD15C_0000;
            let mut rows = Vec::with_capacity(rel.n_tuples as usize);
            for &dense in &rel.page_class {
                let (count, blen) =
                    if dense { (rel.dense_tpp, self.spec.dense_blen) } else { (1, fat_blen) };
                for _ in 0..count {
                    key_seed = key_seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = ((key_seed >> 33) % self.spec.key_mod) as i32;
                    rows.push(Tuple::paper(a, blen));
                }
            }
            catalog.load(&rel.name, rows);
        }
    }
}

/// Specification of a hash-join workload whose **build sides cannot fit the
/// buffer pool**: the aggregate build-relation footprint is `demand_factor`
/// times the pool, so under memory-grant admission the builds must either
/// queue (serializing on grants) or run under a clamped grant and spill.
/// The memory-admission acceptance workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OversizedBuildSpec {
    /// RNG seed; relations are a pure function of the spec.
    pub seed: u64,
    /// Buffer-pool size the aggregate build demand must exceed.
    pub bufpool_pages: u64,
    /// Aggregate build demand as a multiple of the pool (≥ 4 for the
    /// acceptance regime).
    pub demand_factor: u64,
    /// Join queries (one build/probe relation pair each).
    pub n_queries: usize,
    /// Join keys are uniform in `0..key_mod` on both sides, so every query
    /// produces matches.
    pub key_mod: u64,
    /// `b`-attribute length (sets tuples per page).
    pub blen: usize,
}

impl OversizedBuildSpec {
    /// The acceptance-shaped spec: `n_queries` joins whose builds total
    /// `demand_factor`× the pool, thin-ish tuples so the builds are row-rich.
    pub fn paper(bufpool_pages: u64, demand_factor: u64, n_queries: usize, seed: u64) -> Self {
        OversizedBuildSpec { seed, bufpool_pages, demand_factor, n_queries, key_mod: 500, blen: 50 }
    }
}

/// One generated join pair of an oversized-build workload.
#[derive(Debug, Clone)]
pub struct OversizedBuildPair {
    /// Build-side relation name (`ob_<seed>_<idx>_b`).
    pub build: String,
    /// Probe-side relation name (`ob_<seed>_<idx>_p`).
    pub probe: String,
    /// Heap pages of the build relation.
    pub build_pages: u64,
    /// Heap pages of the probe relation.
    pub probe_pages: u64,
    /// Tuples per page (both sides share `blen`).
    pub tuples_per_page: u64,
}

/// A generated oversized-build workload.
#[derive(Debug, Clone)]
pub struct OversizedBuildWorkload {
    /// The spec that produced it.
    pub spec: OversizedBuildSpec,
    /// Join pairs in index order.
    pub pairs: Vec<OversizedBuildPair>,
}

impl OversizedBuildWorkload {
    /// Heap pages across all build relations — by construction at least
    /// `demand_factor × bufpool_pages`.
    pub fn total_build_pages(&self) -> u64 {
        self.pairs.iter().map(|p| p.build_pages).sum()
    }

    /// Create and bulk-load every relation into `catalog`. Rows are a pure
    /// function of the spec (seeded LCG keys), so two loads — e.g. the
    /// spill and no-spill sides of a parity check — see byte-identical
    /// relations.
    pub fn load_into(&self, catalog: &mut Catalog) {
        for (idx, pair) in self.pairs.iter().enumerate() {
            for (name, pages, salt) in [
                (&pair.build, pair.build_pages, 0x0B00_u64),
                (&pair.probe, pair.probe_pages, 0x0F00_u64),
            ] {
                catalog.create(name, xprs_storage::Schema::paper_rel());
                let mut key_seed = self.spec.seed ^ salt ^ ((idx as u64) << 16);
                let n = pages * pair.tuples_per_page;
                let rows = (0..n).map(|_| {
                    key_seed = key_seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let a = ((key_seed >> 33) % self.spec.key_mod) as i32;
                    Tuple::paper(a, self.spec.blen)
                });
                catalog.load(name, rows.collect::<Vec<_>>());
            }
        }
    }
}

/// Generate the relation pairs of `spec`. Deterministic per spec; panics if
/// the demand factor is below the 4× acceptance regime.
pub fn generate_oversized_build(spec: &OversizedBuildSpec) -> OversizedBuildWorkload {
    assert!(spec.demand_factor >= 4, "demand factor {} below the 4x regime", spec.demand_factor);
    assert!(spec.bufpool_pages >= 1 && spec.n_queries >= 1 && spec.key_mod >= 1);
    let tpp = dense_tuples_per_page(spec.blen);
    // Split the aggregate demand over the queries, rounding up so the total
    // never drops below the factor.
    let build_pages =
        (spec.bufpool_pages * spec.demand_factor).div_ceil(spec.n_queries as u64).max(1);
    let probe_pages = build_pages.div_ceil(2).max(1);
    let pairs = (0..spec.n_queries)
        .map(|idx| OversizedBuildPair {
            build: format!("ob_{}_{idx}_b", spec.seed),
            probe: format!("ob_{}_{idx}_p", spec.seed),
            build_pages,
            probe_pages,
            tuples_per_page: tpp,
        })
        .collect();
    OversizedBuildWorkload { spec: spec.clone(), pairs }
}

/// `b`-length of a tuple that fills a heap page exactly (one per page).
fn fat_page_blen() -> usize {
    use xprs_storage::{PAGE_HEADER, PAGE_SIZE};
    PAGE_SIZE - PAGE_HEADER - crate::calibrate::ROW_OVERHEAD
}

/// Dense-page tuple count for `blen`: the most thin tuples a page holds
/// (so the page is full and the next tuple starts a new one).
pub(crate) fn dense_tuples_per_page(blen: usize) -> u64 {
    use xprs_storage::{PAGE_HEADER, PAGE_SIZE};
    ((PAGE_SIZE - PAGE_HEADER) / (crate::calibrate::ROW_OVERHEAD + blen)) as u64
}

/// Generate the relations of `spec`. Deterministic per spec; panics if the
/// spill factor falls outside the paper's 4–16× range.
pub fn generate_disk_resident(spec: &DiskResidentSpec) -> DiskResidentWorkload {
    assert!(
        (4..=16).contains(&spec.spill_factor),
        "spill factor {} outside the paper's 4-16x range",
        spec.spill_factor
    );
    assert!(spec.bufpool_pages >= 1 && spec.n_relations >= 1);
    assert!((0.0..=1.0).contains(&spec.dense_fraction));
    let n_pages = spec.pages_per_relation();
    let dense_tpp = dense_tuples_per_page(spec.dense_blen);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut relations = Vec::with_capacity(spec.n_relations);
    for idx in 0..spec.n_relations {
        // Deal page classes in runs: contiguous same-cost stretches make
        // the static shares coarsely unbalanced.
        let mut page_class = Vec::with_capacity(n_pages as usize);
        while (page_class.len() as u64) < n_pages {
            let run = rng.random_range(1..=spec.max_run.max(1));
            let dense = rng.random::<f64>() < spec.dense_fraction;
            for _ in 0..run.min(n_pages - page_class.len() as u64) {
                page_class.push(dense);
            }
        }
        let dense_pages = page_class.iter().filter(|&&d| d).count() as u64;
        let n_tuples = dense_pages * dense_tpp + (n_pages - dense_pages);
        relations.push(DiskResidentRelation {
            name: format!("dr_{}_{idx}", spec.seed),
            page_class,
            dense_tpp,
            n_tuples,
        });
    }
    DiskResidentWorkload { spec: spec.clone(), relations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;
    use xprs_disk::StripedLayout;
    use xprs_scheduler::MachineConfig;

    fn generate(kind: WorkloadKind, seed: u64) -> GeneratedWorkload {
        WorkloadGenerator::new().generate(&WorkloadConfig::paper(kind, seed))
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(WorkloadKind::RandomMix, 7);
        let b = generate(WorkloadKind::RandomMix, 7);
        assert_eq!(a.profiles(), b.profiles());
        let c = generate(WorkloadKind::RandomMix, 8);
        assert_ne!(a.profiles(), c.profiles());
    }

    #[test]
    fn rates_respect_their_class() {
        let m = MachineConfig::paper_default();
        let cpu = generate(WorkloadKind::AllCpu, 3);
        assert!(cpu.tasks.iter().all(|t| t.profile.io_rate < m.io_threshold() + 1.0));
        let io = generate(WorkloadKind::AllIo, 3);
        // Quantization can land a hair under the nominal bound.
        assert!(io.tasks.iter().all(|t| t.profile.io_rate > 27.0));
    }

    #[test]
    fn extreme_workload_is_half_and_half() {
        let w = generate(WorkloadKind::Extreme, 11);
        let io_bound = w.tasks.iter().filter(|t| t.profile.io_rate > 50.0).count();
        let cpu_bound = w.tasks.iter().filter(|t| t.profile.io_rate < 20.0).count();
        assert_eq!(io_bound, 5);
        assert_eq!(cpu_bound, 5);
    }

    #[test]
    fn default_lengths_are_durations_in_range() {
        let w = generate(WorkloadKind::RandomMix, 1234);
        for t in &w.tasks {
            assert!(t.n_pages >= 1);
            // Page rounding can nudge the duration slightly past the bounds.
            assert!((1.8..=20.5).contains(&t.profile.seq_time), "T = {}", t.profile.seq_time);
        }
    }

    #[test]
    fn literal_tuple_lengths_cover_the_paper_range() {
        let w = WorkloadGenerator::new()
            .generate(&WorkloadConfig::paper_tuple_lengths(WorkloadKind::RandomMix, 1234));
        for t in &w.tasks {
            assert!((100..=10_000).contains(&t.n_tuples));
            assert!(t.n_pages >= 1);
            assert!(t.profile.seq_time > 0.0);
        }
    }

    /// Loading one paper Extreme set and one RandomMix set gives each
    /// relation exactly its task's tuples and `n_pages` blocks.
    #[test]
    fn loaded_relations_realize_the_profiles() {
        for w in [generate(WorkloadKind::Extreme, 5), generate(WorkloadKind::RandomMix, 6)] {
            let mut cat = Catalog::new(StripedLayout::new(4));
            w.load_into(&mut cat);
            for t in &w.tasks {
                let stats = cat.get(&t.relation).expect("relation loaded").stats();
                assert_eq!(stats.n_tuples, t.n_tuples);
                assert_eq!(
                    stats.n_blocks, t.n_pages,
                    "page count mismatch for {} (blen {})",
                    t.relation, t.blen
                );
            }
        }
    }

    #[test]
    fn disk_resident_spills_past_the_pool_and_loads_exactly() {
        let spec = DiskResidentSpec::paper(16, 4, 0xD15C);
        let w = generate_disk_resident(&spec);
        assert_eq!(w.relations.len(), 2);
        let mut cat = Catalog::new(StripedLayout::new(4));
        w.load_into(&mut cat);
        for rel in &w.relations {
            assert_eq!(rel.n_pages(), 64, "4x a 16-page pool");
            assert!(rel.n_pages() >= 4 * spec.bufpool_pages);
            let stats = cat.get(&rel.name).expect("loaded").stats();
            assert_eq!(stats.n_tuples, rel.n_tuples);
            assert_eq!(
                stats.n_blocks,
                rel.n_pages(),
                "page-exact layout for {} (dense_tpp {})",
                rel.name,
                rel.dense_tpp
            );
        }
    }

    #[test]
    fn disk_resident_block_costs_are_skewed() {
        let w = generate_disk_resident(&DiskResidentSpec::paper(64, 8, 9));
        let rel = &w.relations[0];
        let dense = rel.dense_pages();
        assert!(dense > 0 && dense < rel.n_pages(), "both classes present");
        // Per-page qualification work is proportional to the page's tuple
        // count: dense pages cost dense_tpp times a fat page.
        assert!(rel.dense_tpp >= 100, "dense pages are ~2 orders costlier");
        // Runs make the skew coarse: at least one same-class run of > 1.
        assert!(
            rel.page_class.windows(2).any(|w| w[0] == w[1]),
            "clustered runs expected"
        );
    }

    #[test]
    fn disk_resident_generation_is_deterministic() {
        let spec = DiskResidentSpec::paper(32, 6, 77);
        let a = generate_disk_resident(&spec);
        let b = generate_disk_resident(&spec);
        for (x, y) in a.relations.iter().zip(&b.relations) {
            assert_eq!(x.page_class, y.page_class);
            assert_eq!(x.n_tuples, y.n_tuples);
        }
        let c = generate_disk_resident(&DiskResidentSpec::paper(32, 6, 78));
        assert_ne!(a.relations[0].page_class, c.relations[0].page_class);
    }

    #[test]
    #[should_panic(expected = "outside the paper's 4-16x range")]
    fn disk_resident_rejects_cacheable_sizes() {
        generate_disk_resident(&DiskResidentSpec::paper(64, 2, 1));
    }

    #[test]
    fn oversized_build_demand_covers_the_factor_and_loads_page_exactly() {
        let spec = OversizedBuildSpec::paper(32, 4, 3, 0xB11D);
        let w = generate_oversized_build(&spec);
        assert_eq!(w.pairs.len(), 3);
        assert!(
            w.total_build_pages() >= spec.demand_factor * spec.bufpool_pages,
            "aggregate build demand must cover the factor: {} pages",
            w.total_build_pages()
        );
        let mut cat = Catalog::new(StripedLayout::new(4));
        w.load_into(&mut cat);
        for p in &w.pairs {
            let b = cat.get(&p.build).expect("build loaded").stats();
            assert_eq!(b.n_blocks, p.build_pages, "page-exact build {}", p.build);
            assert_eq!(b.n_tuples, p.build_pages * p.tuples_per_page);
            let pr = cat.get(&p.probe).expect("probe loaded").stats();
            assert_eq!(pr.n_blocks, p.probe_pages, "page-exact probe {}", p.probe);
            // Both sides draw keys from the same 0..key_mod domain, so the
            // join has matches.
            assert!(b.min_a >= 0 && (b.max_a as u64) < spec.key_mod);
            assert!(pr.min_a >= 0 && (pr.max_a as u64) < spec.key_mod);
        }
    }

    #[test]
    fn oversized_build_generation_is_deterministic() {
        let spec = OversizedBuildSpec::paper(16, 6, 2, 9);
        let a = generate_oversized_build(&spec);
        let b = generate_oversized_build(&spec);
        let mut cat_a = Catalog::new(StripedLayout::new(4));
        let mut cat_b = Catalog::new(StripedLayout::new(4));
        a.load_into(&mut cat_a);
        b.load_into(&mut cat_b);
        for p in &a.pairs {
            let sa = cat_a.get(&p.build).expect("a").stats();
            let sb = cat_b.get(&p.build).expect("b").stats();
            assert_eq!(sa.n_tuples, sb.n_tuples);
            assert_eq!(sa.min_a, sb.min_a);
            assert_eq!(sa.max_a, sb.max_a);
            assert_eq!(sa.n_distinct_a, sb.n_distinct_a);
        }
    }

    #[test]
    #[should_panic(expected = "below the 4x regime")]
    fn oversized_build_rejects_fitting_demand() {
        generate_oversized_build(&OversizedBuildSpec::paper(64, 2, 2, 1));
    }

    #[test]
    fn profile_seq_time_is_pages_over_rate() {
        let w = generate(WorkloadKind::AllIo, 21);
        for t in &w.tasks {
            let expect = t.n_pages as f64 / t.profile.io_rate;
            assert!((t.profile.seq_time - expect).abs() < 1e-12);
            assert!((t.profile.total_ios() - t.n_pages as f64).abs() < 1e-6);
        }
    }
}

//! Seeded Zipfian / heavy-hitter join workloads.
//!
//! The scaling and memory workloads (`gen.rs`) draw join keys uniformly, so
//! every key carries ~`n / key_domain` rows and the range-partitioned merge
//! machinery never meets a key it cannot split around. Real key
//! distributions are not so kind: under a Zipfian law a handful of keys
//! carry most of the rows, and the *join output* concentrates even harder —
//! a key with probability `p` on both sides owns `~p²` of the output. One
//! such key used to serialize the k-way merge (see `runs.rs` and ROADMAP's
//! skew item); these generators exist to prove it no longer does.
//!
//! Like every generator in this crate, the workload is a **pure function of
//! its spec**: keys come from a salted multiplicative LCG (the `arrivals.rs`
//! stream) pushed through the inverse CDF of the Zipf(θ) law, so two loads
//! of the same spec produce byte-identical relations — the parity tests
//! lean on that for bit-exact replay.
//!
//! θ = 0 degenerates to the uniform draw; θ = 1 is the classic Zipf where
//! the hottest of `K` keys holds `1 / H_K ≈ 1 / ln K` of the mass.

use xprs_storage::{Catalog, Tuple};

use crate::arrivals::{lcg_next, uniform};
use crate::gen::dense_tuples_per_page;

/// Spec for one Zipf-distributed hash-join pair: a thin build side and a
/// disk-resident probe side (`bufpool_pages × spill_factor` heap pages, so
/// an 8-worker scan cannot hide in the buffer pool), both drawing keys from
/// `Zipf(theta)` over `[0, key_domain)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfJoinSpec {
    /// Master seed; every derived stream salts it differently.
    pub seed: u64,
    /// Zipf exponent θ ≥ 0 (0 = uniform). The paper-style sweeps use
    /// θ ∈ {0, 0.5, 1.0}.
    pub theta: f64,
    /// Keys are drawn from `[0, key_domain)`, rank 0 hottest.
    pub key_domain: u64,
    /// Tuples on the (small, replicable) build side.
    pub build_tuples: u64,
    /// `b`-attribute length of build tuples.
    pub build_blen: usize,
    /// Buffer-pool capacity the probe side must overflow.
    pub bufpool_pages: u64,
    /// Probe heap pages as a multiple of the pool (the paper's 4–16×
    /// disk-resident regime).
    pub spill_factor: u64,
    /// `b`-attribute length of probe tuples (sets tuples per page).
    pub probe_blen: usize,
}

impl ZipfJoinSpec {
    /// The configuration the skew bench sweeps: 10 000-key domain, 1 000
    /// build tuples, dense probe pages at `spill_factor ×` the pool.
    pub fn paper(theta: f64, bufpool_pages: u64, spill_factor: u64, seed: u64) -> Self {
        ZipfJoinSpec {
            seed,
            theta,
            key_domain: 10_000,
            build_tuples: 1_000,
            build_blen: 8,
            bufpool_pages,
            spill_factor,
            probe_blen: 120,
        }
    }
}

/// A generated Zipf join pair, ready to load.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfJoinWorkload {
    /// The generating spec.
    pub spec: ZipfJoinSpec,
    /// Catalog name of the build relation.
    pub build: String,
    /// Catalog name of the probe relation.
    pub probe: String,
    /// Probe heap pages (`bufpool_pages × spill_factor`).
    pub probe_pages: u64,
    /// Probe tuples (pages packed dense).
    pub probe_tuples: u64,
    /// Probe tuples per page.
    pub tuples_per_page: u64,
}

impl ZipfJoinWorkload {
    /// Create and bulk-load both relations into `catalog`. Rows are a pure
    /// function of the spec, so two loads see byte-identical relations.
    pub fn load_into(&self, catalog: &mut Catalog) {
        let s = &self.spec;
        for (name, n, blen, salt) in [
            (&self.build, s.build_tuples, s.build_blen, 0xB01D_u64),
            (&self.probe, self.probe_tuples, s.probe_blen, 0x50B3_u64),
        ] {
            catalog.create(name, xprs_storage::Schema::paper_rel());
            let rows: Vec<Tuple> = zipf_keys(s.seed ^ salt, s.theta, s.key_domain, n)
                .into_iter()
                .map(|a| Tuple::paper(a, blen))
                .collect();
            catalog.load(name, rows);
        }
    }
}

/// Generate the relation pair of `spec`. Deterministic per spec; panics if
/// the spill factor falls outside the paper's 4–16× disk-resident range or
/// θ is out of the supported `[0, 2]` band.
pub fn generate_zipf_join(spec: &ZipfJoinSpec) -> ZipfJoinWorkload {
    assert!(
        (4..=16).contains(&spec.spill_factor),
        "spill factor {} outside the paper's 4-16x range",
        spec.spill_factor
    );
    assert!(spec.bufpool_pages >= 1 && spec.build_tuples >= 1);
    let tuples_per_page = dense_tuples_per_page(spec.probe_blen);
    let probe_pages = spec.bufpool_pages * spec.spill_factor;
    // θ is validated (with key_domain) inside zipf_keys; probing the
    // validation here keeps a bad spec from naming relations first.
    let theta_permille = zipf_theta_permille(spec.theta);
    ZipfJoinWorkload {
        spec: spec.clone(),
        build: format!("zipf_{}_{}_b", spec.seed, theta_permille),
        probe: format!("zipf_{}_{}_p", spec.seed, theta_permille),
        probe_pages,
        probe_tuples: probe_pages * tuples_per_page,
        tuples_per_page,
    }
}

/// θ as an exact integer tag for relation names (and a validation choke
/// point: θ must be finite and in `[0, 2]`).
fn zipf_theta_permille(theta: f64) -> u64 {
    assert!(
        theta.is_finite() && (0.0..=2.0).contains(&theta),
        "zipf theta {theta} outside [0, 2]"
    );
    (theta * 1000.0).round() as u64
}

/// Draw `n` keys from `Zipf(theta)` over `[0, key_domain)` — rank 0 is the
/// hottest key — using a salted LCG stream and the inverse CDF over the
/// precomputed cumulative weights `k^{-θ}`. Pure function of the arguments;
/// θ = 0 is the uniform draw.
pub fn zipf_keys(seed: u64, theta: f64, key_domain: u64, n: u64) -> Vec<i32> {
    zipf_theta_permille(theta);
    assert!(
        key_domain >= 1 && key_domain <= i32::MAX as u64,
        "key domain {key_domain} outside [1, i32::MAX]"
    );
    let mut cum: Vec<f64> = Vec::with_capacity(key_domain as usize);
    let mut mass = 0.0f64;
    for k in 0..key_domain {
        mass += 1.0 / ((k + 1) as f64).powf(theta);
        cum.push(mass);
    }
    // Same seeding discipline as the arrival streams: spread the salted
    // seed with the golden-ratio multiplier, then warm the state once so
    // nearby seeds decorrelate.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    lcg_next(&mut state);
    (0..n)
        .map(|_| {
            let u = uniform(&mut state) * mass;
            let idx = cum.partition_point(|&c| c <= u);
            idx.min(key_domain as usize - 1) as i32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xprs_disk::StripedLayout;

    fn counts(keys: &[i32], key_domain: usize) -> Vec<usize> {
        let mut c = vec![0usize; key_domain];
        for &k in keys {
            c[k as usize] += 1;
        }
        c
    }

    #[test]
    fn replay_is_bit_exact_and_seeds_are_independent() {
        let a = zipf_keys(42, 1.0, 1000, 5000);
        let b = zipf_keys(42, 1.0, 1000, 5000);
        assert_eq!(a, b, "same spec must replay bit-exactly");
        let c = zipf_keys(43, 1.0, 1000, 5000);
        assert_ne!(a, c, "different seeds must differ");
        let w1 = generate_zipf_join(&ZipfJoinSpec::paper(0.5, 64, 4, 7));
        let w2 = generate_zipf_join(&ZipfJoinSpec::paper(0.5, 64, 4, 7));
        assert_eq!(w1, w2);
    }

    #[test]
    fn theta_zero_is_uniform() {
        let keys = zipf_keys(9, 0.0, 100, 20_000);
        let c = counts(&keys, 100);
        assert!(c.iter().all(|&n| n > 0), "every key must appear");
        let max = *c.iter().max().unwrap();
        assert!(max < 3 * (20_000 / 100), "uniform draw has no heavy hitter, max {max}");
    }

    #[test]
    fn theta_one_concentrates_on_the_head() {
        // Zipf(1) over 10^4 keys: the hottest key holds 1/H ≈ 10.2% of the
        // mass; allow generous sampling slack around it.
        let n = 40_000usize;
        let keys = zipf_keys(11, 1.0, 10_000, n as u64);
        let c = counts(&keys, 10_000);
        let share = c[0] as f64 / n as f64;
        assert!((0.06..=0.15).contains(&share), "hot-key share {share}");
        assert!(c[0] > 20 * c[999].max(1), "head must dominate rank 1000");
    }

    #[test]
    fn loaded_relations_realize_the_page_math() {
        let spec = ZipfJoinSpec::paper(1.0, 16, 4, 3);
        let w = generate_zipf_join(&spec);
        let mut cat = Catalog::new(StripedLayout::new(4));
        w.load_into(&mut cat);
        let probe = cat.get(&w.probe).expect("probe loaded").stats();
        assert_eq!(probe.n_tuples, w.probe_tuples);
        assert_eq!(probe.n_blocks, w.probe_pages, "dense pages must pack exactly");
        assert_eq!(w.probe_pages, 64, "16 pool pages x 4 spill factor");
        let build = cat.get(&w.build).expect("build loaded").stats();
        assert_eq!(build.n_tuples, spec.build_tuples);
        // Both sides draw from the same domain, so the join has matches.
        assert!(probe.min_a >= 0 && (probe.max_a as u64) < spec.key_domain);
    }

    #[test]
    #[should_panic(expected = "spill factor")]
    fn cached_probe_side_is_rejected() {
        generate_zipf_join(&ZipfJoinSpec::paper(1.0, 64, 2, 3));
    }

    #[test]
    #[should_panic(expected = "outside [0, 2]")]
    fn negative_theta_is_rejected() {
        zipf_keys(1, -0.5, 100, 10);
    }
}

//! # xprs-bench
//!
//! Harness utilities shared by the binaries under `src/bin/`, one per paper
//! figure or table plus the ablations. They print what they measure and
//! gate nothing: the performance claims they illustrate are asserted by
//! release-mode tests (`crates/executor/tests/perf_gates.rs`,
//! `crates/service/tests/perf_service.rs`), and `benchmark/` is the
//! trajectory.
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3_classification` | Figure 3 — IO-bound vs CPU-bound task lines |
//! | `fig4_balance_point` | Figure 4 — the IO-CPU balance point |
//! | `protocol_trace` | Figures 5/6 — the dynamic adjustment protocols |
//! | `table_io_rates` | Section 3's task-rate table and disk-bandwidth measurements |
//! | `fig7_schedulers` | Figure 7 — the three algorithms × four workloads |
//! | `sec4_optimizer` | Section 4 — seqcost vs parcost plan choice |
//! | `multiquery_optimizer` | Section 5 — joint optimization of concurrent queries |
//! | `stream_response` | Section 2.5 — the algorithm on a continuous task stream |
//! | `ablation_pairing` | pairing heuristic ablation (most-extreme / FIFO / SJF) |
//! | `ablation_seek_model` | planning with vs without the seek-interference correction |
//! | `ablation_adjust_latency` | sensitivity to the adjustment-protocol latency |
//! | `ablation_two_tasks` | the "two tasks suffice" claim vs k-way co-scheduling |
//! | `ablation_memory` | Section 5 — memory-constrained pairing |

use xprs::{PolicyKind, XprsSystem};
use xprs_scheduler::TaskProfile;
use xprs_workload::{WorkloadConfig, WorkloadGenerator, WorkloadKind};

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Generate the paper workload `kind` for `seed`.
pub fn paper_workload(kind: WorkloadKind, seed: u64) -> Vec<TaskProfile> {
    WorkloadGenerator::new()
        .generate(&WorkloadConfig::paper(kind, seed))
        .profiles()
}

/// Run `kind` × `policy` on the DES over `seeds`, returning elapsed times.
pub fn des_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: PolicyKind,
    seeds: &[u64],
) -> Vec<f64> {
    seeds
        .iter()
        .map(|&s| sys.simulate(&paper_workload(kind, s), policy).expect("DES run").elapsed)
        .collect()
}

/// Run `kind` × `policy` on the fluid model over `seeds`.
pub fn fluid_elapsed(
    sys: &XprsSystem,
    kind: WorkloadKind,
    policy: PolicyKind,
    seeds: &[u64],
) -> Vec<f64> {
    seeds
        .iter()
        .map(|&s| sys.estimate(&paper_workload(kind, s), policy).expect("fluid run").elapsed)
        .collect()
}

/// Print a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a markdown header + separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((stddev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(stddev(&[5.0]), 0.0);
    }

    #[test]
    fn workload_helper_is_deterministic() {
        let a = paper_workload(WorkloadKind::Extreme, 3);
        let b = paper_workload(WorkloadKind::Extreme, 3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }
}

//! The IO-CPU balance point and the seek-interference bandwidth model.
//!
//! Running one IO-bound task `f_i` with parallelism `x_i` and one CPU-bound
//! task `f_j` with parallelism `x_j` puts the system at the point
//! `(x_i + x_j, C_i·x_i + C_j·x_j)` of the parallelism/bandwidth rectangle.
//! Maximum utilization of both resources is reached at the *balance point*:
//!
//! ```text
//!     x_i + x_j           = N
//!     C_i·x_i + C_j·x_j   = B
//! ```
//!
//! whose closed-form solution (for constant `B`) is
//! `x_i = (B − C_j·N) / (C_i − C_j)` and `x_j = (C_i·N − B) / (C_i − C_j)`.
//! Both coordinates are positive exactly when `C_i > B/N > C_j`, i.e. when
//! one task is IO-bound and the other CPU-bound — which is why the scheduler
//! never needs to co-run more than two tasks.
//!
//! When both tasks read sequentially the disks must seek between the two
//! block streams, so `B` is not constant: the paper models the *effective*
//! bandwidth as `B = Br + (1 − ratio)(Bs − Br)` where `ratio` is the smaller
//! of `C_i·x_i / C_j·x_j` and its reciprocal, `Bs` is the (almost-)sequential
//! bandwidth and `Br` the random bandwidth. [`balance_point`] solves the
//! resulting three-equation system.

use crate::machine::MachineConfig;
use crate::task::{Boundedness, IoKind, TaskProfile};

/// A solved IO-CPU balance point for one IO-bound / CPU-bound task pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancePoint {
    /// Parallelism assigned to the IO-bound task (`x_i`), possibly fractional.
    pub x_io: f64,
    /// Parallelism assigned to the CPU-bound task (`x_j`).
    pub x_cpu: f64,
    /// The effective aggregate disk bandwidth at this operating point.
    pub effective_bw: f64,
}

/// Closed-form balance point assuming a constant aggregate bandwidth `b`.
///
/// The class check mirrors [`TaskProfile::classify`]'s strict `>`: the IO
/// side must have `c_io > b/n`, the CPU side must *not* (`c_cpu <= b/n`).
/// A task sitting exactly on the threshold is a legal CPU-bound partner —
/// its balance point degenerates to `x_io = 0`, which (like any
/// non-positive coordinate) is reported as `None` rather than a split that
/// allocates nothing to one side.
pub fn balance_point_constant_b(c_io: f64, c_cpu: f64, n: f64, b: f64) -> Option<BalancePoint> {
    let threshold = b / n;
    // NaN-aware: a NaN rate fails the Greater test and falls out as None.
    if c_io.partial_cmp(&threshold) != Some(std::cmp::Ordering::Greater) || c_cpu > threshold {
        return None; // class mismatch under strict-> classification
    }
    let x_io = (b - c_cpu * n) / (c_io - c_cpu);
    let x_cpu = (c_io * n - b) / (c_io - c_cpu);
    if !(x_io > 0.0 && x_cpu > 0.0) {
        return None; // degenerate: one side would get zero processors
    }
    Some(BalancePoint { x_io, x_cpu, effective_bw: b })
}

/// Effective aggregate bandwidth of the array given the concurrent I/O
/// demand streams `(rate, kind)` currently offered to it.
///
/// * A single sequential stream sees the full parallel bandwidth
///   `n_disks × almost_seq_bw` (`240` io/s on the paper's machine);
///   a single random stream sees `n_disks × random_bw` (`140`).
/// * Two sequential streams interfere: the disks spend a fraction of their
///   time seeking between the streams, interpolating linearly between the
///   two bounds by the paper's `ratio` formula.
/// * For a sequential/random mix (the paper says the balance point can be
///   computed "similarly" but gives no formula) we charge each I/O its
///   service time: random I/Os always cost `1/random_bw`, sequential I/Os
///   cost `1/almost_seq_bw` degraded toward `1/random_bw` by the same
///   interleave ratio, and the aggregate is the reciprocal of the weighted
///   mean service time.
/// * More than two streams (the `k`-task ablation) generalizes the
///   service-time model with per-stream interleave ratio `1 − d_i / D`.
pub fn effective_bandwidth(m: &MachineConfig, demands: &[(f64, IoKind)]) -> f64 {
    let hi = m.total_bandwidth();
    let lo = m.total_random_bandwidth();
    let live: Vec<(f64, IoKind)> = demands.iter().copied().filter(|(d, _)| *d > 0.0).collect();
    match live.len() {
        0 => hi,
        1 => match live[0].1 {
            IoKind::Sequential => hi,
            IoKind::Random => lo,
        },
        2 => {
            let (d1, k1) = live[0];
            let (d2, k2) = live[1];
            match (k1, k2) {
                (IoKind::Sequential, IoKind::Sequential) => {
                    // The paper's formula, verbatim.
                    let ratio = (d1 / d2).min(d2 / d1);
                    lo + (1.0 - ratio) * (hi - lo)
                }
                (IoKind::Random, IoKind::Random) => lo,
                _ => {
                    let (d_seq, d_rand) = if k1 == IoKind::Sequential { (d1, d2) } else { (d2, d1) };
                    mixed_service_time_bw(m, &[(d_seq, IoKind::Sequential), (d_rand, IoKind::Random)])
                }
            }
        }
        _ => mixed_service_time_bw(m, &live),
    }
}

/// Service-time bandwidth model for mixes the paper does not give a closed
/// form for: aggregate bandwidth is `n_disks / mean service time`, where each
/// sequential stream's per-I/O service time degrades from almost-sequential
/// toward random by its interleave ratio `1 − d_i / D`.
fn mixed_service_time_bw(m: &MachineConfig, live: &[(f64, IoKind)]) -> f64 {
    let total: f64 = live.iter().map(|(d, _)| d).sum();
    let s_alm = 1.0 / m.almost_seq_bw;
    let s_rand = 1.0 / m.random_bw;
    let mut mean_service = 0.0;
    for &(d, kind) in live {
        let share = d / total;
        let service = match kind {
            IoKind::Random => s_rand,
            IoKind::Sequential => {
                let interleave = 1.0 - share; // fraction of I/O time stolen by others
                s_alm + interleave * (s_rand - s_alm)
            }
        };
        mean_service += share * service;
    }
    m.n_disks as f64 / mean_service
}

/// Solve the balance point between an IO-bound task `io` and a CPU-bound task
/// `cpu` on machine `m`, accounting for seek interference.
///
/// Returns `None` when the pair cannot reach a balance point: the tasks must
/// classify as IO-bound and CPU-bound respectively, and the interference-
/// corrected demand curve must actually cross the effective bandwidth inside
/// the open interval `x_io ∈ (0, N)`.
pub fn balance_point(io: &TaskProfile, cpu: &TaskProfile, m: &MachineConfig) -> Option<BalancePoint> {
    if io.classify(m) != Boundedness::IoBound || cpu.classify(m) != Boundedness::CpuBound {
        return None;
    }
    let n = m.n_procs as f64;
    // g(x) = total demand − effective bandwidth at x_io = x. A root of g is a
    // balance point: processors are fully allocated by construction and the
    // I/O demand exactly matches what the array can deliver.
    let g = |x: f64| -> f64 {
        let d_io = io.io_rate * x;
        let d_cpu = cpu.io_rate * (n - x);
        d_io + d_cpu - effective_bandwidth(m, &[(d_io, io.io_kind), (d_cpu, cpu.io_kind)])
    };
    // The demand slope is C_io − C_cpu > 0 while the effective bandwidth is
    // bounded, so g goes from negative (CPU-bound demand alone is below B) to
    // positive (IO-bound demand alone exceeds B); scan for the first sign
    // change, then bisect. Scanning tolerates the (mild) non-monotonicity the
    // interference term introduces.
    const STEPS: usize = 512;
    let eps = n * 1e-9;
    let mut lo_x = eps;
    let mut g_lo = g(lo_x);
    if g_lo > 0.0 {
        return None; // already over-committed with essentially no IO task
    }
    let mut hi_x = None;
    for k in 1..=STEPS {
        let x = eps + (n - 2.0 * eps) * k as f64 / STEPS as f64;
        let gx = g(x);
        if gx >= 0.0 {
            hi_x = Some(x);
            break;
        }
        lo_x = x;
        g_lo = gx;
    }
    let mut hi_x = hi_x?;
    let _ = g_lo;
    // Bisection to ~1e-10 of a processor.
    for _ in 0..80 {
        let mid = 0.5 * (lo_x + hi_x);
        if g(mid) < 0.0 {
            lo_x = mid;
        } else {
            hi_x = mid;
        }
    }
    let x_io = 0.5 * (lo_x + hi_x);
    let x_cpu = n - x_io;
    if !(x_io > 0.0 && x_cpu > 0.0) {
        return None;
    }
    let d_io = io.io_rate * x_io;
    let d_cpu = cpu.io_rate * x_cpu;
    let effective_bw = effective_bandwidth(m, &[(d_io, io.io_kind), (d_cpu, cpu.io_kind)]);
    Some(BalancePoint { x_io, x_cpu, effective_bw })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn seq(id: u64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), 10.0, rate, IoKind::Sequential)
    }

    fn rnd(id: u64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), 10.0, rate, IoKind::Random)
    }

    #[test]
    fn constant_b_closed_form_matches_hand_calculation() {
        // C_i = 60, C_j = 10, N = 8, B = 240:
        // x_i = (240 − 80) / 50 = 3.2, x_j = (480 − 240) / 50 = 4.8.
        let bp = balance_point_constant_b(60.0, 10.0, 8.0, 240.0).unwrap();
        assert!((bp.x_io - 3.2).abs() < 1e-12);
        assert!((bp.x_cpu - 4.8).abs() < 1e-12);
    }

    #[test]
    fn constant_b_requires_one_of_each_class() {
        // Two IO-bound tasks: no balance point.
        assert!(balance_point_constant_b(60.0, 40.0, 8.0, 240.0).is_none());
        // Two CPU-bound tasks: no balance point.
        assert!(balance_point_constant_b(20.0, 10.0, 8.0, 240.0).is_none());
    }

    #[test]
    fn solo_sequential_stream_sees_full_parallel_bandwidth() {
        assert_eq!(effective_bandwidth(&m(), &[(100.0, IoKind::Sequential)]), 240.0);
    }

    #[test]
    fn solo_random_stream_sees_random_bandwidth() {
        assert_eq!(effective_bandwidth(&m(), &[(100.0, IoKind::Random)]), 140.0);
    }

    #[test]
    fn two_even_sequential_streams_degrade_to_random_bandwidth() {
        // ratio = 1 ⇒ B = Br.
        let b = effective_bandwidth(
            &m(),
            &[(60.0, IoKind::Sequential), (60.0, IoKind::Sequential)],
        );
        assert!((b - 140.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_sequential_stream_keeps_nearly_full_bandwidth() {
        // ratio = 1/99 ⇒ B ≈ Bs.
        let b = effective_bandwidth(
            &m(),
            &[(198.0, IoKind::Sequential), (2.0, IoKind::Sequential)],
        );
        assert!(b > 235.0 && b <= 240.0);
    }

    #[test]
    fn interference_is_symmetric_in_the_two_streams() {
        let a = effective_bandwidth(&m(), &[(150.0, IoKind::Sequential), (50.0, IoKind::Sequential)]);
        let b = effective_bandwidth(&m(), &[(50.0, IoKind::Sequential), (150.0, IoKind::Sequential)]);
        assert_eq!(a, b);
    }

    #[test]
    fn two_random_streams_stay_at_random_bandwidth() {
        let b = effective_bandwidth(&m(), &[(30.0, IoKind::Random), (90.0, IoKind::Random)]);
        assert_eq!(b, 140.0);
    }

    #[test]
    fn mixed_pair_lies_between_the_bounds() {
        let b = effective_bandwidth(&m(), &[(80.0, IoKind::Sequential), (80.0, IoKind::Random)]);
        assert!(b > 140.0 && b < 240.0, "got {b}");
    }

    #[test]
    fn balance_point_saturates_both_resources() {
        let io = seq(0, 60.0);
        let cpu = seq(1, 10.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        assert!((bp.x_io + bp.x_cpu - 8.0).abs() < 1e-9);
        let demand = io.io_rate * bp.x_io + cpu.io_rate * bp.x_cpu;
        assert!((demand - bp.effective_bw).abs() < 1e-6 * demand);
        assert!(bp.effective_bw >= 140.0 && bp.effective_bw <= 240.0);
    }

    #[test]
    fn interference_shifts_parallelism_away_from_the_io_task() {
        // With sequential interference the effective bandwidth is below 240,
        // so the IO-bound task gets fewer processors than the constant-B
        // closed form predicts.
        let io = seq(0, 60.0);
        let cpu = seq(1, 10.0);
        let corrected = balance_point(&io, &cpu, &m()).unwrap();
        let naive = balance_point_constant_b(60.0, 10.0, 8.0, 240.0).unwrap();
        assert!(
            corrected.x_io < naive.x_io,
            "corrected {} vs naive {}",
            corrected.x_io,
            naive.x_io
        );
    }

    #[test]
    fn random_io_task_balances_against_cpu_task() {
        let io = rnd(0, 34.0); // random scans top out near the per-array random rate
        let cpu = seq(1, 6.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        assert!((bp.x_io + bp.x_cpu - 8.0).abs() < 1e-9);
        assert!(bp.x_io > 0.0 && bp.x_cpu > 0.0);
    }

    #[test]
    fn misclassified_pair_is_rejected() {
        // Both IO-bound.
        assert!(balance_point(&seq(0, 60.0), &seq(1, 40.0), &m()).is_none());
        // Both CPU-bound.
        assert!(balance_point(&seq(0, 20.0), &seq(1, 10.0), &m()).is_none());
        // Arguments swapped (cpu passed as io).
        assert!(balance_point(&seq(0, 10.0), &seq(1, 60.0), &m()).is_none());
    }

    #[test]
    fn constant_b_boundary_matches_strict_classification() {
        // B/N = 30. A partner sitting exactly on the threshold classifies as
        // CPU-bound (strict >), so it is not a class mismatch — but its
        // balance point degenerates to x_io = 0 and is reported as None.
        assert!(balance_point_constant_b(60.0, 30.0, 8.0, 240.0).is_none());
        // Just below the threshold the pair balances normally...
        let bp = balance_point_constant_b(60.0, 30.0 - 1e-6, 8.0, 240.0).unwrap();
        assert!(bp.x_io > 0.0 && bp.x_cpu > 0.0);
        // ...and an IO side exactly on the threshold is not IO-bound.
        assert!(balance_point_constant_b(30.0, 10.0, 8.0, 240.0).is_none());
    }

    #[test]
    fn extreme_pair_matches_paper_intuition() {
        // The paper's extreme workload: C_io ∈ [60,70], C_cpu ∈ [5,15].
        // The IO task should get roughly a third of the machine.
        let io = seq(0, 70.0);
        let cpu = seq(1, 5.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        assert!(bp.x_io > 1.0 && bp.x_io < 4.0, "x_io = {}", bp.x_io);
    }
}

//! Elapsed-time estimates `T_intra` and `T_inter` used by the scheduler to
//! decide whether inter-operation parallelism is worthwhile for a pair.
//!
//! With only intra-operation parallelism a task finishes in
//! `T_intra(f_i) = T_i / maxp(f_i)`. A pair run at its balance point
//! `(x_i, x_j)` finishes in
//!
//! ```text
//! T_inter(f_i, f_j) = min(T_i/x_i, T_j/x_j) + T_ij / maxp_ij
//! ```
//!
//! where `T_ij` is the sequential-time remainder of whichever task survives
//! the other and `maxp_ij` its maximum parallelism. Because of the disk-seek
//! penalty between two sequential scans, `T_inter` can *lose* to running the
//! tasks back-to-back; the scheduler performs exactly this comparison
//! (algorithm step 4) before committing to a pairing.

use crate::balance::BalancePoint;
use crate::machine::MachineConfig;
use crate::task::{TaskId, TaskProfile};

/// `T_intra(f)`: elapsed time using only intra-operation parallelism.
pub fn t_intra(f: &TaskProfile, m: &MachineConfig) -> f64 {
    f.seq_time / f.maxp(m)
}

/// Breakdown of a `T_inter` estimate for one IO/CPU pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterEstimate {
    /// Total elapsed time for both tasks.
    pub elapsed: f64,
    /// Time at which the first of the pair completes.
    pub first_finish: f64,
    /// The task still running at `first_finish`.
    pub survivor: TaskId,
    /// Sequential-time remainder `T_ij` of the survivor at `first_finish`.
    pub survivor_remaining: f64,
}

/// `T_inter(f_io, f_cpu)` for a pair running at balance point `bp`,
/// finishing the survivor at its own `maxp` (i.e. assuming the dynamic
/// parallelism adjustment of Section 2.4 kicks in once the partner is done).
pub fn t_inter(
    f_io: &TaskProfile,
    f_cpu: &TaskProfile,
    bp: &BalancePoint,
    m: &MachineConfig,
) -> InterEstimate {
    let t_io = f_io.seq_time / bp.x_io;
    let t_cpu = f_cpu.seq_time / bp.x_cpu;
    let first_finish = t_io.min(t_cpu);
    let (survivor, survivor_remaining, maxp) = if t_io > t_cpu {
        // f_cpu finishes first; f_io has run for t_cpu at parallelism x_io.
        (f_io.id, f_io.seq_time - t_cpu * bp.x_io, f_io.maxp(m))
    } else {
        (f_cpu.id, f_cpu.seq_time - t_io * bp.x_cpu, f_cpu.maxp(m))
    };
    let survivor_remaining = survivor_remaining.max(0.0);
    InterEstimate {
        elapsed: first_finish + survivor_remaining / maxp,
        first_finish,
        survivor,
        survivor_remaining,
    }
}

/// Step-4 test of the scheduling algorithm: is running the pair at its
/// balance point faster than running the two tasks back-to-back with
/// intra-operation parallelism only?
pub fn inter_is_worthwhile(
    f_io: &TaskProfile,
    f_cpu: &TaskProfile,
    bp: &BalancePoint,
    m: &MachineConfig,
) -> bool {
    t_inter(f_io, f_cpu, bp, m).elapsed < t_intra(f_io, m) + t_intra(f_cpu, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::balance_point;
    use crate::task::{IoKind, TaskId};

    fn m() -> MachineConfig {
        MachineConfig::paper_default()
    }

    fn seq(id: u64, t: f64, rate: f64) -> TaskProfile {
        TaskProfile::new(TaskId(id), t, rate, IoKind::Sequential)
    }

    #[test]
    fn t_intra_divides_by_maxp() {
        // CPU-bound: 8-way speedup.
        assert!((t_intra(&seq(0, 40.0, 10.0), &m()) - 5.0).abs() < 1e-12);
        // IO-bound at C = 60: maxp = 4 ⇒ 40/4 = 10.
        assert!((t_intra(&seq(0, 40.0, 60.0), &m()) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn t_inter_accounts_for_the_survivor_tail() {
        let io = seq(0, 30.0, 60.0);
        let cpu = seq(1, 30.0, 10.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        let est = t_inter(&io, &cpu, &bp, &m());
        // Whoever survives must have nonnegative remaining work and the total
        // elapsed must exceed the first finish.
        assert!(est.survivor_remaining >= 0.0);
        assert!(est.elapsed >= est.first_finish);
        // Sanity: the pair cannot beat the critical path of either task run
        // with every processor it can use.
        assert!(est.elapsed >= t_intra(&io, &m()).max(t_intra(&cpu, &m())) - 1e-9);
    }

    #[test]
    fn survivor_identity_matches_the_slower_side() {
        // Long IO task vs short CPU task: the IO task survives.
        let io = seq(0, 100.0, 60.0);
        let cpu = seq(1, 5.0, 10.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        let est = t_inter(&io, &cpu, &bp, &m());
        assert_eq!(est.survivor, TaskId(0));
        // And the reverse.
        let io2 = seq(0, 5.0, 60.0);
        let cpu2 = seq(1, 100.0, 10.0);
        let bp2 = balance_point(&io2, &cpu2, &m()).unwrap();
        assert_eq!(t_inter(&io2, &cpu2, &bp2, &m()).survivor, TaskId(1));
    }

    #[test]
    fn remainder_formula_matches_paper() {
        // Constructed so T_cpu/x_cpu < T_io/x_io: T_ij = T_i − T_j·x_i/x_j.
        let io = seq(0, 50.0, 60.0);
        let cpu = seq(1, 10.0, 10.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        let est = t_inter(&io, &cpu, &bp, &m());
        let expected = io.seq_time - cpu.seq_time * bp.x_io / bp.x_cpu;
        assert!((est.survivor_remaining - expected).abs() < 1e-9);
    }

    #[test]
    fn mixed_pair_is_worthwhile_in_the_paper_regime() {
        // An extreme IO-bound + extreme CPU-bound pair is the paper's
        // showcase for inter-operation parallelism.
        let io = seq(0, 30.0, 65.0);
        let cpu = seq(1, 30.0, 8.0);
        let bp = balance_point(&io, &cpu, &m()).unwrap();
        assert!(inter_is_worthwhile(&io, &cpu, &bp, &m()));
    }
}

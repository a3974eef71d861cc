//! Figure 4: the IO-CPU balance point. For representative IO/CPU pairs,
//! prints the closed-form constant-B solution, the seek-interference-
//! corrected solution (the three-equation system of Section 2.3), and the
//! step-4 `T_inter` vs `T_intra` comparison.

use crate::{header, row};
use xprs_scheduler::balance::{balance_point, balance_point_constant_b};
use xprs_scheduler::estimate::{inter_is_worthwhile, t_inter, t_intra};
use xprs_scheduler::{IoKind, MachineConfig, TaskId, TaskProfile};

/// Print the figure.
pub fn print() {
    let m = MachineConfig::paper_default();
    let n = m.n_procs as f64;
    let b = m.total_bandwidth();
    println!("# Figure 4 — IO-CPU balance points (N = {n}, B = {b} io/s)");
    println!();
    header(&[
        "C_io",
        "C_cpu",
        "x_io (const B)",
        "x_cpu (const B)",
        "x_io (corrected)",
        "x_cpu (corrected)",
        "B_eff",
        "T_inter vs ΣT_intra",
        "worthwhile?",
    ]);
    for (c_io, c_cpu) in [(70.0, 5.0), (65.0, 8.0), (60.0, 10.0), (50.0, 20.0), (40.0, 25.0), (35.0, 29.0)] {
        let io = TaskProfile::new(TaskId(0), 20.0, c_io, IoKind::Sequential);
        let cpu = TaskProfile::new(TaskId(1), 20.0, c_cpu, IoKind::Sequential);
        let naive = balance_point_constant_b(c_io, c_cpu, n, b).expect("valid pair");
        let corrected = balance_point(&io, &cpu, &m).expect("valid pair");
        let est = t_inter(&io, &cpu, &corrected, &m);
        let serial = t_intra(&io, &m) + t_intra(&cpu, &m);
        row(&[
            format!("{c_io:4.0}"),
            format!("{c_cpu:4.0}"),
            format!("{:5.2}", naive.x_io),
            format!("{:5.2}", naive.x_cpu),
            format!("{:5.2}", corrected.x_io),
            format!("{:5.2}", corrected.x_cpu),
            format!("{:6.1}", corrected.effective_bw),
            format!("{:5.2} vs {:5.2} s", est.elapsed, serial),
            if inter_is_worthwhile(&io, &cpu, &corrected, &m) { "yes" } else { "no" }.into(),
        ]);
    }
    println!();
    println!(
        "The corrected balance point allocates fewer workers to the IO-bound task \
         because the effective bandwidth drops below the nominal {b} io/s once two \
         sequential streams share the disk heads."
    );

    println!();
    println!("## Marginal pairs near the diagonal (the step-4 check)");
    println!();
    println!(
        "Close to C = B/N the seek penalty eats the entire pairing gain; the scheduler's \
         T_inter vs ΣT_intra comparison is what keeps such pairs from being forced."
    );
    println!();
    header(&["C_io", "C_cpu", "T_inter", "ΣT_intra", "decision"]);
    for (c_io, c_cpu) in [(32.0, 28.0), (35.0, 25.0), (31.0, 29.5)] {
        let io = TaskProfile::new(TaskId(0), 20.0, c_io, IoKind::Sequential);
        let cpu = TaskProfile::new(TaskId(1), 20.0, c_cpu, IoKind::Sequential);
        let serial = t_intra(&io, &m) + t_intra(&cpu, &m);
        let (inter, decision) = match balance_point(&io, &cpu, &m) {
            Some(bp) => {
                let keep = inter_is_worthwhile(&io, &cpu, &bp, &m);
                let decision = if keep { "pair" } else { "run one at a time" };
                (format!("{:5.2} s", t_inter(&io, &cpu, &bp, &m).elapsed), decision)
            }
            None => ("-".into(), "no balance point"),
        };
        let serial = format!("{serial:5.2} s");
        row(&[format!("{c_io:4.1}"), format!("{c_cpu:4.1}"), inter, serial, decision.into()]);
    }
}

//! Property tests for the scheduling mathematics: balance points, effective
//! bandwidth, estimates and the fluid `T_n` estimator.

use proptest::prelude::*;
use xprs_scheduler::balance::{balance_point, balance_point_constant_b, effective_bandwidth};
use xprs_scheduler::estimate::{t_inter, t_intra};
use xprs_scheduler::fluid::tn_estimate_dag;
use xprs_scheduler::{FragmentDag, IoKind, MachineConfig, TaskId, TaskProfile};

fn machine() -> MachineConfig {
    MachineConfig::paper_default()
}

fn io_task() -> impl Strategy<Value = TaskProfile> {
    (30.1f64..70.0, 0.5f64..50.0)
        .prop_map(|(c, t)| TaskProfile::new(TaskId(0), t, c, IoKind::Sequential))
}

fn cpu_task() -> impl Strategy<Value = TaskProfile> {
    (5.0f64..29.9, 0.5f64..50.0)
        .prop_map(|(c, t)| TaskProfile::new(TaskId(1), t, c, IoKind::Sequential))
}

proptest! {
    /// The constant-B closed form satisfies both balance equations exactly.
    #[test]
    fn constant_b_solves_both_equations(c_io in 30.1f64..70.0, c_cpu in 1.0f64..29.9) {
        let m = machine();
        let (n, b) = (m.n_procs as f64, m.total_bandwidth());
        let bp = balance_point_constant_b(c_io, c_cpu, n, b).expect("one of each class");
        prop_assert!((bp.x_io + bp.x_cpu - n).abs() < 1e-9);
        prop_assert!((c_io * bp.x_io + c_cpu * bp.x_cpu - b).abs() < 1e-6);
        prop_assert!(bp.x_io > 0.0 && bp.x_cpu > 0.0);
    }

    /// The interference-corrected solver saturates both resources: the
    /// processor equation exactly, the I/O equation against the effective
    /// bandwidth at the solution.
    #[test]
    fn corrected_balance_saturates_both_resources(io in io_task(), cpu in cpu_task()) {
        let m = machine();
        let bp = balance_point(&io, &cpu, &m).expect("valid mixed pair");
        let n = m.n_procs as f64;
        prop_assert!((bp.x_io + bp.x_cpu - n).abs() < 1e-6);
        let demand = io.io_rate * bp.x_io + cpu.io_rate * bp.x_cpu;
        prop_assert!((demand - bp.effective_bw).abs() < 1e-4 * demand.max(1.0),
            "demand {demand} vs effective {}", bp.effective_bw);
        // Effective bandwidth bounded by the array's physical envelope.
        prop_assert!(bp.effective_bw <= m.total_bandwidth() + 1e-9);
        prop_assert!(bp.effective_bw >= m.total_random_bandwidth() - 1e-9);
    }

    /// Balance points require one task of each class.
    #[test]
    fn same_class_pairs_have_no_balance_point(
        c1 in 30.1f64..70.0,
        c2 in 30.1f64..70.0,
        t in 1.0f64..20.0,
    ) {
        let m = machine();
        let a = TaskProfile::new(TaskId(0), t, c1, IoKind::Sequential);
        let b = TaskProfile::new(TaskId(1), t, c2, IoKind::Sequential);
        prop_assert!(balance_point(&a, &b, &m).is_none());
    }

    /// Effective bandwidth is symmetric, bounded, and equals the paper's
    /// linear interpolation for two sequential streams.
    #[test]
    fn effective_bandwidth_properties(d1 in 1.0f64..240.0, d2 in 1.0f64..240.0) {
        let m = machine();
        let b12 = effective_bandwidth(&m, &[(d1, IoKind::Sequential), (d2, IoKind::Sequential)]);
        let b21 = effective_bandwidth(&m, &[(d2, IoKind::Sequential), (d1, IoKind::Sequential)]);
        prop_assert!((b12 - b21).abs() < 1e-9);
        let ratio = (d1 / d2).min(d2 / d1);
        let expect = m.total_random_bandwidth()
            + (1.0 - ratio) * (m.total_bandwidth() - m.total_random_bandwidth());
        prop_assert!((b12 - expect).abs() < 1e-9);
        prop_assert!(b12 >= m.total_random_bandwidth() - 1e-9);
        prop_assert!(b12 <= m.total_bandwidth() + 1e-9);
    }

    /// T_inter respects the physical floor: no schedule of the pair can beat
    /// either task's own best-case time.
    #[test]
    fn t_inter_is_bounded_below(io in io_task(), cpu in cpu_task()) {
        let m = machine();
        let bp = balance_point(&io, &cpu, &m).expect("valid mixed pair");
        let est = t_inter(&io, &cpu, &bp, &m);
        prop_assert!(est.elapsed >= t_intra(&io, &m).max(t_intra(&cpu, &m)) - 1e-9);
        prop_assert!(est.survivor_remaining >= 0.0);
        prop_assert!(est.first_finish <= est.elapsed + 1e-12);
    }

    /// T_n(S) lies between the physical lower bounds and serial execution,
    /// and never loses to running every task alone at maxp.
    #[test]
    fn tn_estimate_is_sandwiched(tasks in proptest::collection::vec(
        (5.0f64..70.0, 0.5f64..20.0), 1..8)
    ) {
        let m = machine();
        let tasks: Vec<TaskProfile> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, (c, t))| TaskProfile::new(TaskId(i as u64), t, c, IoKind::Sequential))
            .collect();
        let mut dag = FragmentDag::new();
        for t in &tasks {
            dag.add(t.clone(), &[]);
        }
        let tn = tn_estimate_dag(&m, &dag);
        let cpu_bound: f64 = tasks.iter().map(|t| t.seq_time).sum::<f64>() / m.n_procs as f64;
        let io_bound: f64 = tasks.iter().map(|t| t.total_ios()).sum::<f64>() / m.total_bandwidth();
        prop_assert!(tn >= cpu_bound - 1e-6, "beats the CPU floor: {tn} < {cpu_bound}");
        prop_assert!(tn >= io_bound - 1e-6, "beats the IO floor: {tn} < {io_bound}");
        let serial: f64 = tasks.iter().map(|t| t_intra(t, &m)).sum();
        prop_assert!(tn <= serial * (1.0 + 1e-6) + 1e-9, "loses to intra-only: {tn} > {serial}");
    }
}

proptest! {
    /// Sweep degenerate 1- and 2-processor machines: every balance point the
    /// solver produces still satisfies the paper's invariants
    /// (`x_io + x_cpu = N`, effective bandwidth inside `[B_r, B_s]`), and
    /// the fluid model runs every task set to completion under all three
    /// policies.
    #[test]
    fn tiny_machine_sweep(
        n_procs in 1u32..=2,
        c_io in 1.0f64..400.0,
        c_cpu in 1.0f64..400.0,
        t in 0.5f64..20.0,
    ) {
        use xprs_scheduler::adaptive::{AdaptiveConfig, AdaptiveScheduler};
        use xprs_scheduler::intra::IntraOnly;
        use xprs_scheduler::fluid::FluidSim;
        use xprs_scheduler::SchedulePolicy;

        let mut m = machine();
        m.n_procs = n_procs;
        let n = n_procs as f64;
        let io = TaskProfile::new(TaskId(0), t, c_io, IoKind::Sequential);
        let cpu = TaskProfile::new(TaskId(1), t, c_cpu, IoKind::Sequential);

        if let Some(bp) = balance_point(&io, &cpu, &m) {
            prop_assert!((bp.x_io + bp.x_cpu - n).abs() < 1e-6,
                "processors not conserved: {} + {} != {n}", bp.x_io, bp.x_cpu);
            prop_assert!(bp.x_io > 0.0 && bp.x_cpu > 0.0);
            prop_assert!(bp.effective_bw >= m.total_random_bandwidth() - 1e-9);
            prop_assert!(bp.effective_bw <= m.total_bandwidth() + 1e-9);
        }

        let tasks = vec![io, cpu];
        let policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(IntraOnly::new(m.clone(), true)),
            Box::new(AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(m.clone()))),
            Box::new(AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(m.clone()))),
        ];
        for mut p in policies {
            let r = FluidSim::new(m.clone()).run(p.as_mut(), &tasks);
            let r = r.expect("tiny machine run must complete without a control-path error");
            prop_assert!(r.elapsed.is_finite() && r.elapsed > 0.0);
        }
    }
}

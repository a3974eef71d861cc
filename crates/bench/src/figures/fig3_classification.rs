//! Figure 3: IO-bound and CPU-bound tasks in the parallelism/bandwidth
//! rectangle. For a spread of task I/O rates, prints the line
//! `IO_i(x) = C_i · x`, the classification against `B/N`, and the maximum
//! useful parallelism `maxp` (where the line exits the rectangle).

use crate::{header, row};
use xprs_scheduler::{Boundedness, IoKind, MachineConfig, TaskId, TaskProfile};

/// Print the figure.
pub fn print() {
    let m = MachineConfig::paper_default();
    println!("# Figure 3 — task classification in the N × B rectangle");
    println!();
    println!(
        "N = {} processors, B = {} io/s, threshold B/N = {} io/s.",
        m.n_procs,
        m.total_bandwidth(),
        m.io_threshold()
    );
    println!();
    header(&["C_i (io/s)", "class", "maxp(f_i)", "IO_i(maxp) (io/s)", "binding limit"]);
    for c in [5.0, 10.0, 20.0, 30.0, 30.5, 40.0, 50.0, 60.0, 70.0] {
        let t = TaskProfile::new(TaskId(0), 10.0, c, IoKind::Sequential);
        let (class, limit) = match t.classify(&m) {
            Boundedness::IoBound => ("IO-bound", "disk bandwidth"),
            Boundedness::CpuBound => ("CPU-bound", "processors"),
        };
        let maxp = t.maxp(&m);
        row(&[
            format!("{c:5.1}"),
            class.to_string(),
            format!("{maxp:5.2}"),
            format!("{:6.1}", t.io_rate_at(maxp)),
            limit.to_string(),
        ]);
    }
    println!();
    println!("## Line data (for plotting): io rate as a function of parallelism x");
    println!();
    header(&["x", "C=10 (CPU-bound)", "C=30 (diagonal)", "C=60 (IO-bound)"]);
    for x in 0..=8 {
        let x = x as f64;
        row(&[
            format!("{x:2.0}"),
            format!("{:6.1}", (10.0 * x).min(m.total_bandwidth())),
            format!("{:6.1}", (30.0 * x).min(m.total_bandwidth())),
            format!("{:6.1}", (60.0 * x).min(m.total_bandwidth())),
        ]);
    }
}

//! The repository's benchmark. One command generates every input from a
//! seed, runs the workloads, checks every answer and prints each metric by
//! name with its unit. See `benchmark/README.md`.
//!
//! ```text
//! run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out F]
//! run.sh compare A.jsonl B.jsonl
//! run.sh spec | metrics
//! ```

mod compare;
mod host;
mod metrics;
mod stats;
mod sut;
mod sweep;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

use host::Host;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use sut::{fnum, jstr};
use trace::Tracer;
use workloads::cached_join::CachedJoin;
use workloads::cached_scan::CachedScan;
use workloads::disk_mix::DiskMix;
use workloads::sched_sim::SchedSim;
use workloads::service_open::ServiceOpen;
use workloads::{Pass, Workload, CACHED_WORKERS, FLIP_ORACLE};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Set-ups per run: at least [`SETUP_MIN`], then until they have taken
/// [`SETUP_BUDGET_S`] together or [`SETUP_MAX`] were made. `setup_s` is
/// their median; a millisecond set-up needs many samples to hold still.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 1000;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    commit: String,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--out F]\n       \
         run.sh compare A.jsonl B.jsonl\n       run.sh spec | metrics",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        commit: "unknown".into(),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let w = value(&mut i, "--workload")?;
                if metrics::workload(&w).is_none() {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w);
            }
            "--seed" => {
                a.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                a.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => a.out = Some(PathBuf::from(value(&mut i, "--out")?)),
            "--out-dir" => a.out_dir = PathBuf::from(value(&mut i, "--out-dir")?),
            "--commit" => a.commit = value(&mut i, "--commit")?,
            "--flip-oracle" => FLIP_ORACLE.store(true, Ordering::Relaxed),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(a)
}

/// One result record: what the last stdout line and each `--out` line hold.
struct Record {
    workload: &'static str,
    trace: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in contract order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Record {
    fn metrics_json(&self) -> String {
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(n),
                    fnum(*v),
                    jstr(u)
                )
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// Exactly the keys the driver's contract names.
    fn contract_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The contract keys plus where and how the numbers were taken.
    fn full_json(&self, host: &Host, seconds: f64) -> String {
        format!(
            "{{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {{\"nproc\": {}, \"cpu\": {}, \
             \"loadavg\": {}, \"commit\": {}, \"spin_ns_per_miter\": {}, \"generator_threads\": {}}}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            jstr(self.workload),
            u8::from(self.trace),
            host.seed,
            fnum(seconds),
            host.nproc,
            jstr(&host.cpu_model),
            jstr(&host.loadavg),
            jstr(&host.commit),
            fnum(host.spin_ns_per_miter),
            host::GENERATOR_THREADS,
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    fn print(&self) {
        println!(
            "{} ({}):",
            self.workload,
            if self.trace {
                "per-layer, traced run"
            } else {
                "end to end"
            }
        );
        for (n, v, u) in &self.metrics {
            println!("  {n:<32} {v:>16.4} {u}");
        }
        println!("  attempted {}  failed {}", self.attempted, self.failed);
    }
}

fn report_failures(what: &str, failures: &[String]) {
    for f in failures {
        eprintln!("FAILED {what}: {f}");
    }
}

/// The untraced run: several set-ups, one timed pass, the end-to-end metrics.
fn run_end_to_end<W: Workload>(a: &Args) -> Record {
    let off = Tracer::off();
    let mut setup_s = Vec::new();
    let mut input = None;
    let budget = Instant::now();
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(input.take());
        let root = off.span("setup", None, None);
        let t = Instant::now();
        let (w, _) = W::setup(a.seed, &off, &root);
        setup_s.push(t.elapsed().as_secs_f64());
        input = Some(w);
    }
    let w = input.expect("at least one set-up ran");
    let (sq1, sq3) = stats::quartiles(&setup_s);
    eprintln!(
        "{}: {} set-ups, quartiles {sq1:.4} / {:.4} / {sq3:.4} s",
        W::NAME,
        setup_s.len(),
        stats::median(&setup_s)
    );
    let pass = w.measure(a.seconds, false, &off);
    report_failures(W::NAME, &pass.failures);
    eprintln!(
        "{}: timed part {:.1} s, {} operations, {} trials",
        W::NAME,
        pass.wall_s,
        pass.ops,
        pass.trial_ops_per_s.len()
    );
    for (n, v) in &pass.named {
        eprintln!("  {n:<32} {v:>16.4}");
    }
    let (lq1, lq3) = stats::quartiles(&pass.latencies_ms);
    let (tq1, tq3) = stats::quartiles(&pass.trial_ops_per_s);
    eprintln!(
        "  latency ms quartiles {lq1:.3} / {:.3} / {lq3:.3} over {} operations; \
         trial ops/s quartiles {tq1:.2} / {:.2} / {tq3:.2}",
        stats::median(&pass.latencies_ms),
        pass.latencies_ms.len(),
        pass.throughput_ops_s(),
    );
    let value = |name: &str| match name {
        "latency_p50_ms" => stats::median(&pass.latencies_ms),
        "within_limit_share" => pass.within_limit_share(),
        "setup_s" => stats::median(&setup_s),
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    Record {
        workload: W::NAME,
        trace: false,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
    }
}

/// What tracing costs on `W`: the same short pass with the system's
/// metrics and the bench's spans off, then on. Returns traced ÷ untraced
/// time per operation and the traced pass.
fn overhead<W: Workload>(a: &Args, tr: &Tracer) -> (f64, Pass) {
    let seconds = (a.seconds * 0.1).clamp(3.0, 5.0);
    let root = tr.span("setup", None, None);
    let (w, _) = W::setup(a.seed, tr, &root);
    drop(root);
    let plain = w.measure(seconds, false, &Tracer::off());
    let traced = w.measure(seconds, true, tr);
    // Open-loop throughput is the offered rate; its cost shows in latency.
    let cost = |p: &Pass| {
        if W::NAME == ServiceOpen::NAME {
            stats::mean(&p.latencies_ms)
        } else {
            1.0 / p.throughput_ops_s().max(1e-12)
        }
    };
    let ratio = cost(&traced) / cost(&plain).max(1e-12);
    let mut both = traced;
    both.attempted += plain.attempted;
    both.failed += plain.failed;
    both.failures.extend(plain.failures);
    (ratio, both)
}

/// The traced run: the workload with and without tracing, then the layer
/// sweep; writes the span file and reports every per-layer metric.
fn run_per_layer<W: Workload>(a: &Args, sweep: &mut Option<sweep::Sweep>) -> Record {
    let tr = Tracer::on(W::NAME);
    let (ratio, pass) = overhead::<W>(a, &tr);
    report_failures(W::NAME, &pass.failures);
    // The sweep does not depend on the workload: run it once per process.
    let sw = sweep.get_or_insert_with(|| {
        let sw = sweep::run(a.seed, &tr);
        report_failures("sweep", &sw.failures);
        sw
    });
    let mut values: BTreeMap<&str, f64> = sw.values.clone();
    values.insert("obs.overhead_ratio", ratio);
    values.insert("trace.spans", tr.spans().len() as f64);

    let path = a.out_dir.join(format!("trace-{}.jsonl", W::NAME));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    eprintln!("span summary (count, total s, self s):");
    for (name, n, total, own) in tr.summary() {
        eprintln!("  {name:<32} {n:>6} {total:>10.3} {own:>10.3}");
    }

    let mut failed = pass.failed + sw.failed;
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or_else(|| {
                eprintln!("FAILED: per-layer metric {} has no value", m.name);
                failed += 1;
                0.0
            });
            (m.name, v, m.unit)
        })
        .collect();
    Record {
        workload: W::NAME,
        trace: true,
        attempted: pass.attempted + sw.attempted,
        failed,
        metrics,
    }
}

fn run_workload(name: &str, traced: bool, a: &Args, sweep: &mut Option<sweep::Sweep>) -> Record {
    macro_rules! dispatch {
        ($($w:ty),*) => {
            $(if name == <$w>::NAME {
                return if traced { run_per_layer::<$w>(a, sweep) } else { run_end_to_end::<$w>(a) };
            })*
        };
    }
    dispatch!(CachedScan, CachedJoin, DiskMix, ServiceOpen, SchedSim);
    unreachable!("workload names are checked when arguments are parsed")
}

fn append(path: &PathBuf, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("metrics") => {
            print!("{}", metrics::markdown());
            return ExitCode::SUCCESS;
        }
        Some("compare") => return compare::main(&argv[1..]),
        Some("-h" | "--help") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host = Host::capture(a.seed, &a.commit);
    println!("{}", host.line());
    if (CACHED_WORKERS as usize) > host.nproc {
        eprintln!(
            "the cached workloads run {CACHED_WORKERS} workers and this host has {} core(s): \
             their numbers would measure oversubscription, not the system",
            host.nproc
        );
        return ExitCode::from(2);
    }

    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    // One workload is one run of the driver: traced or not. The whole suite
    // takes its end-to-end numbers with tracing off, then `--trace` makes a
    // second, traced pass.
    let passes: Vec<bool> = match (&a.workload, a.trace) {
        (Some(_), traced) => vec![traced],
        (None, false) => vec![false],
        (None, true) => vec![false, true],
    };
    let mut all_ok = true;
    let mut last = None;
    let mut sweep = None;
    for (&traced, name) in passes
        .iter()
        .flat_map(|t| names.iter().map(move |n| (t, *n)))
    {
        let rec = run_workload(name, traced, &a, &mut sweep);
        rec.print();
        all_ok &= rec.failed == 0;
        if let Some(out) = &a.out {
            if let Err(e) = append(out, &rec.full_json(&host, a.seconds)) {
                eprintln!("could not append to {}: {e}", out.display());
                all_ok = false;
            }
        }
        last = Some(rec);
    }
    // One workload: the last line is the driver's result object.
    if let (Some(_), Some(rec)) = (&a.workload, &last) {
        println!("{}", rec.contract_json());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

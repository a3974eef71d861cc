//! `run.sh compare A.jsonl B.jsonl`: is B worse than A?
//!
//! Both files hold result records as `--out` appends them, any number of
//! runs each. For every (end-to-end metric, workload) the two medians are
//! compared under the metric's direction and bound: *worse* when B's median
//! is worse than A's by more than the bound, *better* when it is better by
//! more than the bound, *same* otherwise — and *unresolved* when either
//! side's own spread (interquartile range over median) is wider than the
//! bound, unless every run of one side beats every run of the other.
//! Exits non-zero on any *worse*.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats;
use crate::sut::{json_parse, JsonValue};

/// `(workload, metric) → values`, from the untraced records of one file.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Samples::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json_parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}:{}: no \"{k}\"", n + 1))
        };
        if field("trace")?.num() != Some(0.0) {
            continue;
        }
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        if field("correct")?.boolean() != Some(true) {
            return Err(format!(
                "{path}:{}: the {workload} run failed its answer check",
                n + 1
            ));
        }
        let JsonValue::Obj(metrics) = field("metrics")? else {
            return Err(format!("{path}:{}: \"metrics\" is not an object", n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::num) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// By how much of A's median B is worse (positive) or better (negative).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    if m.better == "lower" {
        rel
    } else {
        -rel
    }
}

fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> &'static str {
    let w = worsening(m, stats::median(a), stats::median(b));
    let noisy = stats::spread(a) > m.bound || stats::spread(b) > m.bound;
    if noisy {
        // A spread wider than the bound resolves only when the two sides
        // do not overlap at all.
        let ((a_lo, a_hi), (b_lo, b_hi)) = (min_max(a), min_max(b));
        let b_all_worse = if m.better == "lower" {
            b_lo > a_hi
        } else {
            b_hi < a_lo
        };
        let b_all_better = if m.better == "lower" {
            b_hi < a_lo
        } else {
            b_lo > a_hi
        };
        return match (b_all_worse && w > m.bound, b_all_better) {
            (true, _) => "worse",
            (_, true) => "better",
            _ => "unresolved",
        };
    }
    if w > m.bound {
        "worse"
    } else if w < -m.bound {
        "better"
    } else {
        "same"
    }
}

fn min_max(v: &[f64]) -> (f64, f64) {
    let s = stats::sorted(v);
    (s[0], s[s.len() - 1])
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: run.sh compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A iqr", "B iqr"
    );
    let mut worse = 0;
    let mut compared = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            compared += 1;
            let v = verdict(m, av, bv);
            worse += usize::from(v == "worse");
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}% {:>6.1}% {:>6.1}%  {v}",
                w.name,
                m.name,
                stats::median(av),
                stats::median(bv),
                100.0 * worsening(m, stats::median(av), stats::median(bv)),
                100.0 * m.bound,
                100.0 * stats::spread(av),
                100.0 * stats::spread(bv),
            );
        }
    }
    println!("change: how much worse B's median is than A's (negative: better); {compared} pairs compared");
    if compared == 0 {
        eprintln!("nothing to compare: no (workload, metric) pair is in both files");
        return ExitCode::from(2);
    }
    if worse > 0 {
        eprintln!("{worse} metric(s) worse than the bound allows");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

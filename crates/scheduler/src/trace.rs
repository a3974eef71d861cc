//! Structured decision traces for the scheduling control path.
//!
//! Every driver (the fluid estimator, the discrete-event simulator, the
//! threaded executor) and the adaptive policy itself can emit
//! [`TraceRecord`]s into a [`SharedSink`]: arrivals with full task profiles,
//! queue snapshots, the candidate pair with its balance point and effective
//! bandwidth, the `T_inter` vs `T_intra` verdict, and every `Start`/`Adjust`
//! the driver applied, all timestamped with the driver's clock. A driver
//! with no sink (`None`) traces nothing and builds no record; the sink keeps
//! every record in memory, and [`to_jsonl`] writes them as JSON lines, a
//! write-only artifact: each record maps to one [`JsonValue`], and
//! `xprs_obs::json` owns the syntax. Nothing reads a rendering back.
//!
//! Because [`crate::adaptive::AdaptiveScheduler`] is deterministic given its
//! input events, the captured records are *replayable*:
//!
//! * [`replay_decisions`] feeds the recorded arrivals, completions and
//!   running-set snapshots to a fresh policy and verifies it re-derives the
//!   identical action stream — the first diverging record pinpoints the bug;
//! * [`replay_through_fluid`] rebuilds the task DAG from the recorded
//!   arrival/finish causality and re-executes the whole schedule on the
//!   fluid model, returning the re-derived action stream for comparison
//!   against the capture (e.g. one taken from the threaded executor).
//!
//! See `DESIGN.md` §6.5 for the record kinds and how replays compare runs.

use std::sync::{Arc, Mutex};

use xprs_obs::json::JsonValue;

use crate::error::SchedError;
use crate::machine::MachineConfig;
use crate::policy::{Action, RunningTask, SchedulePolicy};
use crate::task::{IoKind, TaskId, TaskProfile};

/// Snapshot of one running task inside a [`TraceRecord::Decide`] record.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningSnap {
    /// The running task.
    pub task: TaskId,
    /// Parallelism the driver last applied.
    pub parallelism: f64,
    /// Sequential-time-equivalent work remaining.
    pub remaining: f64,
}

impl RunningSnap {
    /// Snapshot of a driver-side [`RunningTask`].
    pub fn of(r: &RunningTask) -> Self {
        RunningSnap {
            task: r.profile.id,
            parallelism: r.parallelism,
            remaining: r.remaining_seq_time,
        }
    }
}

/// One structured record of the scheduling control path.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A driver began a run.
    RunStart {
        /// Driver name: `"fluid"`, `"des"` or `"executor"`.
        driver: String,
        /// The policy's [`SchedulePolicy::name`].
        policy: String,
        /// The machine being scheduled.
        machine: MachineConfig,
    },
    /// A task became runnable (with its full profile, so a trace is
    /// self-contained for replay).
    Arrival {
        /// Driver clock at delivery.
        now: f64,
        /// The runnable task's profile.
        profile: TaskProfile,
    },
    /// A task finished.
    Finish {
        /// Driver clock at completion.
        now: f64,
        /// The finished task.
        task: TaskId,
    },
    /// The adaptive policy's queue snapshot on entry to `decide()`.
    Queues {
        /// Policy clock.
        now: f64,
        /// Tasks waiting in the IO-bound queue.
        io: Vec<TaskId>,
        /// Tasks waiting in the CPU-bound queue.
        cpu: Vec<TaskId>,
    },
    /// A candidate IO/CPU pair the policy evaluated: its balance point,
    /// the effective (seek-corrected) bandwidth there, and the step-4
    /// `T_inter` vs `T_intra` verdict.
    Candidate {
        /// Policy clock.
        now: f64,
        /// IO-bound side of the pair.
        io: TaskId,
        /// CPU-bound side of the pair.
        cpu: TaskId,
        /// Balance-point parallelism of the IO-bound task.
        x_io: f64,
        /// Balance-point parallelism of the CPU-bound task.
        x_cpu: f64,
        /// Effective aggregate bandwidth at the balance point.
        effective_bw: f64,
        /// Estimated paired elapsed time `T_inter`.
        t_inter: f64,
        /// `T_intra(f_io) + T_intra(f_cpu)`, the serial alternative.
        t_intra: f64,
        /// The verdict: `true` iff the pair was scheduled together.
        worthwhile: bool,
    },
    /// One non-empty `decide()` round, as seen by the driver: the running
    /// snapshot passed in and the actions returned.
    Decide {
        /// Driver clock.
        now: f64,
        /// Running set handed to the policy.
        running: Vec<RunningSnap>,
        /// Actions the policy returned.
        actions: Vec<Action>,
    },
    /// The driver applied one action (after integral rounding etc.).
    Applied {
        /// Driver clock at application.
        now: f64,
        /// The applied action.
        action: Action,
    },
    /// A task was rejected at the policy boundary (invalid profile).
    Rejected {
        /// Policy clock.
        now: f64,
        /// The rejected task.
        task: TaskId,
        /// Why it was rejected.
        reason: String,
    },
    /// The run ended in a typed error; the trace up to here is the bug
    /// report.
    Error {
        /// Driver clock when the error surfaced.
        now: f64,
        /// Rendered [`SchedError`] (or driver error).
        message: String,
    },
    /// The driver measured the machine, found the observed bandwidth outside
    /// the tolerance band of the model, and re-based the policy on the
    /// corrected machine (degradation-aware rebalancing).
    Recalibrate {
        /// Driver clock at recalibration.
        now: f64,
        /// Observed aggregate bandwidth that triggered the recalibration.
        observed_b: f64,
        /// The modeled bandwidth it was compared against.
        modeled_b: f64,
        /// The corrected machine handed to [`SchedulePolicy::recalibrate`].
        machine: MachineConfig,
    },
    /// The driver substituted a predicted profile for the declared one
    /// before announcing the task to the policy ([`crate::predict`]). The
    /// accompanying [`TraceRecord::Arrival`] carries the *substituted*
    /// profile (so replay sees what the policy saw); this record preserves
    /// the declared prior and the model provenance for scoring predicted
    /// vs realized schedules.
    Predict {
        /// Driver clock at substitution.
        now: f64,
        /// The task whose profile was substituted.
        task: TaskId,
        /// Declared (optimizer) `T_i`, seconds.
        declared_seq_time: f64,
        /// Declared `C_i`, I/Os per second.
        declared_io_rate: f64,
        /// Declared memory footprint, bytes.
        declared_memory: f64,
        /// Predicted `T_i` the scheduler consumed.
        predicted_seq_time: f64,
        /// Predicted `C_i` the scheduler consumed.
        predicted_io_rate: f64,
        /// Predicted memory footprint the admission path consumed.
        predicted_memory: f64,
        /// Co-runner count fed to the interference term.
        co_runners: u32,
        /// Observations behind the model (0 ⇒ declared fallback).
        observations: u64,
    },
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

/// The trace: every record, in memory, oldest first. Drivers and the policy
/// hold clones of one handle, so their records interleave in event order;
/// whichever thread drives the policy appends (always exactly one at a
/// time), and [`to_jsonl`] renders the records as JSON lines.
pub type SharedSink = Arc<Mutex<Vec<TraceRecord>>>;

/// Emit a lazily-built record into an optional sink. The closure only runs
/// when a sink is attached, so a disabled trace costs one branch. A
/// poisoned sink lock is skipped — tracing never panics the control path.
pub fn emit<F: FnOnce() -> TraceRecord>(sink: &Option<SharedSink>, f: F) {
    if let Some(s) = sink {
        if let Ok(mut guard) = s.lock() {
            guard.push(f());
        }
    }
}

// ---------------------------------------------------------------------------
// JSON rendering: one conversion per type, through `xprs_obs::json` (which
// owns the syntax).
// ---------------------------------------------------------------------------

impl From<TaskId> for JsonValue {
    fn from(t: TaskId) -> Self {
        t.0.into()
    }
}

impl From<IoKind> for JsonValue {
    fn from(k: IoKind) -> Self {
        JsonValue::from(if k == IoKind::Sequential { "seq" } else { "random" })
    }
}

impl From<&MachineConfig> for JsonValue {
    fn from(m: &MachineConfig) -> Self {
        JsonValue::obj()
            .with("n_procs", m.n_procs)
            .with("n_disks", m.n_disks)
            .with("seq_bw", m.seq_bw)
            .with("almost_seq_bw", m.almost_seq_bw)
            .with("random_bw", m.random_bw)
            .with("memory", m.memory)
    }
}

impl From<&Action> for JsonValue {
    fn from(a: &Action) -> Self {
        JsonValue::obj()
            .with("kind", if matches!(a, Action::Start { .. }) { "start" } else { "adjust" })
            .with("task", a.task())
            .with("x", a.parallelism())
    }
}

impl From<&RunningSnap> for JsonValue {
    fn from(r: &RunningSnap) -> Self {
        JsonValue::obj()
            .with("task", r.task)
            .with("x", r.parallelism)
            .with("remaining", r.remaining)
    }
}

impl From<&TraceRecord> for JsonValue {
    /// The record's `type` tag, then its fields in declaration order.
    fn from(rec: &TraceRecord) -> Self {
        let o = JsonValue::obj();
        match rec {
            TraceRecord::RunStart { driver, policy, machine } => o
                .with("type", "run_start")
                .with("driver", driver.as_str())
                .with("policy", policy.as_str())
                .with("machine", machine),
            TraceRecord::Arrival { now, profile } => o
                .with("type", "arrival")
                .with("now", *now)
                .with("task", profile.id)
                .with("seq_time", profile.seq_time)
                .with("io_rate", profile.io_rate)
                .with("io_kind", profile.io_kind)
                .with("memory", profile.memory),
            TraceRecord::Finish { now, task } => {
                o.with("type", "finish").with("now", *now).with("task", *task)
            }
            TraceRecord::Queues { now, io, cpu } => o
                .with("type", "queues")
                .with("now", *now)
                .with("io", io.clone())
                .with("cpu", cpu.clone()),
            TraceRecord::Candidate {
                now,
                io,
                cpu,
                x_io,
                x_cpu,
                effective_bw,
                t_inter,
                t_intra,
                worthwhile,
            } => o
                .with("type", "candidate")
                .with("now", *now)
                .with("io", *io)
                .with("cpu", *cpu)
                .with("x_io", *x_io)
                .with("x_cpu", *x_cpu)
                .with("effective_bw", *effective_bw)
                .with("t_inter", *t_inter)
                .with("t_intra", *t_intra)
                .with("worthwhile", *worthwhile),
            TraceRecord::Decide { now, running, actions } => o
                .with("type", "decide")
                .with("now", *now)
                .with("running", running.iter().collect::<Vec<_>>())
                .with("actions", actions.iter().collect::<Vec<_>>()),
            TraceRecord::Applied { now, action } => {
                o.with("type", "applied").with("now", *now).with("action", action)
            }
            TraceRecord::Rejected { now, task, reason } => o
                .with("type", "rejected")
                .with("now", *now)
                .with("task", *task)
                .with("reason", reason.as_str()),
            TraceRecord::Error { now, message } => {
                o.with("type", "error").with("now", *now).with("message", message.as_str())
            }
            TraceRecord::Recalibrate { now, observed_b, modeled_b, machine } => o
                .with("type", "recalibrate")
                .with("now", *now)
                .with("observed_b", *observed_b)
                .with("modeled_b", *modeled_b)
                .with("machine", machine),
            TraceRecord::Predict {
                now,
                task,
                declared_seq_time,
                declared_io_rate,
                declared_memory,
                predicted_seq_time,
                predicted_io_rate,
                predicted_memory,
                co_runners,
                observations,
            } => o
                .with("type", "predict")
                .with("now", *now)
                .with("task", *task)
                .with("declared_seq_time", *declared_seq_time)
                .with("declared_io_rate", *declared_io_rate)
                .with("declared_memory", *declared_memory)
                .with("predicted_seq_time", *predicted_seq_time)
                .with("predicted_io_rate", *predicted_io_rate)
                .with("predicted_memory", *predicted_memory)
                .with("co_runners", *co_runners)
                .with("observations", *observations),
        }
    }
}

impl TraceRecord {
    /// One-line JSON rendering of the record (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonValue::from(self).to_string()
    }
}

/// Render records as JSONL: one [`TraceRecord::to_json`] line each, every
/// line newline-terminated. Floats render exactly (see
/// [`xprs_obs::json::fnum`]).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    records.iter().map(|r| r.to_json() + "\n").collect()
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// The `(timestamp, action)` stream a trace records, drawn from its
/// [`TraceRecord::Decide`] records in order.
pub fn action_stream(records: &[TraceRecord]) -> Vec<(f64, Action)> {
    records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Decide { now, actions, .. } => Some((*now, actions.clone())),
            _ => None,
        })
        .flat_map(|(now, actions)| actions.into_iter().map(move |a| (now, a)))
        .collect()
}

/// A whole-worker signature of an action stream, robust to the clock (wall
/// vs virtual) and to sub-worker jitter in remaining-work estimates:
/// `(task, is_start, parallelism rounded to whole workers in 1..=n_procs)`.
pub fn action_signature(actions: &[(f64, Action)], n_procs: u32) -> Vec<(TaskId, bool, u32)> {
    actions
        .iter()
        .map(|(_, a)| {
            let x = (a.parallelism().round() as i64).clamp(1, n_procs.max(1) as i64) as u32;
            (a.task(), matches!(a, Action::Start { .. }), x)
        })
        .collect()
}

/// Feed the recorded event stream (arrivals, finishes, decide snapshots) to
/// a *fresh* policy and verify it re-derives the recorded action stream
/// exactly. The policy must be constructed with the same configuration as
/// the capture (see [`replay_through_fluid`] for a fully self-contained
/// variant). Returns the number of decide records checked.
///
/// # Errors
/// [`SchedError::ReplayMismatch`] names the first diverging record;
/// [`SchedError::UnknownTask`] if a decide snapshot references a task with
/// no prior arrival record.
pub fn replay_decisions(
    records: &[TraceRecord],
    policy: &mut dyn SchedulePolicy,
) -> Result<usize, SchedError> {
    let mut profiles: Vec<TaskProfile> = Vec::new();
    let mut checked = 0usize;
    for (i, rec) in records.iter().enumerate() {
        match rec {
            TraceRecord::Arrival { now, profile } => {
                if !profiles.iter().any(|p| p.id == profile.id) {
                    profiles.push(profile.clone());
                }
                policy.on_arrival(*now, profile.clone());
            }
            TraceRecord::Finish { now, task } => policy.on_finish(*now, *task),
            TraceRecord::Recalibrate { now, machine, .. } => {
                policy.recalibrate(*now, machine.clone())
            }
            TraceRecord::Decide { now, running, actions } => {
                let snapshot: Vec<RunningTask> = running
                    .iter()
                    .map(|r| {
                        let profile = profiles
                            .iter()
                            .find(|p| p.id == r.task)
                            .cloned()
                            .ok_or(SchedError::UnknownTask { task: r.task })?;
                        Ok(RunningTask {
                            profile,
                            parallelism: r.parallelism,
                            remaining_seq_time: r.remaining,
                        })
                    })
                    .collect::<Result<Vec<_>, SchedError>>()?;
                let got = policy.decide(*now, &snapshot);
                if &got != actions {
                    return Err(SchedError::ReplayMismatch {
                        index: i,
                        detail: format!("recorded {actions:?}, replay produced {got:?}"),
                    });
                }
                checked += 1;
            }
            _ => {}
        }
    }
    Ok(checked)
}

/// Re-execute a captured run on the fluid model and return the re-derived
/// action stream.
///
/// The machine and policy are reconstructed from the trace's
/// [`TraceRecord::RunStart`] header. The recorded arrival/finish *causality*
/// is preserved by synthesising a [`crate::deps::FragmentDag`]: each arrival
/// depends on every task whose finish record precedes it, so the fluid
/// replay releases tasks in the same order the original driver did even
/// though its (virtual) clock differs from the capture's (wall) clock.
///
/// # Errors
/// [`SchedError::MalformedTrace`] if the trace has no `run_start` or no
/// arrivals; [`SchedError::UnknownPolicy`] for a policy the replayer cannot
/// rebuild; any [`SchedError`] the fluid replay itself surfaces.
pub fn replay_through_fluid(records: &[TraceRecord]) -> Result<Vec<(f64, Action)>, SchedError> {
    use crate::adaptive::{AdaptiveConfig, AdaptiveScheduler};
    use crate::deps::FragmentDag;
    use crate::fluid::FluidSim;
    use crate::intra::IntraOnly;

    let malformed_header =
        |detail: &str| SchedError::MalformedTrace { detail: detail.into() };
    let (machine, policy_name) = records
        .iter()
        .find_map(|r| match r {
            TraceRecord::RunStart { machine, policy, .. } => {
                Some((machine.clone(), policy.clone()))
            }
            _ => None,
        })
        .ok_or_else(|| malformed_header("trace has no run_start record"))?;

    // Rebuild the dependency structure from arrival/finish causality, and
    // collect recalibrations keyed by the same causal coordinate (how many
    // finishes preceded them): a wall-clock timestamp is meaningless to the
    // virtual-time replay, the finish count is not.
    let mut dag = FragmentDag::new();
    let mut finished: Vec<usize> = Vec::new(); // dag indices finished so far
    let mut index_of: Vec<(TaskId, usize)> = Vec::new();
    let mut recals: Vec<(usize, MachineConfig)> = Vec::new();
    for rec in records {
        match rec {
            TraceRecord::Arrival { profile, .. } => {
                if index_of.iter().any(|(id, _)| *id == profile.id) {
                    continue; // duplicate arrival: keep the first
                }
                let idx = dag.add(profile.clone(), &finished);
                index_of.push((profile.id, idx));
            }
            TraceRecord::Finish { task, .. } => {
                if let Some(&(_, idx)) = index_of.iter().find(|(id, _)| id == task) {
                    if !finished.contains(&idx) {
                        finished.push(idx);
                    }
                }
            }
            TraceRecord::Recalibrate { machine, .. } => {
                recals.push((finished.len(), machine.clone()));
            }
            _ => {}
        }
    }
    if dag.is_empty() {
        return Err(malformed_header("trace has no arrival records"));
    }

    let mut policy: Box<dyn SchedulePolicy> = match policy_name.as_str() {
        "INTER-WITH-ADJ" => {
            Box::new(AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(machine.clone())))
        }
        "INTER-WITHOUT-ADJ" => {
            Box::new(AdaptiveScheduler::new(AdaptiveConfig::without_adjustment(machine.clone())))
        }
        "INTRA-ONLY" => Box::new(IntraOnly::new(machine.clone(), true)),
        other => return Err(SchedError::UnknownPolicy { name: other.to_string() }),
    };

    let sink = SharedSink::default();
    FluidSim::new(machine)
        .with_recalibrations(recals)
        .with_sink(sink.clone())
        .run_dag(policy.as_mut(), &dag)?;
    let replayed = sink.lock().map(|mut r| std::mem::take(&mut *r)).unwrap_or_default();
    Ok(action_stream(&replayed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::RunStart {
                driver: "fluid".into(),
                policy: "INTER-WITH-ADJ".into(),
                machine: MachineConfig::paper_default(),
            },
            TraceRecord::Arrival {
                now: 0.0,
                profile: TaskProfile::new(TaskId(0), 20.0, 60.0, IoKind::Sequential),
            },
            TraceRecord::Queues { now: 0.0, io: vec![TaskId(0)], cpu: vec![] },
            TraceRecord::Candidate {
                now: 0.0,
                io: TaskId(0),
                cpu: TaskId(1),
                x_io: 3.2,
                x_cpu: 4.8,
                effective_bw: 213.25,
                t_inter: 7.5,
                t_intra: 10.0,
                worthwhile: true,
            },
            TraceRecord::Decide {
                now: 0.125,
                running: vec![RunningSnap { task: TaskId(0), parallelism: 3.0, remaining: 8.5 }],
                actions: vec![
                    Action::Start { id: TaskId(1), parallelism: 5.0 },
                    Action::Adjust { id: TaskId(0), parallelism: 3.0 },
                ],
            },
            TraceRecord::Applied {
                now: 0.125,
                action: Action::Start { id: TaskId(1), parallelism: 5.0 },
            },
            TraceRecord::Finish { now: 1.5, task: TaskId(0) },
            TraceRecord::Rejected { now: 2.0, task: TaskId(9), reason: "io_rate = 0".into() },
            TraceRecord::Error { now: 3.0, message: "policy \"x\" diverged\n".into() },
            TraceRecord::Recalibrate {
                now: 4.0,
                observed_b: 150.5,
                modeled_b: 240.0,
                machine: MachineConfig::paper_default(),
            },
            TraceRecord::Predict {
                now: 5.0,
                task: TaskId(3),
                declared_seq_time: 10.0,
                declared_io_rate: 20.0,
                declared_memory: 524288.0,
                predicted_seq_time: 41.5,
                predicted_io_rate: 9.75,
                predicted_memory: 3276800.0,
                co_runners: 3,
                observations: 6,
            },
        ]
    }

    /// `sample_records()` rendered: the trace artifact's bytes, which a
    /// change to the rendering must not move.
    const SAMPLE_JSONL: &str = r#"{"type":"run_start","driver":"fluid","policy":"INTER-WITH-ADJ","machine":{"n_procs":8,"n_disks":4,"seq_bw":97,"almost_seq_bw":60,"random_bw":35,"memory":1e400}}
{"type":"arrival","now":0,"task":0,"seq_time":20,"io_rate":60,"io_kind":"seq","memory":0}
{"type":"queues","now":0,"io":[0],"cpu":[]}
{"type":"candidate","now":0,"io":0,"cpu":1,"x_io":3.2,"x_cpu":4.8,"effective_bw":213.25,"t_inter":7.5,"t_intra":10,"worthwhile":true}
{"type":"decide","now":0.125,"running":[{"task":0,"x":3,"remaining":8.5}],"actions":[{"kind":"start","task":1,"x":5},{"kind":"adjust","task":0,"x":3}]}
{"type":"applied","now":0.125,"action":{"kind":"start","task":1,"x":5}}
{"type":"finish","now":1.5,"task":0}
{"type":"rejected","now":2,"task":9,"reason":"io_rate = 0"}
{"type":"error","now":3,"message":"policy \"x\" diverged\n"}
{"type":"recalibrate","now":4,"observed_b":150.5,"modeled_b":240,"machine":{"n_procs":8,"n_disks":4,"seq_bw":97,"almost_seq_bw":60,"random_bw":35,"memory":1e400}}
{"type":"predict","now":5,"task":3,"declared_seq_time":10,"declared_io_rate":20,"declared_memory":524288,"predicted_seq_time":41.5,"predicted_io_rate":9.75,"predicted_memory":3276800,"co_runners":3,"observations":6}
"#;

    /// The artifact stays valid JSON: every record kind renders as one line
    /// that the workspace's parser reads as an object tagged with its kind.
    #[test]
    fn every_record_kind_renders_as_one_tagged_json_object() {
        let tags = [
            "run_start", "arrival", "queues", "candidate", "decide", "applied", "finish",
            "rejected", "error", "recalibrate", "predict",
        ];
        let text = to_jsonl(&sample_records());
        assert_eq!(text.lines().count(), tags.len());
        for (line, tag) in text.lines().zip(tags) {
            let v = xprs_obs::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("type").and_then(JsonValue::str), Some(tag), "{line}");
        }
    }

    #[test]
    fn infinite_memory_round_trips() {
        let rec = TraceRecord::RunStart {
            driver: "des".into(),
            policy: "INTRA-ONLY".into(),
            machine: MachineConfig::paper_default(), // memory = +inf
        };
        let v = xprs_obs::json::parse(&rec.to_json()).expect("parse");
        let memory = v.get("machine").and_then(|m| m.get("memory")).and_then(JsonValue::num);
        assert_eq!(memory, Some(f64::INFINITY));
    }

    #[test]
    fn bytes_after_a_record_are_refused_not_half_read() {
        let finish = TraceRecord::Finish { now: 0.0, task: TaskId(1) }.to_json();
        assert!(xprs_obs::json::parse(&format!("{finish}{finish}")).is_err());
        // Trailing whitespace and a CRLF line end still read as the record.
        let want = xprs_obs::json::parse(&finish).expect("parse");
        assert_eq!(xprs_obs::json::parse(&format!("{finish} \t\r\n")), Ok(want));
    }

    #[test]
    fn every_truncation_of_every_record_kind_is_malformed_not_a_panic() {
        for rec in sample_records() {
            let line = rec.to_json();
            for cut in (1..line.len()).filter(|&i| line.is_char_boundary(i)) {
                assert!(xprs_obs::json::parse(&line[..cut]).is_err(), "{}", &line[..cut]);
            }
        }
    }

    #[test]
    fn hostile_lines_are_refused_or_read_without_a_panic() {
        use xprs_obs::json::parse;
        // Nesting past the parser's bound is an error, not a stack overflow.
        let deep = format!("{{\"type\":\"queues\",\"now\":0,\"cpu\":[],\"io\":{}", "[".repeat(10_000));
        let detail = parse(&deep).unwrap_err();
        assert!(detail.contains("nesting deeper than"), "{detail}");
        // An embedded NUL is garbage between tokens…
        assert!(parse("{\"type\":\"finish\",\"now\":0,\u{0}\"task\":1}").is_err());
        // …and data inside a string, which the writer escapes and the parser
        // reads back; a surrogate escape reads as U+FFFD.
        let message = |line: &str| parse(line).ok()?.get("message")?.str().map(String::from);
        let nul = TraceRecord::Error { now: 0.0, message: "a\u{0}b".into() }.to_json();
        assert_eq!(message(&nul).as_deref(), Some("a\u{0}b"));
        let odd = "{\"type\":\"error\",\"now\":0,\"message\":\"a\u{0}b\\ud800\"}";
        assert_eq!(message(odd).as_deref(), Some("a\u{0}b\u{fffd}"));
        for bad_escape in ["\\x", "\\u12", "\\uZZZZ", "\\"] {
            let line = format!("{{\"type\":\"error\",\"now\":0,\"message\":\"{bad_escape}\"}}");
            assert!(parse(&line).is_err(), "{line}");
        }
        // Numbers no f64 holds saturate; they do not wrap or panic.
        let huge = format!("{{\"type\":\"finish\",\"now\":-1e999999,\"task\":{}}}", "9".repeat(5_000));
        let v = parse(&huge).expect("parse");
        assert_eq!(v.get("now").and_then(JsonValue::num), Some(f64::NEG_INFINITY));
        assert_eq!(v.get("task").and_then(JsonValue::num), Some(f64::INFINITY));
    }

    #[test]
    fn null_sink_is_silent_and_emit_is_lazy() {
        let sink: Option<SharedSink> = None;
        // The closure must not run when no sink is attached.
        emit(&sink, || unreachable!("emit must be lazy"));
    }

    #[test]
    fn to_jsonl_writes_the_pinned_lines() {
        let trace = SharedSink::default();
        let sink = Some(trace.clone());
        for rec in sample_records() {
            emit(&sink, || rec);
        }
        assert_eq!(to_jsonl(&trace.lock().unwrap()), SAMPLE_JSONL);
        assert_eq!(to_jsonl(&[]), "");
    }

    #[test]
    fn replay_applies_recalibrations_to_the_policy() {
        use crate::adaptive::{AdaptiveConfig, AdaptiveScheduler};
        let mut degraded = MachineConfig::paper_default();
        degraded.almost_seq_bw = 20.0;
        let records = vec![TraceRecord::Recalibrate {
            now: 1.0,
            observed_b: 80.0,
            modeled_b: 240.0,
            machine: degraded.clone(),
        }];
        let mut p =
            AdaptiveScheduler::new(AdaptiveConfig::with_adjustment(MachineConfig::paper_default()));
        replay_decisions(&records, &mut p).expect("replay");
        assert_eq!(p.machine().almost_seq_bw, 20.0, "policy must adopt the corrected machine");
    }

    #[test]
    fn action_stream_and_signature_extract_decides() {
        let stream = action_stream(&sample_records());
        assert_eq!(stream.len(), 2);
        let sig = action_signature(&stream, 8);
        assert_eq!(sig, vec![(TaskId(1), true, 5), (TaskId(0), false, 3)]);
    }
}

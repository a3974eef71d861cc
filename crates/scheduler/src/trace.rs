//! Structured decision traces for the scheduling control path.
//!
//! Every driver (the fluid estimator, the discrete-event simulator, the
//! threaded executor) and the adaptive policy itself can emit
//! [`TraceRecord`]s into a [`TraceSink`]: arrivals with full task profiles,
//! queue snapshots, the candidate pair with its balance point and effective
//! bandwidth, the `T_inter` vs `T_intra` verdict, and every `Start`/`Adjust`
//! the driver applied, all timestamped with the driver's clock. The default
//! sink is [`NullSink`] (zero overhead when tracing is off); [`RingSink`]
//! keeps the last `N` records in memory for post-mortems and [`JsonlSink`]
//! streams hand-rolled JSON lines (this workspace builds offline, with no
//! serde) to any `Write`.
//!
//! Because [`crate::adaptive::AdaptiveScheduler`] is deterministic given its
//! input events, a captured trace is a *replayable artifact*:
//!
//! * [`replay_decisions`] feeds the recorded arrivals, completions and
//!   running-set snapshots to a fresh policy and verifies it re-derives the
//!   identical action stream — the first diverging record pinpoints the bug;
//! * [`replay_through_fluid`] rebuilds the task DAG from the recorded
//!   arrival/finish causality and re-executes the whole schedule on the
//!   fluid model, returning the re-derived action stream for comparison
//!   against the capture (e.g. one taken from the threaded executor).
//!
//! See `DESIGN.md` §9 for the record schema and a capture/replay walkthrough.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

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
// Sinks
// ---------------------------------------------------------------------------

/// Receiver of trace records. Implementations must tolerate being called
/// from whichever thread drives the policy (always exactly one at a time).
pub trait TraceSink: Send {
    /// Consume one record.
    fn record(&mut self, rec: &TraceRecord);
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// In-memory ring buffer keeping the most recent records — cheap enough to
/// leave on in production and harvest after an anomaly.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping at most `cap` records (`cap == 0` keeps none).
    pub fn new(cap: usize) -> Self {
        RingSink { cap, buf: VecDeque::new(), dropped: 0 }
    }

    /// A ring that never evicts (for tests and replay capture).
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf.iter().cloned().collect()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec.clone());
    }
}

/// Streams each record as one JSON object per line (JSONL) into any writer.
/// The JSON is hand-rolled — the workspace builds offline without serde —
/// and floats round-trip exactly (Rust's shortest-representation `Display`).
///
/// A continuous service must cap this sink ([`JsonlSink::bounded`]): an
/// open-loop arrival stream emits trace records forever, and an unbounded
/// JSONL file is unbounded growth on the service host. Past the cap the
/// sink stops writing and counts what it dropped instead.
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write + Send> {
    out: W,
    /// First I/O error encountered, if any (the sink goes quiet after).
    error: Option<std::io::ErrorKind>,
    /// Records this sink will still write; `None` = unbounded.
    remaining: Option<u64>,
    /// Records not written because the cap was reached or the sink had
    /// already gone quiet on an I/O error.
    dropped: u64,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// An unbounded sink writing to `out` (batch runs, tests).
    pub fn new(out: W) -> Self {
        JsonlSink { out, error: None, remaining: None, dropped: 0 }
    }

    /// A sink that writes at most `max_records` records to `out`, then
    /// drops (and counts) the rest.
    pub fn bounded(out: W, max_records: u64) -> Self {
        JsonlSink { out, error: None, remaining: Some(max_records), dropped: 0 }
    }

    /// Unwrap the writer (e.g. to recover a `Vec<u8>` buffer).
    pub fn into_inner(self) -> W {
        self.out
    }

    /// The first write error, if the sink went quiet.
    pub fn io_error(&self) -> Option<std::io::ErrorKind> {
        self.error
    }

    /// Records dropped at the cap or after an I/O error.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            self.dropped += 1;
            return; // tracing must never take the run down
        }
        if let Some(remaining) = &mut self.remaining {
            if *remaining == 0 {
                self.dropped += 1;
                return;
            }
            *remaining -= 1;
        }
        let mut line = rec.to_json();
        line.push('\n');
        if let Err(e) = self.out.write_all(line.as_bytes()) {
            self.error = Some(e.kind());
        }
    }
}

/// A sharable, dynamically-typed sink handle. Drivers and the policy can
/// hold clones of the same handle so their records interleave in event
/// order. Created by [`shared`], or by coercing an
/// `Arc<Mutex<S>>` (keep the typed clone to read the sink back afterwards).
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Wrap a sink for sharing between a driver and a policy.
pub fn shared<S: TraceSink + 'static>(sink: S) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// Emit a lazily-built record into an optional sink. The closure only runs
/// when a sink is attached, so a disabled trace costs one branch. A
/// poisoned sink lock is skipped — tracing never panics the control path.
pub fn emit<F: FnOnce() -> TraceRecord>(sink: &Option<SharedSink>, f: F) {
    if let Some(s) = sink {
        if let Ok(mut guard) = s.lock() {
            let rec = f();
            guard.record(&rec);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

// The encoder and parser used to live here; they are now the shared
// `xprs_obs::json` module so the executor's `metrics.json` and the bench/CI
// validators speak the exact same dialect (float round-trips, `±1e400`
// infinities, NaN-as-null).
use xprs_obs::json::{fnum, jstr, JsonValue};

fn ids_json(ids: &[TaskId]) -> String {
    let items: Vec<String> = ids.iter().map(|t| t.0.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn action_json(a: &Action) -> String {
    match a {
        Action::Start { id, parallelism } => {
            format!("{{\"kind\":\"start\",\"task\":{},\"x\":{}}}", id.0, fnum(*parallelism))
        }
        Action::Adjust { id, parallelism } => {
            format!("{{\"kind\":\"adjust\",\"task\":{},\"x\":{}}}", id.0, fnum(*parallelism))
        }
    }
}

fn kind_str(k: IoKind) -> &'static str {
    match k {
        IoKind::Sequential => "seq",
        IoKind::Random => "random",
    }
}

fn machine_json(m: &MachineConfig) -> String {
    format!(
        "{{\"n_procs\":{},\"n_disks\":{},\"seq_bw\":{},\"almost_seq_bw\":{},\
         \"random_bw\":{},\"memory\":{}}}",
        m.n_procs,
        m.n_disks,
        fnum(m.seq_bw),
        fnum(m.almost_seq_bw),
        fnum(m.random_bw),
        fnum(m.memory),
    )
}

impl TraceRecord {
    /// One-line JSON rendering of the record (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceRecord::RunStart { driver, policy, machine } => format!(
                "{{\"type\":\"run_start\",\"driver\":{},\"policy\":{},\"machine\":{}}}",
                jstr(driver),
                jstr(policy),
                machine_json(machine),
            ),
            TraceRecord::Arrival { now, profile } => format!(
                "{{\"type\":\"arrival\",\"now\":{},\"task\":{},\"seq_time\":{},\
                 \"io_rate\":{},\"io_kind\":{},\"memory\":{}}}",
                fnum(*now),
                profile.id.0,
                fnum(profile.seq_time),
                fnum(profile.io_rate),
                jstr(kind_str(profile.io_kind)),
                fnum(profile.memory),
            ),
            TraceRecord::Finish { now, task } => {
                format!("{{\"type\":\"finish\",\"now\":{},\"task\":{}}}", fnum(*now), task.0)
            }
            TraceRecord::Queues { now, io, cpu } => format!(
                "{{\"type\":\"queues\",\"now\":{},\"io\":{},\"cpu\":{}}}",
                fnum(*now),
                ids_json(io),
                ids_json(cpu),
            ),
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
            } => format!(
                "{{\"type\":\"candidate\",\"now\":{},\"io\":{},\"cpu\":{},\"x_io\":{},\
                 \"x_cpu\":{},\"effective_bw\":{},\"t_inter\":{},\"t_intra\":{},\
                 \"worthwhile\":{}}}",
                fnum(*now),
                io.0,
                cpu.0,
                fnum(*x_io),
                fnum(*x_cpu),
                fnum(*effective_bw),
                fnum(*t_inter),
                fnum(*t_intra),
                worthwhile,
            ),
            TraceRecord::Decide { now, running, actions } => {
                let runs: Vec<String> = running
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"task\":{},\"x\":{},\"remaining\":{}}}",
                            r.task.0,
                            fnum(r.parallelism),
                            fnum(r.remaining)
                        )
                    })
                    .collect();
                let acts: Vec<String> = actions.iter().map(action_json).collect();
                format!(
                    "{{\"type\":\"decide\",\"now\":{},\"running\":[{}],\"actions\":[{}]}}",
                    fnum(*now),
                    runs.join(","),
                    acts.join(",")
                )
            }
            TraceRecord::Applied { now, action } => format!(
                "{{\"type\":\"applied\",\"now\":{},\"action\":{}}}",
                fnum(*now),
                action_json(action)
            ),
            TraceRecord::Rejected { now, task, reason } => format!(
                "{{\"type\":\"rejected\",\"now\":{},\"task\":{},\"reason\":{}}}",
                fnum(*now),
                task.0,
                jstr(reason)
            ),
            TraceRecord::Error { now, message } => format!(
                "{{\"type\":\"error\",\"now\":{},\"message\":{}}}",
                fnum(*now),
                jstr(message)
            ),
            TraceRecord::Recalibrate { now, observed_b, modeled_b, machine } => format!(
                "{{\"type\":\"recalibrate\",\"now\":{},\"observed_b\":{},\
                 \"modeled_b\":{},\"machine\":{}}}",
                fnum(*now),
                fnum(*observed_b),
                fnum(*modeled_b),
                machine_json(machine),
            ),
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
            } => format!(
                "{{\"type\":\"predict\",\"now\":{},\"task\":{},\
                 \"declared_seq_time\":{},\"declared_io_rate\":{},\
                 \"declared_memory\":{},\"predicted_seq_time\":{},\
                 \"predicted_io_rate\":{},\"predicted_memory\":{},\
                 \"co_runners\":{},\"observations\":{}}}",
                fnum(*now),
                task.0,
                fnum(*declared_seq_time),
                fnum(*declared_io_rate),
                fnum(*declared_memory),
                fnum(*predicted_seq_time),
                fnum(*predicted_io_rate),
                fnum(*predicted_memory),
                co_runners,
                observations,
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON parsing (via the shared `xprs_obs::json` parser)
// ---------------------------------------------------------------------------

fn malformed(line: usize, detail: impl Into<String>) -> SchedError {
    SchedError::MalformedTrace { line, detail: detail.into() }
}

fn field<'a>(v: &'a JsonValue, key: &str, line: usize) -> Result<&'a JsonValue, SchedError> {
    v.get(key).ok_or_else(|| malformed(line, format!("missing field {key:?}")))
}

fn fnum_of(v: &JsonValue, key: &str, line: usize) -> Result<f64, SchedError> {
    field(v, key, line)?
        .num()
        .ok_or_else(|| malformed(line, format!("field {key:?} is not a number")))
}

fn id_of(v: &JsonValue, key: &str, line: usize) -> Result<TaskId, SchedError> {
    Ok(TaskId(fnum_of(v, key, line)? as u64))
}

fn ids_of(v: &JsonValue, key: &str, line: usize) -> Result<Vec<TaskId>, SchedError> {
    field(v, key, line)?
        .arr()
        .ok_or_else(|| malformed(line, format!("field {key:?} is not an array")))?
        .iter()
        .map(|j| {
            j.num()
                .map(|x| TaskId(x as u64))
                .ok_or_else(|| malformed(line, "task id is not a number"))
        })
        .collect()
}

fn machine_of(v: &JsonValue, key: &str, line: usize) -> Result<MachineConfig, SchedError> {
    let m = field(v, key, line)?;
    Ok(MachineConfig {
        n_procs: fnum_of(m, "n_procs", line)? as u32,
        n_disks: fnum_of(m, "n_disks", line)? as u32,
        seq_bw: fnum_of(m, "seq_bw", line)?,
        almost_seq_bw: fnum_of(m, "almost_seq_bw", line)?,
        random_bw: fnum_of(m, "random_bw", line)?,
        memory: fnum_of(m, "memory", line)?,
    })
}

fn action_of(v: &JsonValue, line: usize) -> Result<Action, SchedError> {
    let kind = field(v, "kind", line)?
        .str()
        .ok_or_else(|| malformed(line, "action kind is not a string"))?;
    let id = id_of(v, "task", line)?;
    let parallelism = fnum_of(v, "x", line)?;
    match kind {
        "start" => Ok(Action::Start { id, parallelism }),
        "adjust" => Ok(Action::Adjust { id, parallelism }),
        other => Err(malformed(line, format!("unknown action kind {other:?}"))),
    }
}

impl TraceRecord {
    /// Parse one record from its [`TraceRecord::to_json`] line. `line` is
    /// the 1-based line number used in error reports.
    pub fn from_json(s: &str, line: usize) -> Result<TraceRecord, SchedError> {
        let v = xprs_obs::json::parse_prefix(s).map_err(|e| malformed(line, e))?;
        let ty = field(&v, "type", line)?
            .str()
            .ok_or_else(|| malformed(line, "record type is not a string"))?
            .to_string();
        match ty.as_str() {
            "run_start" => Ok(TraceRecord::RunStart {
                driver: field(&v, "driver", line)?
                    .str()
                    .ok_or_else(|| malformed(line, "driver is not a string"))?
                    .to_string(),
                policy: field(&v, "policy", line)?
                    .str()
                    .ok_or_else(|| malformed(line, "policy is not a string"))?
                    .to_string(),
                machine: machine_of(&v, "machine", line)?,
            }),
            "arrival" => {
                let kind = match field(&v, "io_kind", line)?.str() {
                    Some("seq") => IoKind::Sequential,
                    Some("random") => IoKind::Random,
                    _ => return Err(malformed(line, "unknown io_kind")),
                };
                Ok(TraceRecord::Arrival {
                    now: fnum_of(&v, "now", line)?,
                    profile: TaskProfile {
                        id: id_of(&v, "task", line)?,
                        seq_time: fnum_of(&v, "seq_time", line)?,
                        io_rate: fnum_of(&v, "io_rate", line)?,
                        io_kind: kind,
                        memory: fnum_of(&v, "memory", line)?,
                    },
                })
            }
            "finish" => Ok(TraceRecord::Finish {
                now: fnum_of(&v, "now", line)?,
                task: id_of(&v, "task", line)?,
            }),
            "queues" => Ok(TraceRecord::Queues {
                now: fnum_of(&v, "now", line)?,
                io: ids_of(&v, "io", line)?,
                cpu: ids_of(&v, "cpu", line)?,
            }),
            "candidate" => Ok(TraceRecord::Candidate {
                now: fnum_of(&v, "now", line)?,
                io: id_of(&v, "io", line)?,
                cpu: id_of(&v, "cpu", line)?,
                x_io: fnum_of(&v, "x_io", line)?,
                x_cpu: fnum_of(&v, "x_cpu", line)?,
                effective_bw: fnum_of(&v, "effective_bw", line)?,
                t_inter: fnum_of(&v, "t_inter", line)?,
                t_intra: fnum_of(&v, "t_intra", line)?,
                worthwhile: field(&v, "worthwhile", line)?
                    .boolean()
                    .ok_or_else(|| malformed(line, "worthwhile is not a bool"))?,
            }),
            "decide" => {
                let running = field(&v, "running", line)?
                    .arr()
                    .ok_or_else(|| malformed(line, "running is not an array"))?
                    .iter()
                    .map(|j| {
                        Ok(RunningSnap {
                            task: id_of(j, "task", line)?,
                            parallelism: fnum_of(j, "x", line)?,
                            remaining: fnum_of(j, "remaining", line)?,
                        })
                    })
                    .collect::<Result<Vec<_>, SchedError>>()?;
                let actions = field(&v, "actions", line)?
                    .arr()
                    .ok_or_else(|| malformed(line, "actions is not an array"))?
                    .iter()
                    .map(|j| action_of(j, line))
                    .collect::<Result<Vec<_>, SchedError>>()?;
                Ok(TraceRecord::Decide { now: fnum_of(&v, "now", line)?, running, actions })
            }
            "applied" => Ok(TraceRecord::Applied {
                now: fnum_of(&v, "now", line)?,
                action: action_of(field(&v, "action", line)?, line)?,
            }),
            "rejected" => Ok(TraceRecord::Rejected {
                now: fnum_of(&v, "now", line)?,
                task: id_of(&v, "task", line)?,
                reason: field(&v, "reason", line)?
                    .str()
                    .ok_or_else(|| malformed(line, "reason is not a string"))?
                    .to_string(),
            }),
            "error" => Ok(TraceRecord::Error {
                now: fnum_of(&v, "now", line)?,
                message: field(&v, "message", line)?
                    .str()
                    .ok_or_else(|| malformed(line, "message is not a string"))?
                    .to_string(),
            }),
            "recalibrate" => Ok(TraceRecord::Recalibrate {
                now: fnum_of(&v, "now", line)?,
                observed_b: fnum_of(&v, "observed_b", line)?,
                modeled_b: fnum_of(&v, "modeled_b", line)?,
                machine: machine_of(&v, "machine", line)?,
            }),
            "predict" => Ok(TraceRecord::Predict {
                now: fnum_of(&v, "now", line)?,
                task: id_of(&v, "task", line)?,
                declared_seq_time: fnum_of(&v, "declared_seq_time", line)?,
                declared_io_rate: fnum_of(&v, "declared_io_rate", line)?,
                declared_memory: fnum_of(&v, "declared_memory", line)?,
                predicted_seq_time: fnum_of(&v, "predicted_seq_time", line)?,
                predicted_io_rate: fnum_of(&v, "predicted_io_rate", line)?,
                predicted_memory: fnum_of(&v, "predicted_memory", line)?,
                co_runners: fnum_of(&v, "co_runners", line)? as u32,
                observations: fnum_of(&v, "observations", line)? as u64,
            }),
            other => Err(malformed(line, format!("unknown record type {other:?}"))),
        }
    }
}

/// Parse a whole JSONL capture (blank lines ignored).
///
/// # Errors
/// [`SchedError::MalformedTrace`] naming the first line that is not a
/// record: truncated, of an unknown type, missing a field, or nested deeper
/// than [`xprs_obs::json::MAX_DEPTH`].
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, SchedError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| TraceRecord::from_json(l, i + 1))
        .collect()
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

    let (machine, policy_name) = records
        .iter()
        .find_map(|r| match r {
            TraceRecord::RunStart { machine, policy, .. } => {
                Some((machine.clone(), policy.clone()))
            }
            _ => None,
        })
        .ok_or_else(|| malformed(0, "trace has no run_start record"))?;

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
        return Err(malformed(0, "trace has no arrival records"));
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

    let ring = Arc::new(Mutex::new(RingSink::unbounded()));
    let sink: SharedSink = ring.clone();
    FluidSim::new(machine)
        .with_recalibrations(recals)
        .with_sink(sink)
        .run_dag(policy.as_mut(), &dag)?;
    let replayed = ring.lock().map(|r| r.records()).unwrap_or_default();
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

    #[test]
    fn jsonl_round_trips_exactly() {
        let records = sample_records();
        let text: String =
            records.iter().map(|r| r.to_json() + "\n").collect::<Vec<_>>().join("");
        let back = parse_jsonl(&text).expect("parse");
        assert_eq!(records, back);
    }

    #[test]
    fn infinite_memory_round_trips() {
        let rec = TraceRecord::RunStart {
            driver: "des".into(),
            policy: "INTRA-ONLY".into(),
            machine: MachineConfig::paper_default(), // memory = +inf
        };
        let back = TraceRecord::from_json(&rec.to_json(), 1).expect("parse");
        match back {
            TraceRecord::RunStart { machine, .. } => {
                assert!(machine.memory.is_infinite() && machine.memory > 0.0)
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn ring_sink_keeps_the_tail() {
        let mut ring = RingSink::new(2);
        for rec in sample_records() {
            ring.record(&rec);
        }
        let kept = ring.records();
        assert_eq!(kept.len(), 2);
        assert_eq!(ring.dropped(), sample_records().len() as u64 - 2);
        assert_eq!(kept[1], sample_records()[sample_records().len() - 1]);
    }

    #[test]
    fn null_sink_is_silent_and_emit_is_lazy() {
        let sink: Option<SharedSink> = None;
        // The closure must not run when no sink is attached.
        emit(&sink, || unreachable!("emit must be lazy"));
        let shared_null = shared(NullSink);
        emit(&Some(shared_null), || sample_records()[0].clone());
    }

    #[test]
    fn jsonl_sink_streams_lines() {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        for rec in sample_records() {
            sink.record(&rec);
        }
        assert!(sink.io_error().is_none());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), sample_records().len());
        assert_eq!(parse_jsonl(&text).unwrap(), sample_records());
    }

    #[test]
    fn bounded_jsonl_sink_stops_at_the_cap_and_counts_drops() {
        let n = sample_records().len() as u64;
        let mut sink = JsonlSink::bounded(Vec::<u8>::new(), 2);
        for rec in sample_records() {
            sink.record(&rec);
        }
        assert!(sink.io_error().is_none());
        assert_eq!(sink.dropped(), n - 2);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2, "nothing past the cap is written");
        assert_eq!(parse_jsonl(&text).unwrap(), sample_records()[..2]);
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let err = parse_jsonl("{\"type\":\"finish\",\"now\":0,\"task\":1}\n{oops}\n")
            .expect_err("must fail");
        match err {
            SchedError::MalformedTrace { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    /// The line number `parse_jsonl` blames for a capture it must refuse.
    fn malformed_line(text: &str) -> usize {
        match parse_jsonl(text) {
            Err(SchedError::MalformedTrace { line, .. }) => line,
            other => panic!("expected MalformedTrace, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_of_every_record_kind_is_malformed_not_a_panic() {
        let good = TraceRecord::Finish { now: 1.5, task: TaskId(0) }.to_json();
        for rec in sample_records() {
            let line = rec.to_json();
            for cut in (1..line.len()).filter(|&i| line.is_char_boundary(i)) {
                assert_eq!(malformed_line(&format!("{good}\n{}\n", &line[..cut])), 2);
            }
        }
    }

    #[test]
    fn hostile_lines_are_refused_or_read_without_a_panic() {
        // Nesting past the parser's bound is an error on its line, not a
        // stack overflow.
        let deep = format!("{{\"type\":\"queues\",\"now\":0,\"cpu\":[],\"io\":{}", "[".repeat(10_000));
        assert_eq!(malformed_line(&format!("\n{deep}\n")), 2);
        let detail = parse_jsonl(&deep).unwrap_err().to_string();
        assert!(detail.contains("nesting deeper than"), "{detail}");
        // An embedded NUL is garbage between tokens…
        assert_eq!(malformed_line("{\"type\":\"finish\",\"now\":0,\u{0}\"task\":1}"), 1);
        // …and data inside a string, like a surrogate escape (read as U+FFFD).
        let odd = parse_jsonl("{\"type\":\"error\",\"now\":0,\"message\":\"a\u{0}b\\ud800\"}");
        let want = TraceRecord::Error { now: 0.0, message: "a\u{0}b\u{fffd}".into() };
        assert_eq!(odd, Ok(vec![want]));
        for bad_escape in ["\\x", "\\u12", "\\uZZZZ", "\\"] {
            let line = format!("{{\"type\":\"error\",\"now\":0,\"message\":\"{bad_escape}\"}}");
            assert_eq!(malformed_line(&line), 1, "{line}");
        }
        // Numbers no f64 or u64 holds saturate; they do not wrap or panic.
        let huge = format!("{{\"type\":\"finish\",\"now\":1e999999,\"task\":{}}}", "9".repeat(5_000));
        let want = TraceRecord::Finish { now: f64::INFINITY, task: TaskId(u64::MAX) };
        assert_eq!(parse_jsonl(&huge), Ok(vec![want]));
        let negative = "{\"type\":\"finish\",\"now\":-1e999999,\"task\":-7}";
        let want = TraceRecord::Finish { now: f64::NEG_INFINITY, task: TaskId(0) };
        assert_eq!(parse_jsonl(negative), Ok(vec![want]));
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

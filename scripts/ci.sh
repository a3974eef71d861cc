#!/usr/bin/env bash
# Full local CI: build, tests (the release leg includes the performance
# gates), lints, rustdoc and the declared benchmark.
#
# The workspace builds offline (rand/proptest are std-only shims under
# shims/), so this needs no network. Run from the repo root:
#
#   ./scripts/ci.sh
#
# The paper's performance claims are release-mode tests, compiled only
# without debug assertions, so the release test leg is the one that runs
# them: crates/executor/tests/perf_gates.rs (disk-resident scan and join
# scaling, the §2.3 disk band, solo disk utilization, skewed-join
# throughput, warm predictor vs wrong declarations) and
# crates/service/tests/perf_service.rs (the interactive tail under the
# open-loop soak). Each binary runs its timed tests one at a time. The
# recorded numbers live in docs/results/. The last leg builds the declared
# benchmark into benchmark/target and writes benchmark/out/ (both
# git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace)"
cargo test -q --workspace --offline

echo "==> cargo test --release (workspace)"
# Release mode strips debug_asserts; this leg catches control-path failures
# that only debug assertions used to mask (e.g. inverted clamps), and it is
# the leg that runs the release-only performance gates.
cargo test -q --release --workspace --offline

echo "==> cargo test --doc"
cargo test -q --doc --workspace --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Every intra-doc link resolves: a renamed or deleted item must not leave a
# dead link in a doc comment.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

# One data path, one fragment lifecycle: the retired paths' names (the
# seed's global-lock path, the static-share partition mode, the no-spill
# switch, the per-driver rounding copies, the drivers' private status enums
# and id scans that `xprs_scheduler::FragTable` replaced, the switch that
# left memory unscheduled by default, the bench legs `benchmark/` already
# measures, the trace sinks and the metrics dump option nobody used, the
# lenient JSON prefix parser, the hand-written bench header, the patrol and
# recalibration knobs that a run's own shape now decides, the array model no
# engine used, the report and registry copies of what a fragment profile or a
# partition slot already holds, the statistics-free run splitter, the merge
# and band knobs and the host CPU read that the modelled machine and two
# constants replaced, the executor's second plan cut and the check that
# compared it with the optimizer's, the run counting that discounted
# recalibration drift, the counters only their own unit tests read, and the
# heartbeat, per-morsel report, recovery counter and I/O window copies of what
# a slot's claim word and the disks' class counters already hold, the pool
# wrapper and the second way to end a run, the channel error the master's own
# sender rules out, the token and patrol deadline checks that one wake rule
# replaced, the public functions only their own unit tests called, the second
# trace sink, the metrics registry attach, the frozen-claim reaper that
# guessed at worker deaths the pool job now reports, the paper-literal stride
# protocols and their cursors that the simulator ran beside the morsel deal
# every engine now shares (a second §2.4 implementation lets the simulated and
# the executed deal drift apart), the three gated bench bins, their JSON files
# and their scenario modules, which release-mode tests replaced (two systems
# checking one claim drift apart), and any call of
# `with_obs`, an identity kept for `benchmark/`, which this grep does not
# scan) must not
# creep back into code, examples, tests or the verify skill. `scripts/` is left out so the pattern does not match itself;
# docs keep the names as history.
echo "==> retired-name grep"
if grep -rnE 'GlobalLock|DataPath|KeyIndex|push_contended|effective_(shards|morsel_mode|out_batch|cpu_batch)|StaticShares|MorselMode|with_morsel_mode|PartitionState|without_spill|MemoryGrantExceeded|to_workers|to_processors|FragStatus|TaskState|take_running|fn task_index|memory_grants|with_memory_grants|bench_obs|BENCH_obs|exec_scan|exec_join|run_with_obs|NullSink|parse_prefix|metrics_out|MetricsDump|host_header_json|patrol_ms|patrol_grace|recal_min_requests|with_patrol|DiskArrayModel|\bfragment_times\b|footprint_warnings|mem_overruns|merge_fanout|prediction_fallbacks|exited_slots|\bsplit_runs\b|parallel_merge_min_rows|parallel_merge_ways|recal_band|with_recalibration\b|host_parallelism|PlanMismatch|ProgramSet|RunGuard|active_runs|run_started|run_finished|interference_factor|jobs_submitted|jobs_completed|delivered_rate|heartbeat_of|watched_heartbeats|recoveries_at_start|observed_service|report_units|units_done|integral_split|io_utilization|critical_path|\btn_estimate\b|Backends<|Backends::|ChannelClosed|deadline_instant|tick_due|sql_cmp|blocks_on_disk|finish_of|\bn_keys\b|total_seq_time|JsonlSink|TraceSink|with_metrics|PATROL_GRACE|StealPartition::reap|patrol::reap|\.reap\(|PagePartition|RangePartition|KeyRange|\bnext_page\b|\bnext_key\b|bench_executor|bench_join|bench_service|BENCH_(executor|join|service)|exec_disk|exec_memory|exec_skew|exec_predict|bench_doc|\.with_obs\(' \
    crates examples src tests .claude; then
    echo "retired data-path names found (matches above)" >&2
    exit 1
fi

# One plan cut: `xprs_optimizer::fragment::decompose` is the only walk that
# cuts a plan into fragments, and each fragment carries its pipeline program.
# The executor runs those programs as given, so outside test modules no
# executor source matches on a plan node (`FaultPlan::` is not one).
echo "==> one plan cut (no Plan:: match in the executor)"
awk '
    FNR == 1 { in_tests = 0 }
    in_tests { next }
    /^#\[cfg\(test\)\]/ { in_tests = 1; next }
    /^ *\/\// { next }
    /(^|[^A-Za-z0-9_])Plan::/ {
        print FILENAME ":" FNR ": plan walked outside the optimizer: " $0
        bad = 1
    }
    END { exit bad }
' crates/executor/src/*.rs

# The master's run state lives in one struct; a helper that needs eight
# arguments is threading that state by hand again.
echo "==> no too_many_arguments allowance in the executor"
if grep -rnE 'allow\(clippy::too_many_arguments\)' crates/executor/src; then
    echo "thread the run state through MasterRun, not through arguments" >&2
    exit 1
fi

# A disk is a reservation timeline, not a mutex held through a sleep: no
# function of io.rs that touches a disk lane or the in-flight table (the
# deadlines a hit on a page still being read waits for) may also sleep, pace
# or await a deadline. The check is function-granular (a grep cannot see
# guard scopes); the unit test `no_latch_is_held_while_reads_are_in_flight`
# is the behavioural guard.
echo "==> no sleep under a disk-lane or in-flight latch (io.rs)"
awk '
    function check() { if (latched && sleeps) { print "sleeps while touching a disk lane or the in-flight table:" name; bad = 1 } }
    /^#\[cfg\(test\)\]/ { exit }
    /^ *(pub(\([a-z]+\))? )?fn / { check(); name = $0; latched = 0; sleeps = 0 }
    /self\.(lanes|in_flight)/ { latched = 1 }
    /sleep|pace_until|await_deadline/ && !/^ *\/\// { sleeps = 1 }
    END { check(); exit bad }
' crates/executor/src/io.rs

# One pacing rule: every modelled wait is a deadline on the thread's model
# clock, waited for in io.rs's `pace_until` through the machine's `Clock`
# (DESIGN.md §19.4); a raw sleep anywhere else would bypass that clock.
# Outside test modules the executor may sleep only in clock.rs's
# `WallClock::sleep_until` and in one named exception holding one sleep: the
# injected `Stall` fault in worker.rs's `run_worker` (a wall-clock fault by
# design). One clock: outside test modules no executor or service source
# reads the host clock (`Instant::now()`, `.elapsed()`) or sleeps
# (`thread::sleep`) except clock.rs's `WallClock` and `run_worker`, whose
# sampled morsel and steal-idle nanoseconds are host time by definition;
# every other read asks the machine's clock, so a test can substitute one.
# A run quiesces by waiting for its channel to close, not by polling.
# No executor source reads the host's CPU count: every fan-out is the
# modelled machine's. The pool threads that sleep those waits drop Linux's
# 50 µs timer slack in clock.rs's `tighten_timer_slack`, and that is the
# only place in any crate's sources where `unsafe`, `extern "C"` or `prctl`
# may appear. A wait with a timeout is a wait for a deadline, so outside test
# modules no crate's sources time a wait (`wait_timeout`, `recv_timeout`)
# except the CPU gate's park in io.rs's `acquire`, bounded by the earliest
# timed hold's end, and the master's receive in patrol.rs's `next_msg`,
# bounded by its patrol tick or a fragment's modelled end.
# Function-granular, like the leg above; a `fn` line ending in `;`
# (a foreign declaration) does not start a function.
echo "==> one pacing rule (raw sleeps, host clock reads, timed waits, host CPU reads and unsafe code)"
awk '
    function hit(what, allowed, once,   key) {
        key = FILENAME ":" name
        if (index(" " allowed " ", " " key " ") == 0 || (once && ++seen[what, key] > 1)) {
            print FILENAME ":" FNR ": " what " outside the one pacing rule: " $0
            bad = 1
        }
    }
    FNR == 1 {
        executor = FILENAME ~ /^crates\/executor\/src\//
        clocked = executor || FILENAME ~ /^crates\/service\/src\//
        name = ""; in_tests = 0
    }
    in_tests { next }
    /^#\[cfg\(test\)\]/ { in_tests = 1; next }
    /^ *\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn / && !/;$/ {
        name = $0
        sub(/^ *(pub(\([a-z]+\))? )?fn /, "", name)
        sub(/[(<].*/, "", name)
    }
    executor && /(^|[^A-Za-z0-9_])sleep\(/ {
        hit("sleep", "crates/executor/src/clock.rs:sleep_until crates/executor/src/worker.rs:run_worker", 1)
    }
    clocked && /Instant::now\(\)|\.elapsed\(\)|thread::sleep/ {
        hit("host clock", "crates/executor/src/clock.rs:now crates/executor/src/clock.rs:sleep_until crates/executor/src/worker.rs:run_worker", 0)
    }
    /(^|[^A-Za-z0-9_])(wait_timeout|recv_timeout)\(/ {
        hit("timed wait", "crates/executor/src/io.rs:acquire crates/executor/src/patrol.rs:next_msg", 0)
    }
    executor && /available_parallelism/ { hit("available_parallelism", "", 1) }
    /(^|[^A-Za-z0-9_])(unsafe|prctl)([^A-Za-z0-9_]|$)|extern "C"/ {
        hit("unsafe code", "crates/executor/src/clock.rs:tighten_timer_slack", 0)
    }
    END { exit bad }
' $(find crates -path '*/src/*' -name '*.rs' | sort)

# One JSON writer: every trace record and `metrics.json` is
# a `JsonValue` rendered by `xprs_obs::json`, so outside test modules no
# crate source spells JSON syntax as a `{{\"` format string, and only that
# module calls its token encoders `fnum(` / `jstr(`.
echo "==> one JSON writer (JSON syntax only in crates/obs/src/json.rs)"
awk '
    FNR == 1 { in_tests = 0 }
    in_tests { next }
    /^#\[cfg\(test\)\]/ { in_tests = 1; next }
    /^ *\/\// { next }
    /\{\{\\"/ || (FILENAME != "crates/obs/src/json.rs" && /(^|[^A-Za-z0-9_])(fnum|jstr)\(/) {
        print FILENAME ":" FNR ": JSON written outside xprs_obs::json: " $0
        bad = 1
    }
    END { exit bad }
' $(find crates -path '*/src/*' -name '*.rs' | sort)

echo "==> cancel (cancellation suite, fixed seeds, debug + release)"
PROPTEST_SEED=7 cargo test -q -p xprs-executor --offline --test cancel_proptest
PROPTEST_SEED=7 cargo test -q -p xprs-executor --release --offline --test cancel_proptest

echo "==> predict (prediction suite, fixed seed, release)"
# Convergence of 4x-wrong declarations, trace replay with predict records,
# and the purity property (prediction is a bit-exact function of the
# observation stream) under a pinned seed.
PROPTEST_SEED=7 cargo test -q -p xprs-executor --release --offline --test predict_exec

echo "==> chaos (fault-injection suite, fixed seeds, debug + release)"
# The workspace legs above already run the chaos tests under proptest's
# default seeding; this leg pins the seed so a property failure found here
# is reproducible verbatim, and runs the fault suite in both profiles.
PROPTEST_SEED=7 cargo test -q -p xprs-executor --offline \
    --test chaos_exec --test chaos_proptest
PROPTEST_SEED=7 cargo test -q -p xprs-executor --release --offline \
    --test chaos_exec --test chaos_proptest

# The declared benchmark is a package of its own outside the workspace, so
# nothing above compiles it: build it offline against the crates as they are
# now and run its two driven workloads briefly. A compile error (an API
# change that breaks benchmark/src/sut.rs), a wrong answer or a failed
# operation fails the leg: the benchmark exits 1 on either.
echo "==> benchmark (benchmark/run.sh: disk_mix, service_open)"
for workload in disk_mix service_open; do
    bash benchmark/run.sh --workload "$workload" --seconds 12 --trace 0 | tail -n 1
done

echo "==> CI OK"

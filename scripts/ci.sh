#!/usr/bin/env bash
# Full local CI: build, tests (the release leg includes the performance
# gates), lints, rustdoc, the generated results and the declared benchmark.
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

# --no-fail-fast: one failing test binary must not hide the results of the
# binaries after it.
echo "==> cargo test (workspace)"
cargo test -q --workspace --offline --no-fail-fast

echo "==> cargo test --release (workspace)"
# Release mode strips debug_asserts; this leg catches control-path failures
# that only debug assertions used to mask (e.g. inverted clamps), and it is
# the leg that runs the release-only performance gates.
cargo test -q --release --workspace --offline --no-fail-fast

echo "==> cargo test --doc"
cargo test -q --doc --workspace --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Every intra-doc link resolves: a renamed or deleted item must not leave a
# dead link in a doc comment.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

# The documents describe the tree: every name DESIGN.md and README.md cite
# in backticks resolves in the sources, every DESIGN.md section reference
# names a heading it has, every docs/results file is linked from it, it
# stays at most 45 KB, and no retired name is back in code, tests, the verify
# skill, DESIGN.md or README.md (the pattern and its reasons live in the
# script).
echo "==> docs (scripts/docs.sh)"
bash scripts/docs.sh

# Generated results: each block between `<!-- generated: <name> -->` and
# `<!-- /generated -->` in docs/results/ is what the deterministic
# `figures <name>` prints now, and a marker naming no figure fails the leg.
# A change that moves a figure commits the new block, and the block's diff
# is its before → after record; prose outside the markers is kept.
echo "==> generated results (scripts/figures.sh)"
bash scripts/figures.sh
git diff --exit-code docs/results

# One test kit: support code more than one test binary uses (the answer
# oracle, pinned plans, the scripted policies) lives in the dev-only
# `crates/testkit`. A `#[path]` include compiles a private copy into each
# binary, and copies drift apart, so none may come back.
echo "==> no #[path] includes in tests or examples"
if grep -rn '#\[path' crates/*/tests tests examples; then
    echo "share test support through xprs-testkit, not a #[path] include" >&2
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
# (DESIGN.md §7.5); a raw sleep anywhere else would bypass that clock.
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

# Timing-sensitive tests, twenty runs each in release beside one busy loop per
# CPU (the list and N live in the script).
echo "==> stress (scripts/stress.sh)"
bash scripts/stress.sh

# The declared benchmark is a package of its own outside the workspace, so
# nothing above compiles it: build it offline against the crates as they are
# now and run its two driven workloads briefly, then the two cached ones,
# which put every row through the scan, join, merge and materialize path and
# check it against oracles that share no code with that path (scan row
# counts by direct heap iteration, a join digest against a bench-local hash
# join). A compile error (an API change that breaks benchmark/src/sut.rs), a
# wrong answer or a failed operation fails the leg: the benchmark exits 1 on
# either.
echo "==> benchmark (benchmark/run.sh: disk_mix, service_open, cached_scan, cached_join)"
for workload in disk_mix service_open cached_scan cached_join; do
    bash benchmark/run.sh --workload "$workload" --seconds 12 --trace 0 | tail -n 1
done

echo "==> CI OK"

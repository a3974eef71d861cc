#!/usr/bin/env bash
# Full local CI: build, tests, lints, and the executor benchmarks.
#
# The workspace builds offline (rand/proptest are std-only shims under
# shims/), so this needs no network. Run from the repo root:
#
#   ./scripts/ci.sh
#
# The bench steps write BENCH_executor.json, BENCH_join.json, BENCH_obs.json,
# BENCH_service.json and metrics.json at the repo root; the recorded numbers
# live in docs/results/executor_datapath.md, docs/results/join_datapath.md,
# docs/results/observability.md and docs/results/service.md. The last leg
# builds the declared benchmark into benchmark/target and writes
# benchmark/out/ (both git-ignored).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test (workspace)"
cargo test -q --workspace --offline

echo "==> cargo test --release (workspace)"
# Release mode strips debug_asserts; this leg catches control-path failures
# that only debug assertions used to mask (e.g. inverted clamps).
cargo test -q --release --workspace --offline

echo "==> cargo test --doc"
cargo test -q --doc --workspace --offline

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# One data path, one fragment lifecycle: the retired paths' names (the
# seed's global-lock path, the static-share partition mode, the no-spill
# switch, the per-driver rounding copies, the drivers' private status enums
# and id scans that `xprs_scheduler::FragTable` replaced, the switch that
# left memory unscheduled by default) must not creep back into code,
# examples, tests or the verify skill. `scripts/` is left out so the
# pattern does not match itself; docs keep the names as history.
echo "==> retired-name grep"
if grep -rnE 'GlobalLock|DataPath|KeyIndex|push_contended|effective_(shards|morsel_mode|out_batch|cpu_batch)|StaticShares|MorselMode|with_morsel_mode|PartitionState|without_spill|MemoryGrantExceeded|to_workers|to_processors|FragStatus|TaskState|take_running|fn task_index|memory_grants|with_memory_grants' \
    crates examples src tests .claude; then
    echo "retired data-path names found (matches above)" >&2
    exit 1
fi

# The master's run state lives in one struct; a helper that needs eight
# arguments is threading that state by hand again.
echo "==> no too_many_arguments allowance in the executor"
if grep -rnE 'allow\(clippy::too_many_arguments\)' crates/executor/src; then
    echo "thread the run state through MasterRun, not through arguments" >&2
    exit 1
fi

# A disk is a reservation timeline, not a mutex held through a sleep: no
# function of io.rs that touches a disk lane may also sleep or pace. The
# check is function-granular (a grep cannot see guard scopes); the unit test
# `no_latch_is_held_while_reads_are_in_flight` is the behavioural guard.
echo "==> no sleep under a disk-lane latch (io.rs)"
awk '
    function check() { if (lanes && sleeps) { print "sleeps while touching a disk lane:" name; bad = 1 } }
    /^#\[cfg\(test\)\]/ { exit }
    /^ *(pub(\([a-z]+\))? )?fn / { check(); name = $0; lanes = 0; sleeps = 0 }
    /self\.lanes/ { lanes = 1 }
    /sleep|pace_until|await_service/ && !/^ *\/\// { sleeps = 1 }
    END { check(); exit bad }
' crates/executor/src/io.rs

echo "==> bench_executor (writes BENCH_executor.json)"
./target/release/bench_executor BENCH_executor.json

# Scaling leg: the disk-resident section is the paper's central claim —
# 8 workers must strictly beat 1 on a workload the buffer pool cannot
# absorb, with the utilization audit confirming the disk band is
# saturated rather than under-staffed. Malformed JSON fails the leg too.
echo "==> scaling gate (disk_resident section of BENCH_executor.json)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_executor.json") as f:
        r = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"BENCH_executor.json unreadable or malformed: {e}")
try:
    dr = r["disk_resident"]
    speedup = dr["speedup_8w_over_1w"]
    configs = dr["configs"]
except KeyError as e:
    sys.exit(f"BENCH_executor.json missing disk_resident field: {e}")
modes = sorted((c["mode"], c["workers"]) for c in configs)
if modes != [("stealing", w) for w in (1, 2, 4, 8)]:
    sys.exit(f"disk_resident sweep is not exactly the four stealing rows: {modes}")
if any(c["pages_per_sec"] <= 0 for c in configs):
    sys.exit("disk_resident config with non-positive throughput")
if speedup <= 1.0:
    sys.exit(f"scaling regression: 8-worker/1-worker speedup {speedup} <= 1.0")
if not dr["saturated_at_8_workers"]:
    sys.exit("8-worker disk-resident run did not saturate the disk band")
# A lone IO-bound scan under INTER-WITH-ADJ must keep the array busy on the
# backends staffed for its x = B/C processors, each overlapping its next
# read with its current page (staffing backends = processors left it at
# 0.37 on the paper task sets, blocking reads at 0.70 on this leg;
# read-ahead measures 0.91).
solo = dr["solo_io_disk_util"]
if dr["solo_io_requests"] == 0 or solo < 0.7:
    sys.exit(f"solo IO-bound scan under-staffed: disk utilization {solo} < 0.7 "
             f"over {dr['solo_io_requests']} requests")
print(f"scaling OK: disk-resident 8w/1w = {speedup}x, disk band saturated, "
      f"solo IO-bound disk util {solo}")
EOF

# Memory leg: concurrent hash joins whose aggregate build demand is 4x the
# pool must complete under memory-grant admission with (a) byte-identical
# results to the reference run over a pool they all fit in, (b) a balanced
# grant ledger on both sides, (c) no page pinned at exit, and (d) the builds
# actually queueing and spilling — i.e. the admission machinery engaged
# rather than the demand quietly fitting — while the reference neither waits
# nor spills.
echo "==> memory gate (memory_admission section of BENCH_executor.json)"
python3 - <<'EOF'
import json, sys
with open("BENCH_executor.json") as f:
    r = json.load(f)
try:
    m = r["memory_admission"]
    configs = {c["mode"]: c for c in m["configs"]}
    grants, ref = configs["grants"], configs["reference"]
except KeyError as e:
    sys.exit(f"BENCH_executor.json missing memory_admission field: {e}")
if m["total_build_pages"] < m["demand_factor"] * m["bufpool_pages"]:
    sys.exit(f"build demand {m['total_build_pages']} pages below the "
             f"{m['demand_factor']}x regime")
if not m["parity"] or grants["rows_digest"] != ref["rows_digest"]:
    sys.exit("memory admission changed a join answer (digest mismatch)")
for side in (grants, ref):
    if side["granted_pages"] != side["released_pages"]:
        sys.exit(f"grant ledger out of balance: {side}")
    if side["pinned_at_exit"] != 0:
        sys.exit(f"{side['pinned_at_exit']} pages pinned at exit: {side}")
if grants["granted_pages"] == 0:
    sys.exit("grants run never granted a page")
if grants["grant_waits"] == 0:
    sys.exit("oversized builds never waited for admission")
if grants["spill_chunks"] == 0 or grants["spill_rows"] == 0:
    sys.exit("oversized builds never spilled")
if ref["grant_waits"] != 0 or ref["spill_chunks"] != 0:
    sys.exit(f"reference run waited or spilled in a pool it should fit: {ref}")
print(f"memory OK: parity, ledger {grants['granted_pages']} granted=released, "
      f"waits={grants['grant_waits']}, spill_rows={grants['spill_rows']}, "
      f"overhead={m['overhead_vs_reference']}x")
EOF

# Predictive leg: the declared-vs-predicted A/B. With declarations seeded
# wrong by 2-8x, the warm predicted mode must beat declared mode on wall
# time, footprint overruns must decrease as the model warms (the measured
# pages feed back into admission demand), ledgers must balance with zero
# pins in both modes, the predictor must actually substitute profiles, and
# the two modes' final-rep schedules must provably differ — a bench where
# prediction changed nothing passes no gate. Malformed JSON fails the leg.
echo "==> predict gate (predictive section of BENCH_executor.json)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_executor.json") as f:
        r = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"BENCH_executor.json unreadable or malformed: {e}")
try:
    p = r["predictive"]
    reps = p["reps"]
    declared = [c for c in reps if c["mode"] == "declared"]
    predicted = [c for c in reps if c["mode"] == "predicted"]
except KeyError as e:
    sys.exit(f"BENCH_executor.json missing predictive field: {e}")
if len(declared) != p["reps_per_mode"] or len(predicted) != p["reps_per_mode"]:
    sys.exit(f"predictive sweep incomplete: {len(declared)} declared, "
             f"{len(predicted)} predicted of {p['reps_per_mode']}")
for c in reps:
    if c["emitted"] <= 0:
        sys.exit(f"vacuous predictive rep: {c}")
    if c["granted_pages"] != c["released_pages"]:
        sys.exit(f"grant ledger out of balance: {c}")
    if c["pinned_at_exit"] != 0:
        sys.exit(f"{c['pinned_at_exit']} pages pinned at exit: {c}")
if {c["emitted"] for c in reps} != {declared[0]["emitted"]}:
    sys.exit("prediction changed a join answer (emitted rows differ)")
if not p["predicted_beats_declared"]:
    sys.exit(f"predicted mode lost to declared: "
             f"{p['predicted_wall_seconds']}s vs {p['declared_wall_seconds']}s")
if predicted[-1]["predictions"] == 0:
    sys.exit("warm predictor never substituted a profile")
first, last = p["overruns_first_rep"], p["overruns_last_rep"]
if not (first > last or last == 0):
    sys.exit(f"footprint overruns did not decrease as the model warmed: "
             f"{first} -> {last}")
if not p["decisions_differ"]:
    sys.exit("declared and predicted modes made identical decisions: "
             "the prediction layer changed nothing")
print(f"predict OK: {p['speedup_predicted_over_declared']}x speedup over "
      f"declared, overruns {first}->{last}, "
      f"{predicted[-1]['predictions']} substitutions, decisions differ")
EOF

echo "==> bench_join (writes BENCH_join.json)"
./target/release/bench_join BENCH_join.json
# The JSON must parse, every worker count must materialize tuples, and the
# disk-resident join must scale.
python3 - <<'EOF'
import json, sys
with open("BENCH_join.json") as f:
    r = json.load(f)
configs = r["configs"]
assert len(configs) == 4, f"expected 4 configs, got {len(configs)}"
assert all(c["materialized_tuples_per_sec"] > 0 for c in configs)
dr = r["disk_resident"]["speedup_8w_over_1w"]
if dr <= 1.0:
    sys.exit(f"disk-resident join scaling regression: 8w/1w {dr} <= 1.0")
print(f"bench_join OK: {len(configs)} worker counts, disk-resident 8w/1w = {dr}x")
EOF

# Skew leg: the Zipf theta-sweep of the key-domain merge join must degrade
# gracefully (theta=1 throughput at least half of theta=0 at 8 workers)
# AND the heavy-hitter machinery must provably engage at theta=1 — hot-key
# counters non-zero, ways actually carved — so the gate cannot pass
# vacuously on a config where detection never ran. Ledgers must balance
# and no page may stay pinned. Malformed JSON fails the leg.
echo "==> skew gate (skew section of BENCH_join.json)"
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_join.json") as f:
        r = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"BENCH_join.json unreadable or malformed: {e}")
try:
    sk = r["skew"]
    ratio = sk["tput_ratio_theta1_vs_theta0"]
    configs = {c["theta"]: c for c in sk["configs"]}
except KeyError as e:
    sys.exit(f"BENCH_join.json missing skew field: {e}")
for want in (0.0, 0.5, 1.0):
    if want not in configs:
        sys.exit(f"skew sweep missing theta={want}: {sorted(configs)}")
if sk["workers"] != 8 or sk["merge_ways"] < 2:
    sys.exit(f"skew sweep must run 8 workers with a real merge fan-out: {sk}")
for theta, c in configs.items():
    if c["emitted_rows"] <= 0 or c["rows_per_sec"] <= 0:
        sys.exit(f"vacuous skew config at theta={theta}: {c}")
    if c["pinned_at_exit"] != 0:
        sys.exit(f"theta={theta}: {c['pinned_at_exit']} pages pinned at exit")
    if c["granted_pages"] != c["released_pages"]:
        sys.exit(f"theta={theta}: grant ledger out of balance: {c}")
hot = configs[1.0]
if hot["hot_keys"] == 0:
    sys.exit("theta=1.0 detected no heavy hitter: the fan-out never engaged")
if hot["way_rows_max"] == 0 or hot["way_rows_mean"] == 0:
    sys.exit("theta=1.0 merge recorded no way sizes: parallel merge never ran")
if hot["way_rows_max"] >= hot["emitted_rows"]:
    sys.exit(f"theta=1.0: one way swallowed the whole output: {hot}")
if ratio < 0.5:
    sys.exit(f"skew collapse: theta=1 throughput {ratio} < 0.5x theta=0")
print(f"skew OK: theta1/theta0 throughput ratio = {ratio}x, "
      f"{hot['hot_keys']} hot keys at theta=1, "
      f"way balance max/mean = {hot['way_rows_max']}/{hot['way_rows_mean']}")
EOF

echo "==> bench_obs (writes BENCH_obs.json + metrics.json)"
./target/release/bench_obs BENCH_obs.json metrics.json
# The metrics dump must be well-formed and internally consistent (pool
# ledger balances against the read count, every disk reports busy time per
# service class, the paired-window bandwidth falls in the seek-corrected
# band), and enabling metrics must not cost more than ~2% throughput.
python3 - <<'EOF'
import json, sys
with open("metrics.json") as f:
    m = json.load(f)
p = m["pool"]
if p["hits"] + p["misses"] + p["bypasses"] != m["reads"]:
    sys.exit(f"pool ledger broken: {p} vs reads={m['reads']}")
shard_sum = sum(s["hits"] + s["misses"] + s["bypasses"] for s in p["shards"])
if shard_sum != m["reads"]:
    sys.exit(f"per-shard ledger broken: {shard_sum} vs reads={m['reads']}")
if len(m["disks"]) == 0:
    sys.exit("no disks in metrics dump")
for d in m["disks"]:
    for cls in ("sequential", "almost_sequential", "random"):
        if cls not in d:
            sys.exit(f"disk missing service class {cls}: {d}")
    if d.get("queue_wait", -1) < 0:
        sys.exit(f"disk missing its queue wait: {d}")
a = m["utilization_audit"]
lo, hi = a["band"]
bw = a["paired_bw"]
if not (lo * 0.9 <= bw <= hi * 1.1):
    sys.exit(f"paired bandwidth {bw} outside band [{lo}, {hi}] (+/-10%)")
for w in a["windows"]:
    if "planned_bw" not in w or any(len(t) != 3 or t[2] < t[1] for t in w["tasks"]):
        sys.exit(f"audit window lacks planned_bw or [task, x, backends >= x]: {w}")
    if "queue_wait" not in w or "queue_depth" not in w:
        sys.exit(f"audit window lacks the disk queue wait / depth: {w}")
with open("BENCH_obs.json") as f:
    r = json.load(f)
ratio = r["overhead_ratio"]
if ratio > 1.02:
    sys.exit(f"metrics-enabled throughput regression: ratio {ratio} > 1.02")
solo = r["solo_io"]
if solo["requests"] == 0 or solo["backends"] < solo["x"] or solo["disk_util"] < 0.7:
    sys.exit(f"solo IO-bound scan under-staffed (disk_util < 0.7): {solo}")
print(f"bench_obs OK: paired_bw={bw:.1f} in [{lo},{hi}], overhead={ratio}, "
      f"solo x={solo['x']} backends={solo['backends']} disk_util={solo['disk_util']}")
EOF

echo "==> bench_service (writes BENCH_service.json)"
# Open-loop soak of the continuous query service: a fixed-seed multi-tenant
# arrival schedule replayed against three scenarios (fault-free, one
# injected worker death, one sustained disk slowdown), each in an
# uncontended and an overloaded phase.
./target/release/bench_service BENCH_service.json
python3 - <<'EOF'
import json, sys
try:
    with open("BENCH_service.json") as f:
        r = json.load(f)
except (OSError, ValueError) as e:
    sys.exit(f"BENCH_service.json unreadable or malformed: {e}")
scenarios = {s["scenario"]: s for s in r["scenarios"]}
for want in ("no_fault", "worker_death", "disk_slowdown"):
    if want not in scenarios:
        sys.exit(f"missing scenario {want}: {sorted(scenarios)}")
for name, s in scenarios.items():
    phases = {p["phase"]: p for p in s["phases"]}
    for pname in ("uncontended", "overload"):
        if pname not in phases:
            sys.exit(f"{name}: missing phase {pname}")
        p = phases[pname]
        # No admitted query may leak: both ledgers zero once idle, and
        # every admitted query settled (typed failure included).
        if p["reserved_pages_at_idle"] != 0 or p["pinned_pages_at_idle"] != 0:
            sys.exit(f"{name}/{pname}: leaked grant or pin: {p}")
        for c in p["classes"]:
            settled = c["completed"] + c["deadline_cancelled"] + c["failed"]
            if settled != c["submitted"]:
                sys.exit(f"{name}/{pname}/{c['class']}: "
                         f"{c['submitted']} admitted, {settled} settled")
            if c["failed"] != 0:
                sys.exit(f"{name}/{pname}/{c['class']}: {c['failed']} "
                         "queries failed (faults must degrade, not fail)")
    un, over = phases["uncontended"], phases["overload"]
    # Uncontended load must never shed; overload must shed typed errors
    # with a sane retry hint, never buffer without bound.
    if any(c["shed"] != 0 for c in un["classes"]):
        sys.exit(f"{name}: shed in the uncontended phase: {un['classes']}")
    if sum(c["shed"] for c in over["classes"]) == 0:
        sys.exit(f"{name}: overload phase never shed")
    if over["mean_retry_after_us"] <= 0:
        sys.exit(f"{name}: shed responses carried no retry_after hint")
    # Interactive latency must stay distribution-shaped, not collapse into
    # a hung tail: p99 within a fixed multiple of p50 in both phases. The
    # multiple is generous (an interactive lookup can queue behind a few
    # throttled batch joins); the gate exists to catch a p99 in whole
    # seconds against a p50 in milliseconds — a stuck queue, not noise.
    for p in (un, over):
        inter = next(c for c in p["classes"] if c["class"] == "interactive")
        if inter["completed"] == 0:
            sys.exit(f"{name}/{p['phase']}: no interactive query completed")
        if inter["p99_us"] > 96 * max(inter["p50_us"], 1):
            sys.exit(f"{name}/{p['phase']}: interactive p99 {inter['p99_us']}us "
                     f"over 96x p50 {inter['p50_us']}us")
# The fault scenarios must actually engage their faults.
if scenarios["worker_death"]["deaths_fired"] < 1:
    sys.exit("worker_death scenario: the death never fired")
if scenarios["disk_slowdown"]["slow_requests"] == 0:
    sys.exit("disk_slowdown scenario: the slowdown never engaged")
nf = {p["phase"]: p for p in scenarios["no_fault"]["phases"]}
total_shed = sum(c["shed"] for c in nf["overload"]["classes"])
print(f"service OK: 3 scenarios x 2 phases, zero uncontended shed, "
      f"{total_shed} typed sheds under overload, ledgers balanced, "
      f"faults engaged")
EOF

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
# operation fails the leg.
echo "==> benchmark (benchmark/run.sh: disk_mix, service_open)"
for workload in disk_mix service_open; do
    bash benchmark/run.sh --workload "$workload" --seconds 12 --trace 0 | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
attempted = r["attempted"]
if r["correct"] is not True or r["failed"] > 0 or attempted == 0:
    sys.exit(f"benchmark {sys.argv[1]}: {r}")
print(f"benchmark {sys.argv[1]} OK: {attempted} operations, 0 failed")
' "$workload"
done

echo "==> CI OK"

#!/usr/bin/env bash
# Stress leg: run the timing-sensitive tests N times each in release, beside
# one shell busy loop per CPU, and report failures per test.
#
# Races between the master, its pool threads and the service's runners show
# up when the host is slow to wake a thread, so a quiet host hides them: a
# service deadline race once failed 8 runs in 10 beside busy loops and
# passed alone. Run from anywhere:
#
#   ./scripts/stress.sh
#
# Exit 1 if any run of a GATED test fails; REPORTED tests are run and
# counted but never fail the leg. A test the checkout does not have counts as
# failing every run, so a renamed test cannot drop out of the list unseen.
# The list and N live here; CHANGES.md records every change to them. Plain
# shell loops and `cargo test` only, so the script also runs on an old
# checkout (copy it in and trim the lists to the tests that exist there).
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs per test.
N=20

# "package test-binary test-name": each has failed beside busy loops before
# its fix, or guards a wake-up, cancel or death race.
GATED=(
    "xprs-service service_robustness deadlines_cancel_queued_and_running_without_leaking"
    "xprs-service service_robustness client_cancel_rides_the_same_path_as_deadlines"
    "xprs-executor chaos_exec a_stalled_worker_is_never_replaced"
    "xprs-executor chaos_exec chaos_run_matches_fault_free_run_and_records_recalibration"
    "xprs-executor patrol_triggers a_fault_plan_set_through_the_field_still_replaces_a_dead_worker"
    "xprs-executor patrol_triggers a_build_parked_behind_another_run_is_staffed_when_that_run_frees_the_pool"
    "xprs-executor patrol_triggers a_manual_cancel_stops_a_single_fragment_run_mid_scan"
    "xprs-executor slices_exec a_cancel_mid_fragment_returns_no_rows_and_leaves_the_ledgers_at_zero"
    "xprs-executor slices_exec no_fragment_finishes_before_its_modelled_end"
    "xprs-executor cancel_proptest a_cancel_while_a_fragment_waits_for_its_modelled_end_returns_no_rows"
)

# Known wall-clock flakes, reported but not gated. Each bounds a figure
# measured on the host's wall clock at a modelled speedup, so a backend that
# wakes late reads as a slow disk, a wrong prediction or a seek: a busy host
# fails them without any defect. They stay in tier-1 and ci.sh as they are;
# the fix is virtual time for threaded runs (ROADMAP item 22), after which
# they can be gated here.
REPORTED=(
    "xprs-executor stream_front_exec a_widely_staffed_scan_pays_only_the_cold_seeks"
    "xprs-executor predict_exec wrong_by_4x_declarations_converge_onto_realized_rates"
    "xprs-executor perf_gates a_lone_io_bound_scan_keeps_the_disks_busy"
)

# Build every binary first, on a quiet host.
echo "==> building the release test binaries"
for entry in "${GATED[@]}" "${REPORTED[@]}"; do
    read -r package binary _ <<<"$entry"
    cargo test -q --release --offline -p "$package" --test "$binary" --no-run
done

BUSY=()
reap() {
    if ((${#BUSY[@]})); then
        kill "${BUSY[@]}" 2>/dev/null || true
        wait "${BUSY[@]}" 2>/dev/null || true
    fi
}
trap reap EXIT
trap 'exit 130' INT TERM
for _ in $(seq "$(nproc)"); do
    (while :; do :; done) &
    BUSY+=($!)
done
echo "==> ${#BUSY[@]} busy loops, $N runs per test"

# Run `entry` N times; print its failure count and return it.
stress() {
    local package binary name out failed=0 i
    read -r package binary name <<<"$1"
    for ((i = 1; i <= N; i++)); do
        out=$(cargo test -q --release --offline -p "$package" --test "$binary" -- \
            --exact "$name" 2>&1) || true
        [[ $out == *"test result: ok. 1 passed"* ]] || failed=$((failed + 1))
    done
    printf '%-10s %2d/%d failed  %s::%s\n' "$2" "$failed" "$N" "$binary" "$name"
    return "$((failed > 0))"
}

start=$SECONDS
gated_failed=0
for entry in "${GATED[@]}"; do
    stress "$entry" gated || gated_failed=$((gated_failed + 1))
done
for entry in "${REPORTED[@]}"; do
    stress "$entry" reported || true
done
echo "==> stress: $((SECONDS - start)) s, $gated_failed gated test(s) failed"
exit "$((gated_failed > 0))"

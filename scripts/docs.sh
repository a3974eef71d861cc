#!/usr/bin/env bash
# Docs leg: DESIGN.md and README.md describe the tree as it is. Bash, grep
# and awk only; run from any directory:
#
#   bash scripts/docs.sh
#
# Five checks, each printing every offending line before the leg exits 1:
#
# 1. Names resolve. Outside fenced code blocks, every backticked span of
#    DESIGN.md and README.md that names code must name code that exists
#    under crates/, tests/, examples/, src/ or benchmark/src:
#    - a span with `::` — its last segment's identifier is a whole word in
#      some .rs source (`Machine::begin_read` needs the word `begin_read`);
#    - a span with `name(` — `name(` appears in some .rs source;
#    - a span ending in `.rs` — the file exists (a path from the repo root),
#      or, for a bare name, some source file has that basename.
# 2. Section references resolve. Every reference of the form
#    "DESIGN.md §<number>" (backticks around DESIGN.md or not) in the
#    sources, scripts, docs/, the verify skill, DESIGN.md, README.md and
#    ROADMAP.md names a `## N.` or `### N.M` heading DESIGN.md has.
#    CHANGES.md keeps history and is not scanned.
# 3. Results are linked. Every file in docs/results/ is linked from
#    DESIGN.md, and every relative link in DESIGN.md and README.md resolves.
# 4. DESIGN.md stays at most 45 KB (46 080 bytes): it holds the present
#    system, and CHANGES.md holds how it got there.
# 5. Retired names stay retired (below).
set -uo pipefail
cd "$(dirname "$0")/.."
shopt -s globstar nullglob

bad=0
complain() { echo "$*" >&2; bad=1; }

sources=(crates tests examples src benchmark/src)
declare -A basenames=()
for d in "${sources[@]}"; do
    for f in "$d"/**/*.rs; do basenames[${f##*/}]=1; done
done

declare -A word_ok=() call_ok=()
has_word() {
    [[ -v word_ok[$1] ]] || { grep -rqw --include='*.rs' -e "$1" "${sources[@]}" && word_ok[$1]=1 || word_ok[$1]=0; }
    [[ ${word_ok[$1]} == 1 ]]
}
has_call() {
    [[ -v call_ok[$1] ]] || { grep -rqF --include='*.rs' -e "$1(" "${sources[@]}" && call_ok[$1]=1 || call_ok[$1]=0; }
    [[ ${call_ok[$1]} == 1 ]]
}

# Backticked spans outside fences, one per line as `file:line:span`. A span
# may wrap onto the next line of its paragraph.
spans() {
    awk '
        /^[[:space:]]*```/ { fence = !fence; buf = ""; next }
        fence { next }
        /^[[:space:]]*$/ { buf = ""; next }
        {
            if (buf == "") { text = $0; start = FNR } else { text = buf " " $0 }
            if (gsub(/`/, "`", text) % 2) { buf = text; next }
            buf = ""
            k = split(text, part, "`")
            for (i = 2; i <= k; i += 2) print FILENAME ":" start ":" part[i]
        }
    ' "$@"
}

echo "==> docs: backticked names resolve (DESIGN.md, README.md)"
while IFS= read -r entry; do
    where=${entry%%:*}; rest=${entry#*:}; where+=":${rest%%:*}"; span=${rest#*:}
    if [[ $span == *::* ]]; then
        last=${span##*::}
        if [[ $last =~ ^[A-Za-z_][A-Za-z0-9_]* ]]; then
            has_word "${BASH_REMATCH[0]}" || complain "$where: \`$span\`: no ${BASH_REMATCH[0]} in the sources"
        else
            complain "$where: \`$span\`: no identifier after the last ::"
        fi
    fi
    text=$span
    while [[ $text =~ ([A-Za-z_][A-Za-z0-9_]*)\( ]]; do
        has_call "${BASH_REMATCH[1]}" || complain "$where: \`$span\`: no ${BASH_REMATCH[1]}( in the sources"
        text=${text#*"${BASH_REMATCH[0]}"}
    done
    if [[ $span == *.rs ]]; then
        if [[ $span == */* ]]; then
            [[ -f $span ]] || complain "$where: \`$span\`: no such file"
        else
            [[ -v basenames[$span] ]] || complain "$where: \`$span\`: no source file of that name"
        fi
    fi
done < <(spans DESIGN.md README.md)

echo "==> docs: DESIGN.md section references name a heading"
declare -A heading=()
while IFS= read -r n; do heading[$n]=1; done < <(
    awk '/^## [0-9]+\. / { sub(/\.$/, "", $2); print $2 } /^### [0-9]+\.[0-9]+ / { print $2 }' DESIGN.md)
while IFS= read -r hit; do
    n=${hit##*§}
    [[ -v heading[$n] ]] || complain "$hit: DESIGN.md has no heading $n"
done < <(grep -rnIoE 'DESIGN\.md`? ?§[0-9]+(\.[0-9]+)?' \
    --exclude-dir=target --exclude-dir=out \
    "${sources[@]}" scripts docs .claude DESIGN.md README.md ROADMAP.md)

echo "==> docs: every docs/results file is linked from DESIGN.md, and links resolve"
for f in docs/results/*; do
    grep -qF "](${f})" DESIGN.md || complain "DESIGN.md does not link $f"
done
while IFS= read -r hit; do
    link=${hit#*](}; link=${link%%#*}
    [[ -z $link || $link == *://* || -e $link ]] || complain "${hit%%:*}: dead link $link"
done < <(grep -HoE '\]\([^) ]+' DESIGN.md README.md)

echo "==> docs: DESIGN.md is at most 46080 bytes"
size=$(wc -c < DESIGN.md)
(( size <= 46080 )) || complain "DESIGN.md is $size bytes"

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
# checking one claim drift apart), the dynamic B+-tree on `r.a` that the CSR
# layout of materialized join inputs replaced (a relation is built once and
# only ever probed by key, so two key indexes held one job), the decision
# trace's JSONL reader, the typed-JSON layer under it and the sink wrapper
# around a plain `Vec` (the trace is write-only: replays take the records a
# run captured, so a reader only tests itself), the re-cut that sized a
# disk-mapped scan's morsels to half the disks' reorder window (one page per
# morsel replaced it, and a second grain rule would bring the armed tail
# back), and any call of
# `with_obs`, an identity kept for `benchmark/`, which this grep does not
# scan) must not creep back into code, examples, tests, the verify skill,
# DESIGN.md or README.md: those two describe the present. `scripts/` is left
# out so the pattern does not match itself; CHANGES.md and docs/results keep
# the names as history.
echo "==> docs: retired-name grep"
if grep -rnE 'GlobalLock|DataPath|KeyIndex|push_contended|effective_(shards|morsel_mode|out_batch|cpu_batch)|StaticShares|MorselMode|with_morsel_mode|PartitionState|without_spill|MemoryGrantExceeded|to_workers|to_processors|FragStatus|TaskState|take_running|fn task_index|memory_grants|with_memory_grants|bench_obs|BENCH_obs|exec_scan|exec_join|run_with_obs|NullSink|parse_prefix|metrics_out|MetricsDump|host_header_json|patrol_ms|patrol_grace|recal_min_requests|with_patrol|DiskArrayModel|\bfragment_times\b|footprint_warnings|mem_overruns|merge_fanout|prediction_fallbacks|exited_slots|\bsplit_runs\b|parallel_merge_min_rows|parallel_merge_ways|recal_band|with_recalibration\b|host_parallelism|PlanMismatch|ProgramSet|RunGuard|active_runs|run_started|run_finished|interference_factor|jobs_submitted|jobs_completed|delivered_rate|heartbeat_of|watched_heartbeats|recoveries_at_start|observed_service|report_units|units_done|integral_split|io_utilization|critical_path|\btn_estimate\b|Backends<|Backends::|ChannelClosed|deadline_instant|tick_due|sql_cmp|blocks_on_disk|finish_of|\bn_keys\b|total_seq_time|JsonlSink|TraceSink|with_metrics|PATROL_GRACE|StealPartition::reap|patrol::reap|\.reap\(|PagePartition|RangePartition|KeyRange|\bnext_page\b|\bnext_key\b|bench_executor|bench_join|bench_service|BENCH_(executor|join|service)|exec_disk|exec_memory|exec_skew|exec_predict|bench_doc|BTreeIndex|parse_jsonl|FromJson|RingSink|\bfrom_json\b|\brecut\b|\.with_obs\(' \
    crates examples src tests .claude DESIGN.md README.md; then
    complain "retired names found (matches above)"
fi

if (( bad )); then
    echo "docs leg failed: fix the lines above" >&2
    exit 1
fi
echo "==> docs OK"

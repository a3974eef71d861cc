#!/usr/bin/env bash
# The repository's benchmark: builds the benchmark's own package from source
# (offline, into $CARGO_TARGET_DIR or benchmark/target) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out F]
#   benchmark/run.sh compare A.jsonl B.jsonl
#   benchmark/run.sh spec | metrics
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/xprs-benchmark"
case "${1:-}" in
  compare | spec | metrics | -h | --help) exec "$bin" "$@" ;;
esac
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$bin" "$@" --commit "$commit" --out-dir "$here/out"

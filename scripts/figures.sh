#!/usr/bin/env bash
# Generated results: rewrite every generated block in docs/results/ from the
# figure that prints it. Run from any directory:
#
#   bash scripts/figures.sh
#
# A block is the lines between `<!-- generated: <name> -->` and
# `<!-- /generated -->`, each marker alone on its line; the script replaces
# them with the stdout of `crates/bench`'s release binary `figures <name>`,
# so regenerating leaves every line outside the markers — the prose, the
# before → after notes — as it was. A marker naming no figure fails the
# script (`figures` exits 1 and lists the names it knows). The figures are
# deterministic, so a tree whose blocks are current is left byte-identical:
# `scripts/ci.sh` runs this and then `git diff --exit-code docs/results`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -q -p xprs-bench --bin figures
out=$(mktemp)
trap 'rm -f "$out" "$out.md"' EXIT
for file in docs/results/*.md; do
    for name in $(sed -n 's/^<!-- generated: \([a-z0-9_]*\) -->$/\1/p' "$file"); do
        target/release/figures "$name" >"$out"
        awk -v open="<!-- generated: $name -->" -v out="$out" '
            $0 == open { print; while ((getline line < out) > 0) print line; close(out); skip = 1; next }
            skip && $0 == "<!-- /generated -->" { skip = 0 }
            !skip { print }
            END { if (skip) { print FILENAME ": unclosed " open > "/dev/stderr"; exit 1 } }
        ' "$file" >"$out.md"
        cat "$out.md" >"$file"
    done
done

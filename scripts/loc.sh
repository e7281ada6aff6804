#!/usr/bin/env bash
# Non-test line count: the number the ROADMAP deletion gate and CHANGES
# entries quote. Counts every `.rs` under `crates/*/src` and `src/` (or
# the files given as arguments), each cut at its first `#[cfg(test)]`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    mapfile -t files < <(find crates/*/src src -name '*.rs' | sort)
    set -- "${files[@]}"
fi
awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n }' "$@"

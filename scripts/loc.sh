#!/usr/bin/env bash
# Non-test line count: the numbers the ROADMAP deletion gate and CHANGES
# entries quote. Counts every `.rs` under `crates/*/src` and `src/`, each
# cut at its first `#[cfg(test)]`, and prints one line per crate (the
# root facade as `root`) with the total on the last line. Given files as
# arguments, it prints only their total.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }' "$@"
}

if [ $# -gt 0 ]; then
    count "$@"
    exit
fi
total=0
for dir in crates/*/src src; do
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    n=$(count "${files[@]}")
    name=${dir%/src}
    name=${name#crates/}
    [ "$name" = src ] && name=root
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"

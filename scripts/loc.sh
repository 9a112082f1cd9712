#!/usr/bin/env bash
# Non-test Rust lines per crate. A file's non-test lines are the lines
# before its first `#[cfg(test)]`; a crate's count sums the files under
# its `src/`. Tests, benches and examples outside `src/` are not
# counted. Prints one `<crate> <lines>` row per crate, then the total.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    name=$(basename "$dir")
    lines=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        lines=$((lines + n))
    done < <(find "$dir/src" -name '*.rs' -print0)
    printf '%-14s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"

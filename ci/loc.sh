#!/usr/bin/env bash
# Non-test line counts per workspace crate.
#
# Counts every line of every `.rs` file under a crate's `src/`, `benches/`
# and `examples/`, stopping each file at its first `#[cfg(test)]` line
# (the in-file unit tests). Integration tests under `tests/` are not
# counted. Blank lines and comments count: the figure tracks how much
# program text a reader has to hold, not statements.
#
# Usage: ci/loc.sh            (run from anywhere inside the repo)
# Prints one `crate<TAB>lines` row per package, then the workspace total.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

count_dir() {
    # Sum of per-file line counts up to the first `#[cfg(test)]`.
    local dir="$1" n=0 f
    for sub in src benches examples; do
        [ -d "$dir/$sub" ] || continue
        while IFS= read -r -d '' f; do
            n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")))
        done < <(find "$dir/$sub" -name '*.rs' -print0)
    done
    echo "$n"
}

crate_name() {
    awk -F'"' '/^name *=/ { print $2; exit }' "$1/Cargo.toml"
}

total=0
for dir in . crates/* shims/*; do
    [ -f "$dir/Cargo.toml" ] || continue
    n="$(count_dir "$dir")"
    total=$((total + n))
    printf '%s\t%s\n' "$(crate_name "$dir")" "$n"
done
printf 'total\t%s\n' "$total"

#!/usr/bin/env bash
# Engine size report: for each .rs file under crates/attention/src, the
# non-blank lines that are not `//` comments (doc comments included),
# counted up to the file's first `#[cfg(test)]` (the whole file when it
# has none). Prints one line per file, the `batch.rs` + `batch/*.rs`
# subtotal, and the total. Informational only: always exits 0.
#
# Usage: scripts/engine_loc.sh [repo-root]
set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
src="$root/crates/attention/src"
total=0
batch=0
while IFS= read -r f; do
    n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
             /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
             { c++ }
             END { print c + 0 }' "$f")
    rel="${f#"$src"/}"
    printf '%6d  %s\n' "$n" "$rel"
    total=$((total + n))
    case "$rel" in
        batch.rs | batch/*) batch=$((batch + n)) ;;
    esac
done < <(find "$src" -name '*.rs' | LC_ALL=C sort)
printf '%6d  batch.rs + batch/*.rs\n' "$batch"
printf '%6d  total\n' "$total"

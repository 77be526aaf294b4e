#!/bin/sh
# Shows that a change moved no simulated row. Builds REV (default
# HEAD~1) in a git worktree under target/same-rows, runs the same
# `v-bench` experiments (default `all`) there and in this tree, and
# diffs every BENCH_<id>.json the two runs wrote: every row is
# simulated, so any difference is a moved row. Exits nonzero on a
# difference, or if either build or run fails.
#
#   tools/same-rows.sh [REV [EXPERIMENT...]]
#
# e.g. `tools/same-rows.sh`, `tools/same-rows.sh main 6-1 cachemix`.
# Builds offline; REV's build keeps its own target directory under
# target/same-rows, so a second run against the same REV is incremental.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
rev=${1:-HEAD~1}
[ $# -gt 0 ] && shift
[ $# -gt 0 ] || set -- all
dir=$root/target/same-rows
tree=$dir/tree
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")

rm -rf "$dir/base" "$dir/head"
mkdir -p "$dir/base" "$dir/head"
git -C "$root" worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git -C "$root" worktree prune
git -C "$root" worktree add --detach --quiet "$tree" "$sha"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# run SOURCE TARGET-DIR OUT-DIR EXPERIMENT...
run() {
    src=$1 target=$2 out=$3
    shift 3
    CARGO_TARGET_DIR=$target cargo run --release --offline --quiet \
        --manifest-path "$src/Cargo.toml" -p v-bench -- "$@" --json "$out" >/dev/null
}
run "$tree" "$dir/target" "$dir/base" "$@"
run "$root" "$root/target" "$dir/head" "$@"

status=0
files=$( (cd "$dir/base" && ls BENCH_*.json; cd "$dir/head" && ls BENCH_*.json) | sort -u)
for name in $files; do
    base=$dir/base/$name head=$dir/head/$name
    if [ ! -f "$base" ] || [ ! -f "$head" ]; then
        echo "$name: written on one side only"
        status=1
        continue
    fi
    if ! diff -u --label "$rev/$name" --label "this tree/$name" "$base" "$head"; then
        status=1
    fi
done
count=$(echo "$files" | wc -w)
if [ "$status" -eq 0 ]; then
    echo "same rows: $count tables identical to $rev ($sha)"
fi
exit "$status"

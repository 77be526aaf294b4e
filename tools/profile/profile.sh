#!/bin/sh
# Profiles one workload of the repository benchmark (bench/) by stack
# sampling, and prints where its processor time goes by function.
#
#   tools/profile/profile.sh WORKLOAD [SECONDS [SEED]] [-- symbolize.py options]
#
# e.g. `tools/profile/profile.sh storm 10 1983 -- --lines dispatch_fan_out`.
# Builds the sampler and a frame-pointer build of bench/ with line tables
# under $VPROF_DIR (default target/profile, apart from the ordinary
# release build), runs `v-benchmark --workload WORKLOAD` under the sampler
# for SECONDS (default 10) at SEED (default 1983), and symbolizes what it
# recorded. Exits nonzero if no sample was taken.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
dir=${VPROF_DIR:-$root/target/profile}
workload=${1:?usage: profile.sh WORKLOAD [SECONDS [SEED]] [-- symbolize options]}
shift
seconds=10
seed=1983
if [ $# -gt 0 ] && [ "$1" != "--" ]; then seconds=$1; shift; fi
if [ $# -gt 0 ] && [ "$1" != "--" ]; then seed=$1; shift; fi
if [ $# -gt 0 ]; then shift; fi

mkdir -p "$dir"
cc -O2 -fPIC -shared -o "$dir/vprof.so" "$root/tools/profile/sampler.c"
CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
CARGO_PROFILE_RELEASE_STRIP=none \
RUSTFLAGS="-C force-frame-pointers=yes" \
CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path "$root/bench/Cargo.toml"
bin="$dir/target/release/v-benchmark"

rm -f "$dir"/vprof.[0-9]*
LD_PRELOAD="$dir/vprof.so" VPROF_OUT="$dir/vprof" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null
for samples in "$dir"/vprof.[0-9]*; do
    python3 "$root/tools/profile/symbolize.py" "$bin" "$samples" "$@"
done

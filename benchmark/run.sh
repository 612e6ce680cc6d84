#!/usr/bin/env bash
# The benchmark's one command.  From the repository root:
#
#   bash benchmark/run.sh                     every workload, tracing off, seed 42
#   bash benchmark/run.sh --seed 7            the same at another seed
#   bash benchmark/run.sh --trace 1           every workload, the per-layer run
#   bash benchmark/run.sh --workload net-echo --seed 3 --seconds 20 --trace 0
#                                             one run (what the driver calls)
#
# Each workload runs in a fresh process.  Everything is built into
# benchmark/target (or $CARGO_TARGET_DIR if the caller set one), never into
# the repository's own target/; result and span files go to benchmark/out
# (or $MVC_BENCH_OUT).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
MVC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export MVC_BENCH_RUSTC
out="${MVC_BENCH_OUT:-$here/out}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

trace=0
workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
        --trace) trace="${args[i + 1]:-}" ;;
        --workload) workload="${args[i + 1]:-}" ;;
    esac
done
exe="$CARGO_TARGET_DIR/release/bench"
if [[ "$trace" == 1 ]]; then
    exe="$CARGO_TARGET_DIR/release/trace"
fi

if [[ -n "$workload" ]]; then
    exec "$exe" "$@" --out "$out"
fi

status=0
for w in live-narrow live-wide net-echo plan-sparse; do
    "$exe" --workload "$w" "$@" --out "$out" || status=1
    echo
done
exit "$status"

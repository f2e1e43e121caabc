#!/bin/sh
# The repo benchmark's one command. From the repository root:
#
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload, as BENCHMARK.json's driver calls it
#   sh benchmark/run.sh [--seed N] [--workload NAME] [--smoke] [--out DIR]
#       every (or one) workload, each in its own process, first untraced
#       (end-to-end metrics) and then traced (per-layer metrics);
#       for BENCHMARK.json's run_seconds each; --smoke measures 8 s a run,
#       same code paths and metric names
#   sh benchmark/run.sh compare DIR_A DIR_B
#       both sets of end-to-end values against BENCHMARK.json's bounds
#
# Builds benchmark/ first (offline, release, into $CARGO_TARGET_DIR or
# .bench_build). Exits non-zero if the build fails, an output was wrong
# or a request went missing.
set -eu
cd "$(dirname "$0")/.."

CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$CARGO_TARGET_DIR/release/edgepc-benchmark"

if [ "${1:-}" = compare ]; then
    shift
    exec "$BIN" compare "$@"
fi

EDGEPC_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
EDGEPC_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export EDGEPC_BENCH_COMMIT EDGEPC_BENCH_RUSTC

workloads="scene_seg object_cls stream_fixed stream_mixed"
seed=1
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
traces="0 1"
out=benchmark/out
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) traces="$2"; shift 2 ;;
        --out) out="$2"; shift 2 ;;
        --smoke) seconds=8; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

status=0
for workload in $workloads; do
    for trace in $traces; do
        "$BIN" run --workload "$workload" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --out "$out" || status=$?
    done
done
exit "$status"

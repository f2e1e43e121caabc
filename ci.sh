#!/bin/sh
# CI gate for the EdgePC workspace. Runs entirely offline:
#   1. static analysis     cargo run -p edgepc-lint --bin lint_all
#   2. formatting          cargo fmt --check
#   3. lints               cargo clippy -D warnings (all targets). This
#                          step carries panic-freedom: the workspace lints
#                          deny unwrap/expect/todo!, and the hot crates'
#                          roots add panic!/unreachable!. It also carries
#                          determinism hygiene: clippy.toml bans hash
#                          types, Instant/SystemTime::now and thread
#                          identity, and the nine deterministic crates'
#                          roots turn clippy::disallowed_{types,methods}
#                          on.
#   4. tier-1              release build + test suite. tests/artifacts.rs
#                          holds the std-only pin (Cargo.lock names no
#                          registry or git package) and the schema pins
#                          (every results/*.json parses; BENCH, serve,
#                          net and flightrec carry their emitters'
#                          current schema constants).
#   5. workspace tests     cargo test --workspace --exclude
#                          edgepc-workspace: every member crate's tests.
#                          The root package (edgepc-workspace, tests/) ran
#                          in step 4, so every test runs once in debug
#                          (step 6 re-runs the bit pins in release).
#                          Steps 4 and 5 hold the compiled == eager pins:
#                          every edgepc-ir lowering of PointNet++ seg and
#                          DGCNN cls/seg must match the eager forward bit
#                          for bit (crates/models/src/compiled.rs, and
#                          tests/par_determinism.rs at 1/2/8 threads).
#                          Step 5 also runs the allocation counts
#                          (crates/serve/src/alloc_count.rs): exact
#                          per-thread counts of the warm steady-state
#                          scopes, of two compiled forwards, and of one
#                          served batch on a worker's cached plan (every
#                          served forward is compiled; eager forwards
#                          are training and the test oracle only).
#                          And it runs edgepc-nn's build guard
#                            build_targets_the_hosts_vector_width:
#                          on an AVX2 host it fails unless the tuned
#                          flags are in effect.
#   6. bit pins, both builds
#                          edgepc-nn's five kernel bit pins
#                            fused_product_bits_are_pinned
#                            blocked_matches_naive_at_every_tile_edge
#                            resumed_sums_match_one_pass_at_every_tile_edge
#                            pooled_epilogue_matches_linear_then_pool
#                            nearest_rows_match_the_scalar_loop
#                          (the last two run their largest shapes, above
#                          the fork floor, in release only),
#                          tests/par_determinism.rs
#                          (feature k-NN at 1/2/8 threads included), and
#                          the exact record:
#                          bench_all re-records results/BENCH.json and
#                          diffs it against the committed file. Every
#                          column (op counts, modeled Xavier ms/mJ,
#                          audited quality) is deterministic, so any
#                          difference fails: re-record with bench_all and
#                          commit the new rows with the change that moved
#                          them. All of it runs twice, in release (debug
#                          code is not vectorized): under the tuned flags
#                          of the root .cargo/config.toml (target-cpu=
#                          native), and under RUSTFLAGS="-C target-cpu=
#                          generic" in target/portable. So a kernel edit
#                          that keeps the bits on one ISA but not on the
#                          other fails here. Wall time is not gated here
#                          — the repo benchmark (benchmark/,
#                          BENCHMARK.json) owns it.
#   7. benchmark build     builds (never runs) the repo benchmark package
#                          under benchmark/, which sits outside the
#                          workspace, so a crate API change that breaks
#                          it fails here rather than in the benchmark.
#
# --no-lint skips step 1 (useful mid-refactor; the full gate still runs
# it, and crates/lint/tests/self_check.rs re-asserts it under cargo test).
#
# Optional serving smoke:
#   --serve-smoke   after the gates above, drive a short bursty load
#                   through the edgepc-serve engine (loadgen --smoke) and
#                   hold the generated serve.json to its schema pin
#                   (tests/artifacts.rs). Fails on panics, hangs, or
#                   schema drift.
#
# Optional observability smoke:
#   --obs-smoke     run loadgen --smoke with the live telemetry endpoint
#                   enabled, query all three snapshot verbs (metrics /
#                   registry / flightrec) through obsctl WHILE the load
#                   runs, release the run with the quit verb, and
#                   schema-check the generated serve.json and the saved
#                   flightrec.json (tests/artifacts.rs). Fails if the
#                   endpoint is unreachable, any snapshot is malformed,
#                   or a schema drifted.
#
# Optional network smoke:
#   --net-smoke     stand up the sharded TCP front end (2 engine shards
#                   behind the router on an ephemeral loopback port),
#                   drive it with netgen --smoke over real sockets, and
#                   hold the generated net.json to its schema pin
#                   (tests/artifacts.rs). Fails on panics, hangs, refused
#                   connections, or schema drift.
#
set -eu

SERVE_SMOKE=0
OBS_SMOKE=0
NET_SMOKE=0
RUN_LINT=1
for arg in "$@"; do
    case "$arg" in
        --serve-smoke) SERVE_SMOKE=1 ;;
        --obs-smoke)   OBS_SMOKE=1 ;;
        --net-smoke)   NET_SMOKE=1 ;;
        --no-lint)     RUN_LINT=0 ;;
        *)
            echo "usage: ci.sh [--no-lint] [--serve-smoke] [--obs-smoke] [--net-smoke]" >&2
            exit 2
            ;;
    esac
done

# pinned TEST: runs the ignored tests/artifacts.rs test that holds one
# generated artifact to its schema pin (it fails if the file is missing).
pinned() {
    cargo test -q --test artifacts -- --ignored --exact "$1"
}

# smoke_artifact PACKAGE BIN OUT TEST [ARGS...]: runs the release binary
# with `ARGS --out OUT`, then `pinned TEST`, which reads OUT.
smoke_artifact() {
    pkg=$1 bin=$2 out=$3 test=$4
    shift 4
    cargo run --release -q -p "$pkg" --bin "$bin" -- "$@" --out "$out"
    pinned "$test"
}

if [ "$RUN_LINT" = 1 ]; then
    echo "==> lint_all: workspace static analysis (EP rules, see DESIGN.md)"
    LINT_T0=$(date +%s)
    cargo run -q -p edgepc-lint --bin lint_all -- --json target/lint.json
    LINT_T1=$(date +%s)
    echo "==> lint_all: gate took $((LINT_T1 - LINT_T0))s wall (per-rule breakdown in the summary above)"
else
    echo "==> lint_all: skipped (--no-lint)"
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test --workspace -q --exclude edgepc-workspace"
cargo test --workspace -q --exclude edgepc-workspace

# bit_pins DIR: step 6 for the build the environment selects; the
# record goes to DIR/BENCH.json.
bit_pins() {
    cargo test --release -q -p edgepc-nn --lib -- \
        fused_product_bits_are_pinned \
        blocked_matches_naive_at_every_tile_edge \
        resumed_sums_match_one_pass_at_every_tile_edge \
        pooled_epilogue_matches_linear_then_pool \
        nearest_rows_match_the_scalar_loop
    cargo test --release -q --test par_determinism
    cargo run --release -q -p edgepc-bench --bin bench_all -- --out "$1/BENCH.json"
    diff results/BENCH.json "$1/BENCH.json"
}

echo "==> bit pins + exact record, tuned build (.cargo/config.toml)"
bit_pins target

echo "==> bit pins + exact record, portable build (target-cpu=generic)"
(
    export CARGO_TARGET_DIR=target/portable RUSTFLAGS="-C target-cpu=generic"
    bit_pins target/portable
)

echo "==> benchmark build: the repo benchmark (benchmark/) still builds"
# Same target directory benchmark/run.sh uses, so neither rebuilds.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml

if [ "$SERVE_SMOKE" = 1 ]; then
    echo "==> serve smoke: loadgen --smoke + schema check"
    smoke_artifact edgepc-serve loadgen target/serve.json serve_smoke_json --smoke
fi

if [ "$OBS_SMOKE" = 1 ]; then
    echo "==> obs smoke: loadgen under live telemetry endpoint + obsctl check"
    rm -rf target/obs
    mkdir -p target/obs
    # Prebuild both binaries so the background loadgen and the obsctl
    # queries do not fight over the cargo build lock mid-smoke.
    cargo build --release -q -p edgepc-serve --bin loadgen --bin obsctl
    cargo run --release -q -p edgepc-serve --bin loadgen -- \
        --smoke --requests 384 --rate 250 \
        --out target/obs/serve.json \
        --telemetry 127.0.0.1:0 \
        --telemetry-addr-file target/obs/endpoint.addr \
        --hold-ms 30000 \
        --flightrec target/obs/flightrec-trigger.json &
    LOADGEN_PID=$!
    ADDR=""
    tries=0
    while [ "$tries" -lt 150 ]; do
        if [ -s target/obs/endpoint.addr ]; then
            ADDR=$(cat target/obs/endpoint.addr)
            break
        fi
        tries=$((tries + 1))
        sleep 0.2
    done
    if [ -z "$ADDR" ]; then
        echo "obs smoke: telemetry endpoint never published an address" >&2
        kill "$LOADGEN_PID" 2>/dev/null || true
        exit 1
    fi
    # Query all three snapshot verbs while the load is in flight; check
    # exits non-zero unless every snapshot is well-formed.
    cargo run --release -q -p edgepc-serve --bin obsctl -- "$ADDR" check --out target/obs
    # Release the --hold-ms window and let loadgen finish writing serve.json.
    cargo run --release -q -p edgepc-serve --bin obsctl -- "$ADDR" quit >/dev/null
    wait "$LOADGEN_PID"
    pinned obs_smoke_serve_json
    pinned obs_smoke_flightrec_json
fi

if [ "$NET_SMOKE" = 1 ]; then
    echo "==> net smoke: netgen --smoke over loopback sockets + schema check"
    # Self-hosts 2 engine shards behind the router on an ephemeral port
    # and drives them over real TCP connections.
    smoke_artifact edgepc-net netgen target/net.json net_smoke_json --smoke
fi

echo "CI OK"

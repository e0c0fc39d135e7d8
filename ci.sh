#!/usr/bin/env bash
# Repository gate: formatting, lints, build + tests (tier 1), and the
# deterministic-parallelism smoke check (a 2-thread harness run must be
# byte-identical to the serial run). Run from the workspace root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
# Vendored shims are exempt from the extra perf lints; everything we own
# must be free of needless collects and redundant clones.
cargo clippy --workspace --all-targets \
    --exclude rand --exclude proptest --exclude criterion \
    -- -D warnings -D clippy::needless_collect -D clippy::redundant_clone

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release
cargo test -q

echo "==> determinism smoke: fig10 with 1 vs 2 threads"
# The trained-model cache would hide a nondeterministic training path
# (both runs would just reload the first run's models), so it is disabled;
# stdout must match byte for byte anyway.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
RUMBA_CACHE=0 RUMBA_THREADS=1 cargo run --release -q -p rumba-bench --bin fig10 \
    >"$smoke_dir/fig10.t1" 2>/dev/null
RUMBA_CACHE=0 RUMBA_THREADS=2 cargo run --release -q -p rumba-bench --bin fig10 \
    >"$smoke_dir/fig10.t2" 2>/dev/null
if ! cmp -s "$smoke_dir/fig10.t1" "$smoke_dir/fig10.t2"; then
    echo "FAIL: fig10 stdout differs between RUMBA_THREADS=1 and 2" >&2
    diff "$smoke_dir/fig10.t1" "$smoke_dir/fig10.t2" | head -20 >&2
    exit 1
fi
echo "    fig10 byte-identical at 1 and 2 threads"

echo "==> golden check: fig10 output vs ci/fig10.golden (fault-off gate)"
# The batched accelerator path must not move a single output bit relative
# to the committed pre-batching golden transcript. With the fault-injection
# hooks now compiled into the accelerator and runtime, this doubles as the
# fault-off gate: no attached FaultPlan means bit-for-bit legacy behavior.
if ! cmp -s "$smoke_dir/fig10.t1" ci/fig10.golden; then
    echo "FAIL: fig10 stdout differs from ci/fig10.golden" >&2
    diff ci/fig10.golden "$smoke_dir/fig10.t1" | head -20 >&2
    exit 1
fi
echo "    fig10 byte-identical to the golden transcript"

echo "==> telemetry gate: metrics on must not move a bit, and must parse"
# fig10 with a live JSONL sink must still match the golden transcript
# byte for byte (telemetry is purely observational), and the stream it
# writes must be machine-readable.
RUMBA_CACHE=0 RUMBA_THREADS=1 RUMBA_METRICS_OUT="$smoke_dir/fig10.jsonl" \
    cargo run --release -q -p rumba-bench --bin fig10 \
    >"$smoke_dir/fig10.obs" 2>/dev/null
if ! cmp -s "$smoke_dir/fig10.obs" ci/fig10.golden; then
    echo "FAIL: fig10 stdout changed when telemetry was enabled" >&2
    diff ci/fig10.golden "$smoke_dir/fig10.obs" | head -20 >&2
    exit 1
fi
if [ ! -s "$smoke_dir/fig10.jsonl" ]; then
    echo "FAIL: RUMBA_METRICS_OUT produced no telemetry" >&2
    exit 1
fi
# A run-level stream exercises every event path; `rumba report` parses
# both files and rejects malformed lines.
cargo run --release -q -p rumba-cli --bin rumba -- \
    run gaussian --toq 0.95 --metrics-out "$smoke_dir/run.jsonl" >/dev/null
for stream in "$smoke_dir/fig10.jsonl" "$smoke_dir/run.jsonl"; do
    summary=$(cargo run --release -q -p rumba-cli --bin rumba -- report "$stream")
    if ! echo "$summary" | grep -q ", 0 malformed"; then
        echo "FAIL: $stream contains malformed telemetry lines" >&2
        echo "$summary" | head -10 >&2
        exit 1
    fi
done
if ! cargo run --release -q -p rumba-cli --bin rumba -- report "$smoke_dir/run.jsonl" \
    | grep -q "windows:"; then
    echo "FAIL: run stream is missing window_end events" >&2
    exit 1
fi
echo "    telemetry streams parse clean; golden output unchanged"

echo "==> fault-injection smoke: NaN corruption must be quarantined"
# 'rumba faults' fails its own exit code if a managed NaN-injection run
# leaks a non-finite merged output, so success here is the quarantine
# proof; the telemetry stream must record the injections it survived.
cargo run --release -q -p rumba-cli --bin rumba -- \
    faults --kernels gaussian --rate 0.002 --metrics-out "$smoke_dir/faults.jsonl" \
    >"$smoke_dir/faults.txt"
if ! grep -q "merged outputs: all finite" "$smoke_dir/faults.txt"; then
    echo "FAIL: rumba faults did not confirm finite merged outputs" >&2
    head -20 "$smoke_dir/faults.txt" >&2
    exit 1
fi
if ! grep -q '"type":"fault"' "$smoke_dir/faults.jsonl"; then
    echo "FAIL: fault-injection run emitted no fault events" >&2
    exit 1
fi
if ! cargo run --release -q -p rumba-cli --bin rumba -- report "$smoke_dir/faults.jsonl" \
    | grep -q ", 0 malformed"; then
    echo "FAIL: fault telemetry stream contains malformed lines" >&2
    exit 1
fi
echo "    NaN injection quarantined; fault events present and parse clean"

echo "==> serving layer: isolation + backpressure suites at 1 and 4 threads"
# The multiplexed scheduler's determinism contract is thread-count
# independence; the same suites must pass serial and parallel.
RUMBA_THREADS=1 cargo test -q -p rumba-serve >/dev/null
RUMBA_THREADS=4 cargo test -q -p rumba-serve >/dev/null
echo "    rumba-serve suites green at RUMBA_THREADS=1 and 4"

echo "==> codecs in release: snapshot and cache mutation properties, word-reader cases, invoke reader"
# Every truncated, digit-flipped, overwritten or kernel-swapped snapshot
# must be rejected or restore to a session that re-snapshots to the same
# bytes; every truncated, digit-flipped or count-overwritten cache entry
# must read as a miss or load models that store back to the same text;
# oversized lengths and counts must be refused. The debug runs have
# overflow checks; release wraps instead, which would let a missing bound
# decode silently, so these suites run again here.
cargo test -q --release -p rumba-serve --test snapshot_mutation >/dev/null
cargo test -q --release -p rumba-serve --test cache_mutation >/dev/null
# The borrowed invoke reader must answer every corpus and random line
# byte for byte as the map-based decode did, and a steady-state invoke
# must allocate only its response (release builds inline differently).
cargo test -q --release --test invoke_reader >/dev/null
cargo test -q --release -p rumba-serve --test invoke_alloc >/dev/null
cargo test -q --release -p rumba-serve --lib -- snapshot:: config:: >/dev/null
cargo test -q --release -p rumba-obs --lib -- words:: >/dev/null
cargo test -q --release -p rumba-core --lib -- import_state zoo_pressure_above >/dev/null
echo "    mutated snapshots and cache entries decode identically or not at all;"
echo "    the invoke reader answers as the map decode did and allocates only its response (release)"

echo "==> benchmark harness: perfbench builds and tests against the workspace crates"
# perfbench depends on crates/* by path but sits outside the root
# workspace, so no workspace-level step would notice an API change that
# breaks it.
cargo test -q --release --manifest-path perfbench/Cargo.toml >/dev/null
echo "    perfbench suites green"

echo "==> float wire contract: the JSON float writer vs {:?} on 50M random bit patterns"
# Every float on the wire must be the bytes of Rust's {:?}; the tier-1
# run checks edge sets and 250k patterns, this release sweep 50M more.
cargo test -q --release --test json_codec -- --ignored >/dev/null
echo "    float writer byte-identical to {:?} on every pattern"

echo "==> kernel suites: rumba-apps unit, property and doc tests"
# The exact kernels back every training target, re-execution and oracle
# error; their own tests (outside the root package) must run here too.
cargo test -q -p rumba-apps >/dev/null
echo "    rumba-apps suites green"

echo "==> golden check: bench-serve trace vs ci/serve_trace.golden"
# The conformance trace is shortest-round-trip formatted JSONL, so a byte
# diff is a bitwise check of the whole serving layer — session state,
# batched NPU offsets, admission control, and fault isolation. It must
# match the committed golden at both thread counts.
RUMBA_CACHE=0 RUMBA_THREADS=1 cargo run --release -q -p rumba-cli --bin rumba -- \
    bench-serve --seed 7 >"$smoke_dir/serve.t1" 2>/dev/null
RUMBA_CACHE=0 RUMBA_THREADS=4 cargo run --release -q -p rumba-cli --bin rumba -- \
    bench-serve --seed 7 >"$smoke_dir/serve.t4" 2>/dev/null
for t in 1 4; do
    if ! cmp -s "$smoke_dir/serve.t$t" ci/serve_trace.golden; then
        echo "FAIL: bench-serve trace (RUMBA_THREADS=$t) differs from ci/serve_trace.golden" >&2
        diff ci/serve_trace.golden "$smoke_dir/serve.t$t" | head -20 >&2
        exit 1
    fi
done
echo "    serve trace byte-identical to the golden at 1 and 4 threads"

echo "==> SIMD gate: goldens byte-identical with RUMBA_SIMD=0 and 1 at 1 and 4 threads"
# The lane-reduction contract (DESIGN.md §11) promises the vector kernels
# reproduce the scalar reduction bit for bit, so both committed goldens
# must survive every SIMD x thread-count combination unchanged.
for simd in 0 1; do
    for t in 1 4; do
        RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
            cargo run --release -q -p rumba-bench --bin fig10 \
            >"$smoke_dir/fig10.s$simd.t$t" 2>/dev/null
        if ! cmp -s "$smoke_dir/fig10.s$simd.t$t" ci/fig10.golden; then
            echo "FAIL: fig10 (RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/fig10.golden" >&2
            diff ci/fig10.golden "$smoke_dir/fig10.s$simd.t$t" | head -20 >&2
            exit 1
        fi
        RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
            cargo run --release -q -p rumba-cli --bin rumba -- \
            bench-serve --seed 7 >"$smoke_dir/serve.s$simd.t$t" 2>/dev/null
        if ! cmp -s "$smoke_dir/serve.s$simd.t$t" ci/serve_trace.golden; then
            echo "FAIL: bench-serve trace (RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/serve_trace.golden" >&2
            diff ci/serve_trace.golden "$smoke_dir/serve.s$simd.t$t" | head -20 >&2
            exit 1
        fi
    done
done
echo "    fig10 + serve trace byte-identical under RUMBA_SIMD=0 and 1 at 1 and 4 threads"

echo "==> sharded TCP gate: multi-client trace vs ci/serve_net.golden"
# The same seeded workload over real TCP — one lockstep connection per
# tenant, fanned into shard threads by the session-placement hash. The
# trace must match the committed golden at every shard x thread x SIMD
# combination: shard count, like thread count and ISA, must be
# unobservable in the payload bytes.
for shards in 1 2; do
    for simd in 0 1; do
        for t in 1 4; do
            RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
                cargo run --release -q -p rumba-cli --bin rumba -- \
                bench-serve --seed 7 --shards $shards \
                >"$smoke_dir/serve_net.n$shards.s$simd.t$t" 2>/dev/null
            if ! cmp -s "$smoke_dir/serve_net.n$shards.s$simd.t$t" ci/serve_net.golden; then
                echo "FAIL: sharded bench-serve trace (shards=$shards, RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/serve_net.golden" >&2
                diff ci/serve_net.golden "$smoke_dir/serve_net.n$shards.s$simd.t$t" | head -20 >&2
                exit 1
            fi
        done
    done
done
echo "    sharded TCP trace byte-identical at shards {1,2} x SIMD {0,1} x threads {1,4}"

echo "==> golden check: compensate sweep vs ci/compensate.golden"
# The predict-and-compensate sweep (signed-error fits, band search,
# energy split) is pure arithmetic over the deterministic test streams,
# so its report must be byte-identical at every thread x SIMD
# combination — and must match the committed golden bit for bit.
for simd in 0 1; do
    for t in 1 4; do
        RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
            cargo run --release -q -p rumba-cli --bin rumba -- \
            compensate >"$smoke_dir/comp.s$simd.t$t" 2>/dev/null
        if ! cmp -s "$smoke_dir/comp.s$simd.t$t" ci/compensate.golden; then
            echo "FAIL: compensate sweep (RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/compensate.golden" >&2
            diff ci/compensate.golden "$smoke_dir/comp.s$simd.t$t" | head -20 >&2
            exit 1
        fi
    done
done
echo "    compensate sweep byte-identical at SIMD {0,1} x threads {1,4}"

echo "==> golden check: model-zoo sweep vs ci/zoo.golden"
# The zoo sweep (tier ladder training, topology search, bar calibration,
# per-invocation routing, energy accounting) is pure arithmetic over the
# deterministic splits: router decisions are fixed serially at the
# calibrated bar, so the report must be byte-identical at every
# thread x SIMD combination — and match the committed golden bit for
# bit. The pre-existing run/fig goldens double as the proof that the
# zoo-disabled paths are untouched.
for simd in 0 1; do
    for t in 1 4; do
        RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
            cargo run --release -q -p rumba-cli --bin rumba -- \
            zoo --seed 7 >"$smoke_dir/zoo.s$simd.t$t" 2>/dev/null
        if ! cmp -s "$smoke_dir/zoo.s$simd.t$t" ci/zoo.golden; then
            echo "FAIL: zoo sweep (RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/zoo.golden" >&2
            diff ci/zoo.golden "$smoke_dir/zoo.s$simd.t$t" | head -20 >&2
            exit 1
        fi
    done
done
echo "    zoo sweep byte-identical at SIMD {0,1} x threads {1,4}"

echo "==> flag gate: --threads and --simd on the command line vs the goldens"
# Every other gate sets threads and SIMD through RUMBA_THREADS/RUMBA_SIMD.
# Here the flags do it, with both variables unset, so the one place in
# the driver that applies them is gated too.
for golden in serve_trace zoo; do
    case $golden in
        serve_trace) args=(bench-serve --seed 7 --threads 4 --simd 0) ;;
        zoo) args=(zoo --seed 7 --threads 1 --simd 1) ;;
    esac
    env -u RUMBA_THREADS -u RUMBA_SIMD RUMBA_CACHE=0 \
        cargo run --release -q -p rumba-cli --bin rumba -- "${args[@]}" \
        >"$smoke_dir/flags.$golden" 2>/dev/null
    if ! cmp -s "$smoke_dir/flags.$golden" "ci/$golden.golden"; then
        echo "FAIL: ${args[*]} differs from ci/$golden.golden" >&2
        diff "ci/$golden.golden" "$smoke_dir/flags.$golden" | head -20 >&2
        exit 1
    fi
done
echo "    bench-serve and zoo byte-identical with --threads/--simd given as flags"

echo "==> warm-cache golden gate: compensate, zoo and bench-serve filling, then hitting, the model cache"
# Every other golden gate runs with RUMBA_CACHE=0, so none reads a cache
# entry back. Here the first run of each command fills a fresh cache
# directory and the second loads from it (each must report a hit); both
# must match the goldens byte for byte, so serving from stored models,
# signed-error companions and zoo tiers included, is bit-exact with
# training them.
warm_cache="$smoke_dir/model-cache"
for run in fill hit; do
    for golden in compensate zoo serve_trace; do
        case $golden in
            compensate) args=(compensate) ;;
            zoo) args=(zoo --seed 7) ;;
            serve_trace) args=(bench-serve --seed 7) ;;
        esac
        RUMBA_CACHE=1 RUMBA_CACHE_DIR="$warm_cache" \
            cargo run --release -q -p rumba-cli --bin rumba -- "${args[@]}" \
            >"$smoke_dir/warm.$golden.$run" 2>"$smoke_dir/warm.$golden.$run.err"
        if ! cmp -s "$smoke_dir/warm.$golden.$run" "ci/$golden.golden"; then
            echo "FAIL: ${args[*]} ($run run) differs from ci/$golden.golden" >&2
            diff "ci/$golden.golden" "$smoke_dir/warm.$golden.$run" | head -20 >&2
            exit 1
        fi
        if [ "$run" = hit ] && ! grep -q '^\[cache\] hit: ' "$smoke_dir/warm.$golden.$run.err"; then
            echo "FAIL: ${args[*]} did not load from the filled cache" >&2
            exit 1
        fi
    done
done
echo "    compensate, zoo and serve trace byte-identical on a cold and a warm model cache"

echo "==> golden check: open-world drift sweep vs ci/drift.golden"
# The drift sweep streams seeded open-world scenarios (every sample a
# pure hash of seed x scenario x invocation) through the reset-only
# watchdog and the online checker re-fit; its detection-coverage report
# must be byte-identical at every thread x SIMD combination — and match
# the committed golden bit for bit. The golden itself pins the recovery
# claim: at seed 7 at least one kernel x scenario line reads
# "recovered". The refit path is strictly opt-in, so the pre-existing
# fig10 / serve / compensate / zoo goldens above double as the byte-
# identity proof for every refit-off code path.
for simd in 0 1; do
    for t in 1 4; do
        RUMBA_CACHE=0 RUMBA_THREADS=$t RUMBA_SIMD=$simd \
            cargo run --release -q -p rumba-cli --bin rumba -- \
            drift --seed 7 >"$smoke_dir/drift.s$simd.t$t" 2>/dev/null
        if ! cmp -s "$smoke_dir/drift.s$simd.t$t" ci/drift.golden; then
            echo "FAIL: drift sweep (RUMBA_SIMD=$simd, RUMBA_THREADS=$t) differs from ci/drift.golden" >&2
            diff ci/drift.golden "$smoke_dir/drift.s$simd.t$t" | head -20 >&2
            exit 1
        fi
    done
done
if ! grep -q "recovered" ci/drift.golden; then
    echo "FAIL: ci/drift.golden pins no recovered kernel x scenario combo" >&2
    exit 1
fi
echo "    drift sweep byte-identical at SIMD {0,1} x threads {1,4}; recovery pinned"

echo "==> matrix bench smoke (bit-exactness gate + allocation probe)"
# The bench asserts batched == per-sample bitwise and zero steady-state
# allocations before it times anything, so a short run is a real check.
cargo bench -p rumba-bench --bench matrix >/dev/null

echo "==> ci.sh: all checks passed"

#!/usr/bin/env bash
# Tier-1 gate: CI's single test step, runnable offline (no network, no
# registry — the workspace has path dependencies only). Artifacts land
# in target/: trace_car_dog.*, telemetry_*, the bench smoke reports
# (bench-smoke/BENCH_*.json) and the serving benchmark's build
# (perfbench/). The committed BENCH_*.json at the repo root come from
# real bench runs only; no lane here rewrites them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The parallel executor must be answer-identical at every thread count,
# so the suite runs twice: pinned sequential, then 4-way parallel.
echo "==> SUMMA_THREADS=1 cargo test -q"
SUMMA_THREADS=1 cargo test -q

echo "==> SUMMA_THREADS=4 cargo test -q"
SUMMA_THREADS=4 cargo test -q

# Trace lane: the observability suite must hold with the process-global
# tracer enabled too, and the example must emit a Chrome trace that the
# dependency-free validator accepts (it errors on empty traceEvents)
# plus non-empty collapsed stacks.
echo "==> SUMMA_TRACE=1 trace lane"
SUMMA_TRACE=1 SUMMA_THREADS=4 cargo test -q -p summa-core --test integration_obs
(cd target && SUMMA_TRACE=1 cargo run -q -p summa-core --example trace_car_dog)
test -s target/trace_car_dog.json
test -s target/trace_car_dog.folded
echo "    trace_car_dog.json + trace_car_dog.folded: valid, non-empty"

# Chaos lane: arm the process-global fault injector with a fixed,
# replayable plan (panic/poison kinds only — the ones the supervisor
# and cache integrity recover from silently) and re-run the resilience
# suite sequentially and 4-way. Every governed run in the process
# absorbs background faults and must still produce baseline answers.
CHAOS_PLAN='exec.task@3=panic;dl.cache.insert@2=poison'
echo "==> chaos lane: SUMMA_FAULT_PLAN='${CHAOS_PLAN}' SUMMA_FAULT_SEED=1405"
SUMMA_FAULT_PLAN="$CHAOS_PLAN" SUMMA_FAULT_SEED=1405 SUMMA_THREADS=1 \
    cargo test -q -p summa-core --test integration_resilience
SUMMA_FAULT_PLAN="$CHAOS_PLAN" SUMMA_FAULT_SEED=1405 SUMMA_THREADS=4 \
    cargo test -q -p summa-core --test integration_resilience

# Bench smoke lane: one sample per classification strategy. The bench
# itself asserts brute-force ≡ enhanced hierarchies and the diamond
# sat-call acceptance ratio; the validator gates the report format.
# Smoke runs write their reports under target/bench-smoke/.
SMOKE=target/bench-smoke
echo "==> SUMMA_BENCH_SMOKE=1 cargo bench --bench classify"
SUMMA_BENCH_SMOKE=1 cargo bench --bench classify
cargo run -q -p summa-obs --example validate_json -- \
    "$SMOKE/BENCH_classify.json" bench generated_at workloads
echo "    $SMOKE/BENCH_classify.json: valid"

# Counter ledger: the smoke run's exact counters must be no worse than
# the committed report's (sat calls, EL steps and the EL index's
# charged pairs may not rise, pruned cells may not fall); wall times
# are printed, never gated.
echo "==> bench_diff BENCH_classify.json"
cargo run -q -p summa-obs --example bench_diff -- \
    BENCH_classify.json "$SMOKE/BENCH_classify.json" \
    brute_force_sat_tests enhanced_sat_tests +enhanced_pruned el_steps el_pairs

# Parallel bench smoke: one sample per lane of one-thread vs
# SUMMA_BENCH_THREADS-way classification; the bench asserts both
# hierarchies (and a warm-cache rerun) are identical, and the validator
# gates the report format.
echo "==> SUMMA_BENCH_SMOKE=1 cargo bench --bench parallel"
SUMMA_BENCH_SMOKE=1 cargo bench --bench parallel
cargo run -q -p summa-obs --example validate_json -- \
    "$SMOKE/BENCH_parallel.json" bench threads host_cpus generated_at workloads
echo "    $SMOKE/BENCH_parallel.json: valid"

# Counter ledger: cold-run cache misses may not rise and warm-rerun
# cache hits may not fall.
echo "==> bench_diff BENCH_parallel.json"
cargo run -q -p summa-obs --example bench_diff -- \
    BENCH_parallel.json "$SMOKE/BENCH_parallel.json" \
    cache_misses +warm_cache_hits

# Kernel bench smoke: the engine-vs-engine bench asserts verdict and
# states-popped identity plus strictly fewer kernel label scans on
# every lane; the validator gates the report format. (The tableau
# differential suite itself runs in the main sweeps above.)
echo "==> SUMMA_BENCH_SMOKE=1 cargo bench --bench tableau"
SUMMA_BENCH_SMOKE=1 cargo bench --bench tableau
cargo run -q -p summa-obs --example validate_json -- \
    "$SMOKE/BENCH_tableau.json" bench generated_at workloads
echo "    $SMOKE/BENCH_tableau.json: valid"

# Counter ledger: states popped and label scans (both engines) may not
# rise.
echo "==> bench_diff BENCH_tableau.json"
cargo run -q -p summa-obs --example bench_diff -- \
    BENCH_tableau.json "$SMOKE/BENCH_tableau.json" \
    states_popped reference_label_scans kernel_label_scans

# Install bench smoke: parse and install `diamond(8)`'s axiom text
# once per lane; the bench asserts the install warms by EL saturation
# and that its allocation counts repeat exactly, and the validator
# gates the report format.
echo "==> SUMMA_BENCH_SMOKE=1 cargo bench --bench install"
SUMMA_BENCH_SMOKE=1 cargo bench --bench install
cargo run -q -p summa-obs --example validate_json -- \
    "$SMOKE/BENCH_install.json" bench generated_at workloads
echo "    $SMOKE/BENCH_install.json: valid"

# Counter ledger: the heap allocations of one parse and of one install
# may not rise.
echo "==> bench_diff BENCH_install.json"
cargo run -q -p summa-obs --example bench_diff -- \
    BENCH_install.json "$SMOKE/BENCH_install.json" \
    parse_allocs install_allocs

# Serving soak lane: N concurrent tenants against the batched reasoning
# server — zero dropped requests, bounded queue depth, typed overload
# rejections, and a drain-under-load whose accounting reconciles
# exactly. The telemetry phase arms tail sampling, scrapes the
# Telemetry op in both formats, and writes the payloads to target/.
# The example asserts every invariant and exits nonzero on the first
# violation.
echo "==> serve soak lane (telemetry armed)"
cargo run -q --release -p summa-serve --example serve_soak

# Telemetry lane: re-lint the scraped artifacts with the standalone
# validators — the Prometheus exposition must parse and carry the
# serve families, and the slow-query dump must be valid Chrome-trace
# JSON.
echo "==> telemetry lane: lint scraped artifacts"
cargo run -q -p summa-obs --example lint_exposition -- \
    target/telemetry_serve.prom \
    summa_serve_phase_queue_wait_ns summa_serve_phase_execute_ns \
    summa_serve_tenant_requests_total summa_serve_slow_log_triggered_total \
    summa_serve_index_hit_total summa_serve_index_miss_total \
    summa_serve_cache_shared_hit_total
cargo run -q -p summa-obs --example validate_json -- \
    target/telemetry_slowlog.json traceEvents
echo "    telemetry_serve.prom + telemetry_slowlog.json: valid"

# Serve bench smoke: batched vs unbatched scheduling plus cold vs warm
# serving over real loopback TCP; the validator gates the report format
# (including the warm-path speedup field — the 5x acceptance assert
# itself only arms on non-smoke runs).
echo "==> SUMMA_BENCH_SMOKE=1 cargo bench --bench serve"
SUMMA_BENCH_SMOKE=1 cargo bench --bench serve
cargo run -q -p summa-obs --example validate_json -- \
    "$SMOKE/BENCH_serve.json" bench generated_at warm_execute_speedup workloads
echo "    $SMOKE/BENCH_serve.json: valid"

# Serving benchmark lane: build and unit-test perfbench (its own Cargo
# package, built against these crates by path), then run the told and
# swap workloads for one second each. Every served answer is checked
# against the direct library call, so a crate API change that breaks
# the benchmark, or a wrong served body, fails here.
PERFBENCH_TARGET=target/perfbench
echo "==> perfbench: cargo test --release"
CARGO_TARGET_DIR="$PERFBENCH_TARGET" \
    cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
for workload in told swap; do
    echo "==> perfbench smoke: --workload $workload --seconds 1"
    CARGO_TARGET_DIR="$PERFBENCH_TARGET" python3 perfbench/run.py \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > "$PERFBENCH_TARGET/smoke-$workload.txt"
    tail -n 1 "$PERFBENCH_TARGET/smoke-$workload.txt" | python3 -c \
        'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] is True else 1)'
    echo "    $workload: exit 0, \"correct\": true"
done

# Formatting: the workspace must be rustfmt-clean (perfbench/ is its
# own package, outside the workspace).
if cargo fmt --version >/dev/null 2>&1; then
    echo "==> cargo fmt --all --check"
    cargo fmt --all --check
else
    echo "==> rustfmt not installed; skipping format check"
fi

# Lint every target (libraries, tests, benches, examples), not only
# the libraries.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

# Line ledger: non-test Rust lines per crate, printed into every log so
# a change's effect on them can be read off CI.
echo "==> scripts/loc.sh"
bash scripts/loc.sh

echo "tier-1: OK"

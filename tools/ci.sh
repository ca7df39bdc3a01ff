#!/usr/bin/env bash
# CI entry point: build + test the three configurations that matter.
#
#   1. Release        — the configuration benches and figure reproductions
#                       use; catches optimizer-dependent breakage.
#   2. Debug+ASan/UBSan — memory and UB errors in the event-queue slab,
#                       the SBO callback, and the thread-pool fan-out.
#   3. RelWithDebInfo+TSan — data races in the suites that start threads
#                       through ParallelRunner or parallel_for.
#
# Usage: tools/ci.sh [jobs]   (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "==== configure $dir ($*) ===="
  cmake -B "$dir" -S . "$@" >/dev/null
  echo "==== build $dir ===="
  cmake --build "$dir" -j "$JOBS"
  echo "==== test $dir ===="
  ctest --test-dir "$dir" --output-on-failure --timeout 300 -j "$JOBS"
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release

# One sanitizer pass runs every test once, each under the 300 s limit, so
# a wedged simulation fails the build rather than hanging it. The ctest
# labels (chaos, sched, hostile, chaos-search, cc, examples) still
# select a subsystem's suites by hand: `ctest --test-dir build-ci-asan -L
# chaos`.
run_config build-ci-asan \
  -DCMAKE_BUILD_TYPE=Debug \
  -DRIPTIDE_SANITIZE=ON

# ThreadSanitizer over the threaded suites only: the runner and task pool,
# the determinism sweeps across thread counts, the per-thread trace sinks
# and the CC thread-count check. The flags go straight to the compiler and
# linker, so the build needs no CMake option.
echo "==== configure build-ci-tsan ===="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
echo "==== build build-ci-tsan ===="
TSAN_SUITES=(runner_test determinism_test trace_test cc_test)
cmake --build build-ci-tsan -j "$JOBS" --target "${TSAN_SUITES[@]}"
echo "==== test build-ci-tsan ===="
for suite in "${TSAN_SUITES[@]}"; do
  "./build-ci-tsan/tests/$suite"
done

# Repo benchmark selftest: builds perfbench from src/ (into .bench_build/),
# runs its selftest and checks its metric names against BENCHMARK.json, so
# a change to a seam it uses fails here, not in the benchmark run.
echo "==== perfbench selftest ===="
python3 perfbench/run.py --selftest

# Chaos campaign smoke (Release): a short seeded campaign end to end
# through the CLI. A healthy tree must come back with zero findings; any
# finding writes its minimized .min.spec next to the build for triage.
echo "==== chaos campaign smoke (Release) ===="
./build-ci-release/tools/riptide_sim --chaos 48 --chaos-seed 1 \
  --chaos-out build-ci-release

# Resident memory (informational, never a gate): peak RSS of a
# paper-scale run, 34 PoPs over 240 s simulated (about 11 s).
echo "==== resident memory (Release) ===="
python3 tools/max_rss.py -- ./build-ci-release/tools/riptide_sim --pops 34 \
  --duration 240 --seed 1 --wan-loss 0.001 --probe-interval 5 --interval 1 \
  --ttl 90 --cmax 100 | tail -n 1 || true

# Event-queue bench diff (informational, never a gate): one JSONL row per
# workload, diffed against the checked-in wheel-vs-heap baseline.
echo "==== event-queue throughput (Release) ===="
./build-ci-release/bench/bench_micro --queue-json \
  | tee build-ci-release/BENCH_eventwheel.ci.json
python3 tools/bench_diff.py BENCH_eventwheel.json \
  build-ci-release/BENCH_eventwheel.ci.json || true

# Hotpath bench diff (informational, never a gate): zero baselines render
# as "n/a" rows, and bench_diff.py always exits 0 — `|| true` guards only
# against the bench itself failing to run.
echo "==== hotpath bench diff vs checked-in baseline ===="
./build-ci-release/bench/bench_micro --hotpath-json \
  > build-ci-release/BENCH_hotpath.ci.json
python3 tools/bench_diff.py BENCH_hotpath.json \
  build-ci-release/BENCH_hotpath.ci.json || true

# Hybrid-fidelity bench (informational): quick mode keeps CI short; the
# hybrid/packet event ratio is the hardware-independent number to read.
# Quick-mode numbers are not comparable with the checked-in full-length
# BENCH_hybrid.json, so the diff is advisory.
echo "==== hybrid fidelity bench (quick) ===="
./build-ci-release/bench/bench_hybrid --quick --json \
  | tail -1 > build-ci-release/BENCH_hybrid.ci.json
python3 tools/bench_diff.py BENCH_hybrid.json \
  build-ci-release/BENCH_hybrid.ci.json || true

# Policy zoo bench (informational): quick mode keeps CI short. The
# headline block — static IW50 vs governed adaptive per hostile scenario —
# is what reviewers read; quick-mode numbers are not comparable with the
# checked-in full-length BENCH_policy.json, so the diff is advisory.
echo "==== policy zoo x hostile scenario bench (quick) ===="
./build-ci-release/bench/bench_policy_zoo --quick --json \
  > build-ci-release/BENCH_policy.ci.json
python3 tools/bench_diff.py BENCH_policy.json \
  build-ci-release/BENCH_policy.ci.json || true

# CC matrix bench (informational): quick mode keeps CI short. The headline
# — jump-start gain per congestion-control regime — is what reviewers
# read; quick-mode numbers are not comparable with the checked-in
# full-length BENCH_cc.json, so the diff is advisory.
echo "==== cc regime matrix bench (quick) ===="
./build-ci-release/bench/bench_cc_matrix --quick --json \
  > build-ci-release/BENCH_cc.ci.json
python3 tools/bench_diff.py BENCH_cc.json \
  build-ci-release/BENCH_cc.ci.json || true

# Docs lint: every relative markdown link must resolve (offline check; no
# network fetches in CI), and docs/CLI.md must match riptide_sim --help
# exactly (drift fails the build; regenerate with --update). The --binary
# cross-check also pins the kHelpText extraction against what the built
# binary actually prints.
echo "==== docs lint ===="
python3 tools/check_md_links.py
python3 tools/check_cli_docs.py --binary build-ci-release/tools/riptide_sim

# Trace smoke: one traced run through the CLI, with a link flap and a warm
# reboot so fault, link and agent-restore records are checked too, then
# schema/order validation of the emitted JSONL.
echo "==== trace smoke ===="
./build-ci-release/tools/riptide_sim --pops 3 --duration 20 --seed 7 \
  --faults "@5 flap 0-1 2 2; @8 crash -1 3 reboot-warm" \
  --trace build-ci-release/trace_ci.jsonl
python3 tools/trace_report.py build-ci-release/trace_ci.jsonl --check

echo "CI passed."

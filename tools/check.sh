#!/usr/bin/env sh
# Repo verification gate: tier-1 tests, bench and serving smokes, plus
# sanitizer passes over the concurrency- and aliasing-sensitive suites.
#
#   tools/check.sh          # tier-1 + bench/serving smokes
#   tools/check.sh --full   # + ASan, TSan and UBSan configs of the
#                           #   sensitive tests (what CI runs)
#
# Each stage prints "==> <stage>" before it starts, so a failing stage is
# named in the log.
#
# Warning gate: the tier-1 build and every sanitizer build fail the check
# when the compiler prints a warning located in a repo source (src/,
# tests/, bench/, examples/). Warnings located in system headers (GCC 12's
# libstdc++ -Wrestrict notes from char_traits.h) pass. A build only
# compiles what changed, so an up-to-date tree prints nothing to check; a
# fresh checkout (CI) compiles, and so checks, every file.
#
# The sanitizer passes rebuild into build-asan/, build-tsan/ and
# build-ubsan/ (all .gitignore'd) and run every test of the suites that
# tests/CMakeLists.txt labels `sanitize`. Those exercise the
# shared thread pool, the chunked ParallelFor scheduler, the class-major
# fuse-and-score kernel, the per-frame stores reloaded in place (frame
# contexts, SoA store, ground-truth indexes — a source pointer that
# survives a reload is a use-after-free ASan reports) with their exact
# allocation gates, and WBF's in-place block walk,
# lazy-vs-eager evaluation equivalence (estimate-only cells included),
# the fault-tolerant detector runtime (retry/breaker/degradation), the
# snapshot/checkpoint stack (hostile-byte parsing plus the crash-resume
# matrix) — corrupt snapshots must fail with a clean Status, never UB —
# and the serving layer (scheduler rounds stepping sessions in parallel,
# the thread pool shutdown contract), plus the temporal skip gate
# (tracker propagation and state, skip-policy snapshots, and the
# skip-enabled crash-resume and disabled-path invariants), plus the
# scheduler's latency histogram, plus the sharded fleet
# (admission threads building sessions before placement, shard threads
# stepping concurrently between serial control phases,
# live migration payloads, scripted chaos — concurrent shards must be
# race-free under TSan and a corrupted payload must reject with a clean
# Status under every sanitizer), plus the overload controller and
# trace-driven workload engine (hostile trace corpus, degradation-ladder
# determinism, and concurrent breaker-registry publication under TSan),
# plus the observability plane (lock-free metrics/trace recording from
# worker threads, fingerprint determinism, exporter validation —
# obs-enabled runs must stay bit-identical and race-free under every
# sanitizer).

set -eu

cd "$(dirname "$0")/.."
root=$(pwd)

# build_gated <dir> <cmake --build args...>: builds, echoes the compiler
# output, and fails on a build error or on a warning in a repo source.
build_gated() {
  dir="$1"
  shift
  log="$dir/build-output.log"
  status=0
  cmake --build "$dir" "$@" >"$log" 2>&1 || status=$?
  cat "$log"
  [ "$status" -eq 0 ] || return "$status"
  if sed "s|^$root/||" "$log" |
    grep -E '^(src|tests|bench|examples)/[^:]*:[0-9]+:([0-9]+:)? warning:'
  then
    echo "check.sh: the $dir build warned in repo sources (lines above)"
    return 1
  fi
}

run_tier1() {
  cmake -B build -S . >/dev/null
  build_gated build -j
  ctest --test-dir build -L tier1 --output-on-failure -j 4
}

run_perf_smoke() {
  # Tiny-config run of the matrix-build bench. Wall-clock numbers are not
  # gated — CI machines are too noisy for that — but the bench's exit code
  # reflects its bit-identity verdicts: the optimized kernels (arena-backed
  # fusion, WBF's block walk over the SoA store), the serial/parallel
  # matrices and the eager/lazy strategy runs must all reproduce their
  # reference paths exactly. Runs from the bench directory so BENCH_matrix_build.json
  # lands next to the binary, not in the repo root.
  (cd build/bench && VQE_BENCH_TRIALS=2 VQE_BENCH_FRAMES=40 \
    ./bench_matrix_build)
  # Same contract for the serving bench: its exit code gates on
  # bit-identity — served streams equal to solo runs, skip_budget=0 rows
  # equal to the no-skip baseline, skip-enabled served streams equal to
  # their solo counterparts, and every fleet stream (16 streams over
  # 1/2/4/8 shards, clean and under the migrate-then-kill chaos script)
  # equal to its solo run — and on each chaos row completing exactly its
  # one migration. Throughput numbers are reported, not gated.
  (cd build/bench && VQE_BENCH_TRIALS=2 VQE_BENCH_FRAMES=120 \
    ./bench_serve)
}

run_fleet_chaos_smoke() {
  # Replay the scripted chaos matrix in the plain build (the sanitizer
  # passes replay it again under ASan/TSan/UBSan with --full): shard
  # kills, mid-video migrations and corrupted payloads across backends
  # and worker counts, every completing stream bit-identical to solo, and
  # longest-first placement onto the shard with the fewest placed frames.
  # The fleet ledger is a pure function of the inputs, so the suites run
  # 20 times: a timing dependence fails here instead of flaking.
  ./build/tests/fleet_test --gtest_repeat=20 \
    --gtest_filter='ShardedServerTest.*:SchedulerMigrationTest.*:FleetPlacementTest.*'
}

run_overload_storm_smoke() {
  # Trace-driven overload storm: heavy-tailed arrivals over a diurnal
  # peak with an error storm and a latency-spike storm, SLO-aware
  # degradation ladder enabled. The bench's exit code gates its seven
  # verdicts (plan + ladder determinism across worker counts, the ladder
  # stepping and fully recovering, the interactive SLO held, all
  # shedding landing on batch, and disabled-controller bit-identity).
  (cd build/bench && ./bench_workload)
}

run_obs_smoke() {
  # Observability smoke: instrumented bench runs must emit Chrome trace
  # JSON that the in-repo validator accepts, and the benches' exit codes
  # keep gating their bit-identity verdicts with obs ENABLED on the
  # instrumented configs — i.e. tracing a run never changes its results.
  # The workload bench also replays the multi-day diurnal trace file
  # (three day/night cycles + gradual drift) and gates its shape,
  # drift-ramp and worker-count-determinism verdicts.
  (cd build/bench && VQE_BENCH_TRIALS=2 VQE_BENCH_FRAMES=120 \
    ./bench_serve --trace-out BENCH_serve_trace.json)
  (cd build/bench && ./bench_workload \
    --trace ../../bench/traces/diurnal_multiday.vqework \
    --trace-out BENCH_workload_trace.json)
}

run_serving_smoke() {
  # Serving correctness smoke: short runs of the benchmark's two serving
  # workloads (a StreamScheduler closed loop and a sharded fleet). Each
  # exits non-zero unless every served clip equals its solo RunStrategy
  # run; only that exit code is gated, never the printed timings. The
  # benchmark builds itself into .bench_build/ on first use.
  python3 perfbench/run.py --workload serve_closed --seed 1 --seconds 2 \
    --trace 0
  python3 perfbench/run.py --workload fleet_batch --seed 1 --seconds 2 \
    --trace 0
}

run_sanitizer() {
  san="$1"
  dir="build-$2"
  cmake -B "$dir" -S . -DVQE_SANITIZE="$san" >/dev/null
  # tests/CMakeLists.txt names the suites (VQE_SANITIZE_SUITES): the
  # sanitize_tests target builds them, and every test they hold carries
  # the sanitize label.
  build_gated "$dir" -j --target sanitize_tests
  ctest --test-dir "$dir" --output-on-failure -j 4 -L sanitize
}

stage() {
  echo "==> $*"
  "$@"
}

stage run_tier1
stage run_perf_smoke
stage run_fleet_chaos_smoke
stage run_overload_storm_smoke
stage run_obs_smoke
stage run_serving_smoke

if [ "${1:-}" = "--full" ]; then
  stage run_sanitizer address asan
  stage run_sanitizer thread tsan
  stage run_sanitizer undefined ubsan
fi

echo "check.sh: all requested checks passed"

#!/usr/bin/env bash
# CI gate: repo hygiene, tier-1 tests (which include the modelarlint
# LintTree gate), the crash gates, an e2ebench smoke run, the tier-2 TSan
# subset, the ASan and UBSan tiers, and the static-analysis gates (Clang
# thread-safety build, clang-tidy, parser fuzz smoke).
#
# The three Clang-only stages detect the toolchain and SKIP (loudly, but
# green) when clang++/clang-tidy are not installed, so the script stays
# runnable on GCC-only machines; on a machine with LLVM they are hard
# gates. Everything else always runs — in particular modelarlint
# (DESIGN.md §3j), which replaced the old metric/sync-coverage hygiene
# greps with comment/string-aware rules that run on any toolchain.
#
# Usage: tools/ci.sh  (run from anywhere inside the repo)
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Hygiene: build trees must never be committed (they are .gitignore'd).
if git ls-files | grep -q '^build'; then
  echo "FAIL: build artifacts are tracked by git:" >&2
  git ls-files | grep '^build' | head >&2
  exit 1
fi

# Size: the tracked src/ line count, the figure ROADMAP.md tracks.
echo "ci: src/ lines: $(git ls-files 'src/*.cc' 'src/*.h' | xargs cat | wc -l)"

JOBS="$(nproc 2>/dev/null || echo 4)"

# Tier 1: full test suite.
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

# Lint gate: modelarlint over the whole tree with the checked-in (empty)
# baseline. Already ran once inside ctest as LintTree.FullTreeClean; this
# explicit run prints the findings in CI logs when it fails and keeps the
# gate visible as its own stage. Enforces the io/sync/clock/catalog/
# layering boundaries as hard errors (DESIGN.md §3j), replacing the old
# metric_hygiene and sync_coverage_hygiene greps.
./build/tools/modelarlint --root . --baseline tools/lint_baseline.txt
echo "ci: modelarlint gate passed"

# Kernel parity: the dispatched SIMD tier and the forced-scalar tier must
# produce byte-identical results (DESIGN.md §3f). Runs the full tier-1
# suite a second time with MODELARDB_FORCE_SCALAR=1, then diffs the
# bit-exact query output of tools/kernel_parity between the two tiers.
# Only meaningful where the AVX2 tier can actually run; skips loudly
# (but green) elsewhere, like the Clang-only gates.
if [[ "$(uname -m)" == "x86_64" ]]; then
  (cd build && MODELARDB_FORCE_SCALAR=1 ctest --output-on-failure -j "$JOBS")
  ./build/tools/kernel_parity > /tmp/kernel_parity_dispatched.$$ 2>/dev/null
  MODELARDB_FORCE_SCALAR=1 ./build/tools/kernel_parity \
      > /tmp/kernel_parity_scalar.$$ 2>/dev/null
  if ! diff -u /tmp/kernel_parity_dispatched.$$ /tmp/kernel_parity_scalar.$$
  then
    rm -f /tmp/kernel_parity_dispatched.$$ /tmp/kernel_parity_scalar.$$
    echo "FAIL: dispatched and forced-scalar kernels diverge" >&2
    exit 1
  fi
  rm -f /tmp/kernel_parity_dispatched.$$ /tmp/kernel_parity_scalar.$$
  echo "ci: kernel-parity gate passed"
else
  echo "ci: SKIP kernel-parity gate (non-x86 host: $(uname -m))"
fi

# Crash-recovery gate: N rounds of kill -9 mid-ingest plus seeded
# fault-injection rounds; every round must reopen and serve the
# acknowledged-flush watermark byte-identically (DESIGN.md §3g). The
# harness itself SKIPs loudly (but exits 0) on platforms without
# fork/kill, so this stage stays runnable everywhere.
./build/tools/crash_writer --rounds=25 --seed=7
echo "ci: crash-recovery gate passed"

# Slab-recovery gate: the same kill -9 + fault-injection rounds with slab
# checkpoints every 3 flushes, so crashes land across the checkpoint
# pipeline — mid data sync, mid root flip, between flip and the next WAL
# append (DESIGN.md §3h). Same verifier, same watermark contract.
./build/tools/crash_writer --rounds=25 --seed=11 --slab
echo "ci: slab-recovery gate passed"

# Diagnostics-bundle gate: SIGABRT mid-checkpoint must leave a black-box
# bundle behind whose flight-recorder section shows the in-flight
# checkpoint (DESIGN.md §3i). Same fork harness, same loud SKIP without
# fork.
./build/tools/crash_writer --bundle
echo "ci: diagnostics-bundle gate passed"

# End-to-end benchmark smoke: a short traced ep_hot run and an untraced
# and a traced ep_cold run of e2ebench (BENCHMARK.json). run.py exits 0
# even when its answer gate fails, so the stage reads the result line
# itself and requires "failed": 0. The traced mode replays ExecuteOnWorker
# + MergeFinalize against the same answer check as ClusterEngine::Execute,
# so this also catches that replica drifting from the engine. Checkpointed
# blocks must answer S-AGG, L-AGG and M-AGG from their summaries exactly as
# hot ones do: the traced summarized_share of the three classes must be
# equal on ep_cold and ep_hot, and ep_cold's traced cold_pins of the three
# must be 0 (a covered block folds from its index, without a slab pin; an
# M-AGG rollup does so for every block inside one calendar bucket, which
# is every EP block at MONTH level).
results=()
for run in "--workload ep_hot --trace 1" "--workload ep_cold --trace 0" \
           "--workload ep_cold --trace 1"; do
  # shellcheck disable=SC2086  # $run is a list of arguments.
  result="$(python3 e2ebench/run.py $run --seed 1 --seconds 4 | tail -n 1)"
  if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["failed"] != 0)' \
      "$result"; then
    echo "FAIL: e2ebench $run: $result" >&2
    exit 1
  fi
  results+=("$result")
done
if ! python3 - "${results[0]}" "${results[2]}" <<'PY'
import json, sys
hot, cold = (json.loads(arg)["metrics"] for arg in sys.argv[1:3])
bad = [name for name in ("sagg.storage.summarized_share",
                         "lagg.storage.summarized_share",
                         "magg.storage.summarized_share")
       if cold[name]["value"] != hot[name]["value"]]
for name in bad:
    print("FAIL: e2ebench %s is %s on ep_cold but %s on ep_hot"
          % (name, cold[name]["value"], hot[name]["value"]), file=sys.stderr)
pinned = [name for name in ("sagg.storage.cold_pins",
                            "lagg.storage.cold_pins",
                            "magg.storage.cold_pins")
          if cold[name]["value"] != 0]
for name in pinned:
    print("FAIL: e2ebench %s is %s on ep_cold, not 0"
          % (name, cold[name]["value"]), file=sys.stderr)
sys.exit(1 if bad or pinned else 0)
PY
then
  exit 1
fi
echo "ci: e2ebench smoke passed"

# Tier 2: concurrency subset under ThreadSanitizer.
cmake -B build-tsan -S . -DMODELARDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && ctest -R "ThreadPool|Concurrency|Pipeline|Obs" --output-on-failure -j "$JOBS")

# UBSan tier: the full suite with every UB finding fatal
# (-fno-sanitize-recover=all), covering the bit-packing and model codecs.
cmake -B build-ubsan -S . -DMODELARDB_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS"
(cd build-ubsan && ctest --output-on-failure -j "$JOBS")

# ASan(+LSan) tier: the full suite under AddressSanitizer with leak
# detection. Unlike the thread-safety/tidy/fuzz gates this runs under
# GCC, so heap bugs on the Env/WAL/slab paths are caught on every
# machine, not only where LLVM is installed.
cmake -B build-asan -S . -DMODELARDB_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")
echo "ci: ASan tier passed"

# Static analysis gate 1: Clang thread-safety analysis as build errors.
# Every annotation in util/sync.h (GUARDED_BY/REQUIRES/...) is enforced;
# any locking-discipline violation fails this build.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-threadsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DMODELARDB_THREAD_SAFETY=ON >/dev/null
  cmake --build build-threadsafety -j "$JOBS"
  echo "ci: thread-safety gate passed"
else
  echo "ci: SKIP thread-safety gate (clang++ not on PATH)"
fi

# Static analysis gate 2: clang-tidy (.clang-tidy: bugprone-*,
# concurrency-*, performance-*, unused-result as errors).
if command -v clang-tidy >/dev/null 2>&1; then
  cmake -B build-tidy -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  git ls-files 'src/*.cc' 'tools/*.cc' \
    | xargs -P "$JOBS" -n 1 clang-tidy -p build-tidy --quiet
  echo "ci: clang-tidy gate passed"
else
  echo "ci: SKIP clang-tidy gate (clang-tidy not on PATH)"
fi

# Fuzz smoke: 30 seconds of coverage-guided parser fuzzing from the seed
# corpus; any crash/UB trap fails the stage.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DMODELARDB_FUZZ=ON >/dev/null
  cmake --build build-fuzz -j "$JOBS" --target fuzz_parser fuzz_wal_replay
  ./build-fuzz/fuzz/fuzz_parser -max_total_time=30 -print_final_stats=1 \
      fuzz/corpus
  ./build-fuzz/fuzz/fuzz_wal_replay -max_total_time=30 -print_final_stats=1 \
      fuzz/corpus_wal
  echo "ci: fuzz smoke passed"
else
  echo "ci: SKIP fuzz smoke (clang++ not on PATH)"
fi

echo "ci: all checks passed"

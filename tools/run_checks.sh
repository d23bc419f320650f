#!/usr/bin/env bash
# Correctness gate: builds and tests capefp under each sanitizer preset,
# runs clang-tidy over src/, compiles the tree under Clang's thread-safety
# analysis (plus the negative-compile cases), and runs the domain lint.
# Intended for CI and pre-merge runs.
#
#   tools/run_checks.sh                  # default: asan tsan tidy lint semlint
#   tools/run_checks.sh asan             # just ASan+UBSan build + tests
#   tools/run_checks.sh tsan             # just TSan build + tests
#   tools/run_checks.sh obs              # just the observability tier
#   tools/run_checks.sh tidy             # just clang-tidy
#   tools/run_checks.sh thread-safety    # -Wthread-safety build + compile-fail
#   tools/run_checks.sh lint             # just tools/capefp_lint.py
#   tools/run_checks.sh semlint          # AST/semantic lint (capefp_semlint)
#   tools/run_checks.sh compiledb        # committed compile DB freshness gate
#   tools/run_checks.sh analyze          # Clang Static Analyzer vs baseline
#
# Flags:
#   --require-tools   Tool-dependent stages (tidy, thread-safety, lint,
#                     semlint, compiledb, analyze) FAIL loudly instead of
#                     skipping when their tool (clang-tidy, clang++, python3,
#                     libclang, scan-build) is missing. CI passes this so a
#                     broken tool install can't silently skip a gate; local
#                     runs without it degrade gracefully.
#
# Sanitizer stages configure with CAPEFP_EXTRA_WARNINGS=ON so -Wshadow
# -Wconversion regressions fail the gate.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
REQUIRE_TOOLS=0
STAGES=()
for arg in "$@"; do
  case "${arg}" in
    --require-tools) REQUIRE_TOOLS=1 ;;
    --*)
      echo "unknown flag '${arg}' (expected: --require-tools)" >&2
      exit 2
      ;;
    *) STAGES+=("${arg}") ;;
  esac
done
if [[ ${#STAGES[@]} -eq 0 ]]; then
  STAGES=(asan tsan tidy lint semlint)
fi

# Route compiles through ccache when it is installed (CI caches the ccache
# directory across runs); harmless no-op otherwise.
CCACHE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CCACHE_ARGS=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
               -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# Skip-or-fail for tool-dependent stages: under --require-tools a missing
# tool is a gate failure, otherwise a notice.
missing_tool() {
  local stage="$1" tool="$2"
  if [[ ${REQUIRE_TOOLS} -eq 1 ]]; then
    echo "==> [${stage}] FAILED: ${tool} not installed and --require-tools" \
         "was given" >&2
    return 1
  fi
  echo "==> [${stage}] ${tool} not installed; skipping (install ${tool} or" \
       "pass --require-tools to make this fatal)"
  return 0
}

find_clangxx() {
  local c
  for c in clang++ clang++-21 clang++-20 clang++-19 clang++-18 clang++-17 \
           clang++-16 clang++-15 clang++-14; do
    if command -v "${c}" >/dev/null 2>&1; then
      echo "${c}"
      return 0
    fi
  done
  return 1
}

run_sanitizer_stage() {
  local preset="$1"
  shift
  local ctest_args=("$@")
  echo "==> [${preset}] configure"
  cmake --preset "${preset}" -DCAPEFP_EXTRA_WARNINGS=ON \
        "${CCACHE_ARGS[@]}" >/dev/null
  echo "==> [${preset}] build"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "==> [${preset}] ctest ${ctest_args[*]:-<all>}"
  ctest --preset "${preset}" -j "${JOBS}" "${ctest_args[@]}"
}

run_tidy_stage() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    missing_tool tidy clang-tidy
    return
  fi
  echo "==> [tidy] configure (compile database)"
  cmake --preset tidy >/dev/null
  local db="build-tidy"
  mapfile -t sources < <(find src -name '*.cc' | sort)
  echo "==> [tidy] clang-tidy over ${#sources[@]} files"
  local log
  log="$(mktemp)"
  trap 'rm -f "${log}"' RETURN
  local failed=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${db}" -quiet "${sources[@]}" 2>/dev/null \
      | tee "${log}" || failed=1
  else
    for f in "${sources[@]}"; do
      clang-tidy -p "${db}" --quiet "${f}" 2>/dev/null | tee -a "${log}" \
        || failed=1
    done
  fi
  # Fail on any diagnostic, not just hard errors: the committed .clang-tidy
  # baseline is clean, so every warning here is a new one.
  if grep -qE 'warning:|error:' "${log}"; then
    echo "==> [tidy] FAILED: new clang-tidy diagnostics (see above)"
    return 1
  fi
  if [[ ${failed} -ne 0 ]]; then
    echo "==> [tidy] FAILED: clang-tidy exited non-zero"
    return 1
  fi
  echo "==> [tidy] clean"
}

run_thread_safety_stage() {
  local clangxx
  if ! clangxx="$(find_clangxx)"; then
    missing_tool thread-safety clang++
    return
  fi
  # Full-tree build under -Wthread-safety -Werror=thread-safety: any
  # unguarded access to an annotated member fails compilation. The preset's
  # ctest leg then runs the negative-compile cases (label compile-fail),
  # proving the analysis still *rejects* the seeded violations.
  echo "==> [thread-safety] configure (${clangxx})"
  CXX="${clangxx}" cmake --preset thread-safety >/dev/null
  echo "==> [thread-safety] build (-Werror=thread-safety)"
  cmake --build --preset thread-safety -j "${JOBS}"
  echo "==> [thread-safety] ctest (negative-compile cases)"
  ctest --preset thread-safety
  echo "==> [thread-safety] clean"
}

run_lint_stage() {
  local py
  if command -v python3 >/dev/null 2>&1; then
    py=python3
  elif command -v python >/dev/null 2>&1; then
    py=python
  else
    missing_tool lint python3
    return
  fi
  echo "==> [lint] capefp_lint.py --selftest"
  "${py}" tools/capefp_lint.py --selftest
  echo "==> [lint] capefp_lint.py over the tree"
  "${py}" tools/capefp_lint.py --root "${REPO_ROOT}"
  echo "==> [lint] clean"
}

find_python() {
  if command -v python3 >/dev/null 2>&1; then
    echo python3
  elif command -v python >/dev/null 2>&1; then
    echo python
  else
    return 1
  fi
}

run_semlint_stage() {
  local py
  if ! py="$(find_python)"; then
    missing_tool semlint python3
    return
  fi
  echo "==> [semlint] capefp_semlint.py --selftest"
  "${py}" tools/capefp_semlint.py --selftest
  # Under --require-tools the scan must run on the real AST: libclang +
  # the committed compile DB. Local runs fall back to the bundled text
  # frontend (same rules, token-level facts).
  local frontend=auto
  if [[ ${REQUIRE_TOOLS} -eq 1 ]]; then
    frontend=clang
  fi
  echo "==> [semlint] capefp_semlint.py over the tree (frontend ${frontend})"
  "${py}" tools/capefp_semlint.py --root "${REPO_ROOT}" \
      --frontend "${frontend}"
  echo "==> [semlint] clean"
}

run_compiledb_stage() {
  local py
  if ! py="$(find_python)"; then
    missing_tool compiledb python3
    return
  fi
  echo "==> [compiledb] committed compile_commands.json freshness"
  "${py}" tools/check_compile_db.py --check \
      --build-dir "${REPO_ROOT}/build-compiledb"
  echo "==> [compiledb] fresh"
}

run_analyze_stage() {
  local py
  if ! py="$(find_python)"; then
    missing_tool analyze python3
    return
  fi
  if ! command -v scan-build >/dev/null 2>&1; then
    missing_tool analyze scan-build
    return
  fi
  echo "==> [analyze] configure (analyze preset)"
  cmake --preset analyze "${CCACHE_ARGS[@]}" >/dev/null
  local plist_dir
  plist_dir="$(mktemp -d)"
  trap 'rm -rf "${plist_dir}"' RETURN
  echo "==> [analyze] scan-build over the tree"
  # scan-build exits 0 even when it reports bugs; the committed-baseline
  # comparison below is the actual gate.
  scan-build -plist -o "${plist_dir}" --exclude tests --exclude bench \
      cmake --build --preset analyze -j "${JOBS}"
  echo "==> [analyze] compare against tools/analyze_baseline.json"
  "${py}" tools/check_analyze.py --plist-dir "${plist_dir}"
  echo "==> [analyze] clean"
}

for stage in "${STAGES[@]}"; do
  case "${stage}" in
    asan)
      # Full suite, including the randomized differential audit.
      run_sanitizer_stage asan-ubsan
      ;;
    tsan)
      # Unit + integration + obs covers the genuinely multi-threaded
      # pieces — parallel_engine_test drives RunBatch workers over the
      # shared edge-TTF memo / buffer pool / pager,
      # concurrency_regression_test races memo inserts and metrics
      # snapshot callbacks against buffer-pool traffic, obs_test hammers
      # the metrics registry from four writer threads under a concurrent
      # snapshotter, the flightrec label races the flight recorder's
      # per-thread rings against a concurrent journal drainer, and the
      # bench-smoke label runs bench_throughput's tiny batched workload —
      # without re-running the (slow, single-threaded) audit under TSan's
      # ~10x overhead.
      run_sanitizer_stage tsan -L 'unit|integration|bench-smoke|obs|flightrec'
      ;;
    obs)
      # The observability tier on its own: metrics/trace unit tests, the
      # trace-vs-registry reconciliation test, and the flight-recorder
      # ring/journal/slow-capture tests, under both sanitizer presets
      # (the TSan leg is what certifies the lock-cheap counters and the
      # SPSC ring's publication protocol).
      run_sanitizer_stage asan-ubsan -L 'obs|flightrec'
      run_sanitizer_stage tsan -L 'obs|flightrec'
      ;;
    tidy)
      run_tidy_stage
      ;;
    thread-safety)
      run_thread_safety_stage
      ;;
    lint)
      run_lint_stage
      ;;
    semlint)
      run_semlint_stage
      ;;
    compiledb)
      run_compiledb_stage
      ;;
    analyze)
      run_analyze_stage
      ;;
    *)
      echo "unknown stage '${stage}' (expected: asan, tsan, obs, tidy," \
           "thread-safety, lint, semlint, compiledb, analyze)" >&2
      exit 2
      ;;
  esac
done

echo "==> all requested checks passed"

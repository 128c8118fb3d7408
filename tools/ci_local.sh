#!/usr/bin/env bash
# ci_local.sh - run the GitHub CI pipeline stages on a developer machine.
#
# Usage: tools/ci_local.sh [STAGE...]
#   Stages: tier1 tsan asan robustness artifacts observability simd
#           certificates perf
#   (default: all nine, in order)
#
# Environment:
#   BUILD_TYPE   CMake build type for tier1/artifacts (default Release)
#   CC / CXX     compiler pair (default: whatever CMake picks)
#   JOBS         parallel build jobs (default: nproc)
#
# Every .github/workflows/ci.yml job runs one of these stages; the tier-1
# matrix runs the tier1 stage once per compiler and build type.
# ccache is used when installed and skipped otherwise, so the script runs
# unchanged on boxes without it.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"
BUILD_TYPE="${BUILD_TYPE:-Release}"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] && \
  STAGES=(tier1 tsan asan robustness artifacts observability simd
          certificates perf)

CMAKE_COMMON=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_COMMON+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  echo "== ccache enabled ($(ccache --version | head -n1)) =="
else
  echo "== ccache not installed; building without it =="
fi

# gtest suites exercising the code each sanitizer targets. These are the
# only definitions: the ci.yml tsan, asan and robustness jobs run these
# stages. HeapPolicy.* skips under both sanitizers (their allocators
# ignore mallopt); it runs so the skip stays visible. Verifier observers
# (profiles, certificate builders, the deadline/recorder observer) run on
# pool workers inside scheduled jobs, so their suites run under TSan too.
TSAN_FILTER='ParallelFor.*:TiledGemm.*:Determinism.*:HeapPolicy.*'
TSAN_FILTER+=':Observer.*:SchedulerObservability.*:CertificateScheduler.*'
ASAN_FILTER='Zonotope.*:ZonotopeBlocks.*:Elementwise.*:DotProduct.*'
ASAN_FILTER+=':Softmax.*:Reduction.*'
ASAN_FILTER+=':Norms/NormParamTest.*:Verify.*:Norms/VerifyNormTest.*'
ASAN_FILTER+=':RadiusSearch*:FeedForwardVerifier.*:Scheduler.*'
ASAN_FILTER+=':HeapPolicy.*:Observer.*'
ROBUSTNESS_FILTER='Fault.*:Serialize.*:Io.*:Error.*:Json.*'
ROBUSTNESS_FILTER+=':Scheduler.Recover*:Scheduler.Resume*:Scheduler.Fsync*'
ROBUSTNESS_FILTER+=':Scheduler.Transient*:Scheduler.Retry*'
ROBUSTNESS_FILTER+=':Scheduler.Permanent*:Scheduler.OutOfMemory*'
ROBUSTNESS_FILTER+=':Scheduler.RecordCrc*:HeapPolicy.*'
SIMD_FILTER='KernelDispatch.*:KernelEquivalence.*:F32Soundness.*'
SIMD_FILTER+=':TiledGemm.*:Determinism.*:Refinement.*'

configure() { # dir, extra cmake args...
  local Dir="$1"; shift
  cmake -S "$ROOT" -B "$Dir" -DCMAKE_BUILD_TYPE="$BUILD_TYPE" \
        "${CMAKE_COMMON[@]}" "$@"
}

stage_tier1() {
  echo "== tier1: full build + ctest ($BUILD_TYPE) =="
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS"
  ctest --test-dir "$ROOT/build-ci/tier1" --output-on-failure -j "$JOBS"
}

stage_tsan() {
  echo "== tsan: parallel layer under ThreadSanitizer =="
  configure "$ROOT/build-ci/tsan" -DDEEPT_SANITIZE=thread
  cmake --build "$ROOT/build-ci/tsan" -j "$JOBS" \
        --target deept_tests deept_cli deept_json_validate
  "$ROOT/build-ci/tsan/tests/deept_tests" --gtest_filter="$TSAN_FILTER"
  ctest --test-dir "$ROOT/build-ci/tsan" -R parallel_smoke \
        --output-on-failure
}

stage_asan() {
  echo "== asan: zonotope/verifier layers under AddressSanitizer =="
  configure "$ROOT/build-ci/asan" -DDEEPT_SANITIZE=address
  cmake --build "$ROOT/build-ci/asan" -j "$JOBS" --target deept_tests
  "$ROOT/build-ci/asan/tests/deept_tests" --gtest_filter="$ASAN_FILTER"
}

stage_robustness() {
  echo "== robustness: fault injection + corrupt corpus under ASan =="
  configure "$ROOT/build-ci/asan" -DDEEPT_SANITIZE=address
  cmake --build "$ROOT/build-ci/asan" -j "$JOBS" \
        --target deept_tests deept_cli deept_json_validate
  "$ROOT/build-ci/asan/tests/deept_tests" \
      --gtest_filter="$ROBUSTNESS_FILTER"
  ctest --test-dir "$ROOT/build-ci/asan" -R robustness_smoke \
        --output-on-failure
}

stage_artifacts() {
  echo "== artifacts: scheduler-driven bench + JSONL validation =="
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS" \
        --target table1_sst_fast_vs_baf deept_cli deept_json_validate
  local Out="$ROOT/build-ci/artifacts"
  mkdir -p "$Out"
  # The tracked model cache makes this a pure-certification run (no
  # training in CI).
  ( cd "$Out" && DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
      "$ROOT/build-ci/tier1/bench/table1_sst_fast_vs_baf" )
  "$ROOT/build-ci/tier1/tools/deept_json_validate" --require-key bench \
      "$Out"/BENCH_*.json

  cat > "$Out/jobs.json" <<'EOF'
{"jobs":[
  {"id":"fixed","seed":3,"word":0,"norm":"l2","eps":0.02,"method":"fast"},
  {"id":"search","seed":4,"word":0,"norm":"l1","eps":0.05,"search":true,
   "method":"fast"},
  {"id":"expire","seed":3,"word":0,"method":"precise","deadline_ms":0},
  {"id":"badword","seed":5,"word":99,"method":"fast"}
]}
EOF
  rm -f "$Out/results.jsonl"
  DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
    "$ROOT/build-ci/tier1/tools/deept_cli" batch \
      --model "$ROOT/deept-model-cache/sst_m3.dptm" \
      --jobs "$Out/jobs.json" --out "$Out/results.jsonl"
  DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
    "$ROOT/build-ci/tier1/tools/deept_cli" batch \
      --model "$ROOT/deept-model-cache/sst_m3.dptm" \
      --jobs "$Out/jobs.json" --out "$Out/results.jsonl" --resume
  "$ROOT/build-ci/tier1/tools/deept_json_validate" --jsonl \
      --require-key key "$Out/results.jsonl"
  echo "artifacts in $Out"
}

stage_observability() {
  echo "== observability: profiles, flight recorder, stats JSON =="
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS" \
        --target deept_cli deept_json_validate
  local Cli="$ROOT/build-ci/tier1/tools/deept_cli"
  local Validate="$ROOT/build-ci/tier1/tools/deept_json_validate"
  local Out="$ROOT/build-ci/observability"
  mkdir -p "$Out"

  # A falsified fixed-eps certification (eps 5 is far past the radius of
  # the cached model) must stream a precision profile whose attribution
  # decomposes the margin width.
  rm -f "$Out/profiles.jsonl"
  DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
    "$Cli" certify --model "$ROOT/deept-model-cache/sst_m12.dptm" \
      --sentences 1 --eps 5 --profile-out "$Out/profiles.jsonl" \
      --stats-json "$Out/stats.json"
  "$Validate" --jsonl --schema profile "$Out/profiles.jsonl"
  # The validator also reads stdin ("-"), the shape a scrape pipe uses.
  "$Validate" --jsonl --schema profile - < "$Out/profiles.jsonl"
  grep -q '"falsified":true' "$Out/profiles.jsonl" || {
    echo "observability: expected a falsified profile at eps 5" >&2
    exit 1
  }

  # A batch with one clean job and one forced deadline expiry: the
  # expired job must leave a schema-valid flight-recorder artifact, the
  # clean one must not.
  cat > "$Out/jobs.json" <<'EOF'
{"jobs":[
  {"id":"ok","seed":3,"word":0,"norm":"l2","eps":0.02,"method":"fast"},
  {"id":"expire","seed":3,"word":0,"method":"precise","deadline_ms":0}
]}
EOF
  rm -rf "$Out/recorder" "$Out/results.jsonl" "$Out/batch_profiles.jsonl"
  mkdir -p "$Out/recorder"
  DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
    "$Cli" batch --model "$ROOT/deept-model-cache/sst_m3.dptm" \
      --jobs "$Out/jobs.json" --out "$Out/results.jsonl" \
      --profile-out "$Out/batch_profiles.jsonl" \
      --recorder-dir "$Out/recorder"
  "$Validate" --schema recorder "$Out/recorder/recorder-expire.json"
  [ ! -e "$Out/recorder/recorder-ok.json" ] || {
    echo "observability: clean job must not leave a recorder dump" >&2
    exit 1
  }
  "$Validate" --jsonl --schema profile "$Out/batch_profiles.jsonl"
  "$Validate" --jsonl --require-key key "$Out/results.jsonl"

  # The saved stats document is the metrics export: valid JSON with the
  # registry under "metrics", carrying the profile instruments.
  "$Validate" --require-key metrics "$Out/stats.json"
  grep -q '"profile.queries":' "$Out/stats.json"
  grep -q '"profile.margin_width":{"count":' "$Out/stats.json"
  echo "observability artifacts in $Out"
}

stage_simd() {
  echo "== simd: kernel equivalence across ISAs + sound f32 mode =="
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS" \
        --target deept_tests table1_sst_fast_vs_baf
  # Linkage guard: the SIMD tables share one kernel source compiled with
  # different -m flags, so each object may export nothing but its table.
  # Any other global or weak symbol (an ODR-merged inline or template
  # kernel included) could let the linker bind another table, or scalar
  # code, to instructions the CPU lacks (see tensor/KernelsSimd.inc).
  local Table Obj Extra
  for Table in Avx2 Avx512; do
    Obj="$ROOT/build-ci/tier1/src/CMakeFiles/deept.dir/tensor/Kernels$Table.cpp.o"
    if [ ! -f "$Obj" ]; then
      if grep -q "^DEEPT_COMPILER_HAS_${Table^^}:INTERNAL=1" \
           "$ROOT/build-ci/tier1/CMakeCache.txt"; then
        echo "simd: $Obj missing although the compiler supports it" >&2
        exit 1
      fi
      continue
    fi
    Extra=$(nm --defined-only "$Obj" | awk '$2 ~ /^[A-Zuvw]$/ {print $3}' |
            c++filt | grep -vx "deept::tensor::detail::${Table}Kernels" || true)
    if [ -n "$Extra" ]; then
      echo "simd: Kernels$Table.cpp.o exports symbols besides its table:" >&2
      echo "$Extra" >&2
      exit 1
    fi
  done
  # ISAs to drill: the scalar table, AVX2 when the CPU has it, and the
  # widest table the host supports (DEEPT_ISA=native resolves to it).
  local Isas=(scalar) Isa
  grep -qw avx2 /proc/cpuinfo && grep -qw fma /proc/cpuinfo && Isas+=(avx2)
  Isas+=(native)
  # The equivalence/dispatch suite under each of them.
  for Isa in "${Isas[@]}"; do
    DEEPT_ISA=$Isa "$ROOT/build-ci/tier1/tests/deept_tests" \
        --gtest_filter="$SIMD_FILTER"
  done
  # The f32 soundness oracle under ASan: the narrowed accumulators and
  # their upward lifts must be memory-clean too.
  configure "$ROOT/build-ci/asan" -DDEEPT_SANITIZE=address
  cmake --build "$ROOT/build-ci/asan" -j "$JOBS" --target deept_tests
  "$ROOT/build-ci/asan/tests/deept_tests" --gtest_filter='F32Soundness.*'
  # The whole-plane fused coefficient oracle under ASan, dispatched from
  # each drilled table: the packed shared-panel scratch, the hoisted zero
  # flags and the paired-row loops must be memory-clean and 0-ULP equal to
  # the per-plane references.
  local FusedFilter='KernelEquivalence.DotPlanesFused*'
  FusedFilter+=':KernelEquivalence.DotTransposedB*'
  FusedFilter+=':KernelEquivalence.DotRows*:KernelEquivalence.RowScale*'
  for Isa in "${Isas[@]}"; do
    DEEPT_ISA=$Isa "$ROOT/build-ci/asan/tests/deept_tests" \
        --gtest_filter="$FusedFilter"
  done
  # Bench artifacts must record the ISA they ran under, so cross-ISA
  # comparisons fail loudly in bench_compare instead of lying quietly.
  local Out="$ROOT/build-ci/simd"
  mkdir -p "$Out"
  ( cd "$Out" && DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
      "$ROOT/build-ci/tier1/bench/table1_sst_fast_vs_baf" )
  grep -q '"isa":"' "$Out/BENCH_table1_sst_fast_vs_baf.json" || {
    echo "simd: bench artifact missing its isa tag" >&2
    exit 1
  }
  echo "simd artifacts in $Out"
}

stage_certificates() {
  echo "== certificates: replayable proofs + independent checker oracle =="
  # The producer (deept_cli) comes from the tier-1 build; the checker
  # (deept_check) is built under ASan so replaying every artifact doubles
  # as a memory-safety drill on the independent interval core.
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS" \
        --target deept_cli deept_json_validate
  configure "$ROOT/build-ci/asan" -DDEEPT_SANITIZE=address
  cmake --build "$ROOT/build-ci/asan" -j "$JOBS" --target deept_check
  local Cli="$ROOT/build-ci/tier1/tools/deept_cli"
  local Check="$ROOT/build-ci/asan/tools/deept_check"
  local Validate="$ROOT/build-ci/tier1/tools/deept_json_validate"
  local Out="$ROOT/build-ci/certificates"
  mkdir -p "$Out"

  # Certify the cached 12-layer model at 1 and 8 threads under the scalar
  # kernel table and the widest one the host supports; every emitted
  # certificate must pass schema validation and replay through the
  # checker, and every query must actually certify (the stage is a
  # soundness oracle, not just a format check).
  local Isa Threads
  for Isa in scalar native; do
    for Threads in 1 8; do
      rm -f "$Out/certs-$Isa-t$Threads.jsonl"
      DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" DEEPT_ISA="$Isa" \
        "$Cli" certify --model "$ROOT/deept-model-cache/sst_m12.dptm" \
          --sentences 2 --eps 0.01 --threads "$Threads" \
          --cert-out "$Out/certs-$Isa-t$Threads.jsonl"
      "$Validate" --jsonl --schema certificate \
          "$Out/certs-$Isa-t$Threads.jsonl"
      "$Check" "$Out/certs-$Isa-t$Threads.jsonl"
      if grep -q '"certified":false' "$Out/certs-$Isa-t$Threads.jsonl"; then
        echo "certificates: uncertified query in certs-$Isa-t$Threads" >&2
        exit 1
      fi
    done
    # Within one ISA the payload -- and hence its CRC -- must be
    # bit-identical at any thread count. Only the envelope's "threads"
    # field may differ, so the comparison reads the crc32 stream, not the
    # whole file.
    grep -o '"crc32":[0-9]*' "$Out/certs-$Isa-t1.jsonl" \
        > "$Out/crc-$Isa-t1.txt"
    grep -o '"crc32":[0-9]*' "$Out/certs-$Isa-t8.jsonl" \
        > "$Out/crc-$Isa-t8.txt"
    cmp "$Out/crc-$Isa-t1.txt" "$Out/crc-$Isa-t8.txt" || {
      echo "certificates: payload CRCs differ across thread counts" \
           "under DEEPT_ISA=$Isa" >&2
      exit 1
    }
  done
  # Across ISAs the raw payloads may differ (lane-ordered reductions) but
  # the checker's semantic digest -- bookkeeping, shapes, verdicts --
  # must not.
  "$Check" --digest "$Out/certs-scalar-t1.jsonl" > "$Out/digest-scalar.txt"
  "$Check" --digest "$Out/certs-native-t1.jsonl" > "$Out/digest-native.txt"
  diff -u "$Out/digest-scalar.txt" "$Out/digest-native.txt" || {
    echo "certificates: semantic digests differ across ISAs" >&2
    exit 1
  }
  # One l-infinity run for norm coverage of the margin replay (q = 1).
  rm -f "$Out/certs-linf.jsonl"
  DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
    "$Cli" certify --model "$ROOT/deept-model-cache/sst_m12.dptm" \
      --sentences 1 --eps 0.002 --norm linf --threads 2 \
      --cert-out "$Out/certs-linf.jsonl"
  "$Check" "$Out/certs-linf.jsonl"
  echo "certificate artifacts in $Out"
}

stage_perf() {
  echo "== perf: bench regression gate vs bench/baselines (scalar ISA) =="
  for Baseline in BENCH_micro_ops.json BENCH_table1_sst_fast_vs_baf.json; do
    [ -f "$ROOT/bench/baselines/$Baseline" ] || {
      echo "perf: missing baseline bench/baselines/$Baseline;" \
           "regenerate it per bench/baselines/README.md" >&2
      exit 1
    }
  done
  configure "$ROOT/build-ci/tier1"
  cmake --build "$ROOT/build-ci/tier1" -j "$JOBS" \
        --target micro_ops table1_sst_fast_vs_baf
  local Out="$ROOT/build-ci/perf"
  mkdir -p "$Out"
  # The committed baselines were recorded under the scalar kernel table;
  # pinning DEEPT_ISA keeps the comparison apples-to-apples on any runner
  # regardless of its vector width (see bench/baselines/README.md).
  DEEPT_ISA=scalar "$ROOT/build-ci/tier1/bench/micro_ops" \
      --benchmark_repetitions=3 \
      --benchmark_out="$Out/BENCH_micro_ops.json" \
      --benchmark_out_format=json
  ( cd "$Out" && DEEPT_MODEL_CACHE="$ROOT/deept-model-cache" \
      DEEPT_ISA=scalar \
      "$ROOT/build-ci/tier1/bench/table1_sst_fast_vs_baf" )
  # Sub-microsecond timers (micro_ops reports ns) and sub-half-second
  # table cells are noise-dominated; the floors exclude them.
  python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/bench/baselines/BENCH_micro_ops.json" \
      "$Out/BENCH_micro_ops.json" --min-time 1000
  python3 "$ROOT/tools/bench_compare.py" \
      "$ROOT/bench/baselines/BENCH_table1_sst_fast_vs_baf.json" \
      "$Out/BENCH_table1_sst_fast_vs_baf.json" --min-time 0.5
}

for Stage in "${STAGES[@]}"; do
  case "$Stage" in
    tier1) stage_tier1 ;;
    tsan) stage_tsan ;;
    asan) stage_asan ;;
    robustness) stage_robustness ;;
    artifacts) stage_artifacts ;;
    observability) stage_observability ;;
    simd) stage_simd ;;
    certificates) stage_certificates ;;
    perf) stage_perf ;;
    *) echo "unknown stage '$Stage'" \
            "(want tier1 tsan asan robustness artifacts observability" \
            "simd certificates perf)" >&2
       exit 2 ;;
  esac
done
echo "== ci_local: all stages passed =="

# SmokeFault.cmake - robustness drill of the fault-injection harness.
#
# Trains a tiny model, then drives deept_cli through the DEEPT_FAULTS
# environment variable: an injected short read must fail the model load
# with exit class 3, a corrupted model file must be rejected the same
# way, an injected NaN in a propagation must surface as a structured
# unsound_abstraction batch record (never `certified`),
# deept_json_validate must reject a store containing a bare non-finite
# token, and a --corpus that does not match the model's vocabulary, a
# misspelled flag, an unknown command, a bad flag value or a bad jobs-file
# value must be a bad argument (exit class 2). The byte-precise
# corruption corpus lives in tests/serialize_test.cpp; this drill checks
# the CLI surface. Run via:
#   cmake -DDEEPT_CLI=... -DJSON_VALIDATE=... -DWORK_DIR=... -P SmokeFault.cmake

include("${CMAKE_CURRENT_LIST_DIR}/SmokeCommon.cmake")

set(Model "${WORK_DIR}/fault.dptm")
set(Jobs "${WORK_DIR}/jobs.json")
set(Results "${WORK_DIR}/results.jsonl")

smoke_train_model("${Model}")

# Drill 1: an injected short read fails the load with exit class 3
# (model/store load failure) and a typed error -- not a crash, not a 0.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env DEEPT_FAULTS=serialize.read:1:short
          "${DEEPT_CLI}" info --model "${Model}"
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 3)
  message(FATAL_ERROR
      "injected short read: want rc=3, got rc=${Rc}: ${ErrOut}")
endif()
if(NOT ErrOut MATCHES "model_corrupt")
  message(FATAL_ERROR "missing typed model_corrupt error, got: ${ErrOut}")
endif()

# Disarmed, the same model loads fine.
execute_process(
  COMMAND "${DEEPT_CLI}" info --model "${Model}"
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "clean info failed after the drill (rc=${Rc})")
endif()

# Drill 2: a genuinely corrupted model file is rejected with the same
# exit class, and a missing one with model_not_found.
set(Corrupt "${WORK_DIR}/corrupt.dptm")
file(WRITE "${Corrupt}" "this is not a model file at all")
execute_process(
  COMMAND "${DEEPT_CLI}" info --model "${Corrupt}"
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 3)
  message(FATAL_ERROR "corrupt model: want rc=3, got rc=${Rc}: ${ErrOut}")
endif()
if(NOT ErrOut MATCHES "model_corrupt")
  message(FATAL_ERROR "missing model_corrupt on garbage file: ${ErrOut}")
endif()
execute_process(
  COMMAND "${DEEPT_CLI}" info --model "${WORK_DIR}/does_not_exist.dptm"
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 3)
  message(FATAL_ERROR "missing model: want rc=3, got rc=${Rc}")
endif()
if(NOT ErrOut MATCHES "model_not_found")
  message(FATAL_ERROR "missing model_not_found error, got: ${ErrOut}")
endif()

# Drill 3: an injected NaN in the propagation surfaces as a structured
# unsound_abstraction record. The batch itself completes (rc=0) with the
# job tagged error, and the poisoned job is never certified.
file(WRITE "${Jobs}" [=[
{"jobs":[
  {"id":"poisoned","seed":3,"word":0,"norm":"l2","eps":0.02,"method":"fast"}
]}
]=])
file(REMOVE "${Results}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env DEEPT_FAULTS=verify.propagate:1:nan
          "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
          --out "${Results}"
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
      "batch under injected NaN must complete (rc=${Rc}): ${ErrOut}")
endif()
if(NOT Out MATCHES "1 jobs \\(0 ok, 0 degraded, 1 error, 0 skipped\\), 0 certified")
  message(FATAL_ERROR "unexpected poisoned-batch summary: ${Out}")
endif()
file(READ "${Results}" StoreText)
if(NOT StoreText MATCHES "\"error_code\":\"unsound_abstraction\"")
  message(FATAL_ERROR "store lacks unsound_abstraction record: ${StoreText}")
endif()
if(StoreText MATCHES "\"certified\":true")
  message(FATAL_ERROR
      "a poisoned propagation was certified -- soundness guard failed: "
      "${StoreText}")
endif()
execute_process(
  COMMAND "${JSON_VALIDATE}" --jsonl --require-key key "${Results}"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "poisoned store is not valid JSONL (rc=${Rc})")
endif()

# Drill 4: the store stays machine-readable even for non-finite margins
# (they serialize as null), and a writer that leaked a bare non-finite
# token would be caught by the validator.
file(WRITE "${WORK_DIR}/bad_store.jsonl" "{\"key\":\"k\",\"margin\":nan}\n")
execute_process(
  COMMAND "${JSON_VALIDATE}" --jsonl --require-key key
          "${WORK_DIR}/bad_store.jsonl"
  RESULT_VARIABLE Rc OUTPUT_QUIET ERROR_QUIET)
if(Rc EQUAL 0)
  message(FATAL_ERROR "json_validate accepted a bare nan token")
endif()

# Drill 5: a malformed DEEPT_FAULTS spec is ignored with a warning -- an
# operator typo must never change program behavior.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env DEEPT_FAULTS=serialize.read:1:bogus
          "${DEEPT_CLI}" info --model "${Model}"
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR
      "malformed DEEPT_FAULTS changed behavior (rc=${Rc}): ${ErrOut}")
endif()
if(NOT ErrOut MATCHES "ignoring DEEPT_FAULTS")
  message(FATAL_ERROR "missing malformed-spec warning, got: ${ErrOut}")
endif()

# Drill 6: a --corpus whose vocabulary is not the model's is a typed bad
# argument (exit class 2) before any propagation: its token ids would
# index past the model's embedding table.
execute_process(
  COMMAND "${DEEPT_CLI}" certify --model "${Model}" --corpus yelp
          --sentences 1 --eps 0.01
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR
      "mismatched --corpus: want rc=2, got rc=${Rc}: ${ErrOut}")
endif()
if(NOT ErrOut MATCHES "bad_argument")
  message(FATAL_ERROR "missing typed bad_argument error, got: ${ErrOut}")
endif()

# Drill 7: a misspelled flag is a typed bad argument naming the flag, not
# a silently ignored option that leaves the batch running on defaults,
# and a command that does not exist is rejected the same way.
execute_process(
  COMMAND "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
          --out "${Results}" --max-retires 3
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "misspelled flag: want rc=2, got rc=${Rc}: ${ErrOut}")
endif()
if(NOT ErrOut MATCHES "bad_argument.*--max-retires")
  message(FATAL_ERROR "missing typed bad_argument naming the flag: ${ErrOut}")
endif()
execute_process(
  COMMAND "${DEEPT_CLI}" work --model "${Model}" --jobs "${Jobs}"
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(NOT Rc EQUAL 2)
  message(FATAL_ERROR "unknown command: want rc=2, got rc=${Rc}: ${ErrOut}")
endif()

# Drill 8: flag values are parsed strictly and checked before any work.
# Each input below used to exit 0 having done nothing useful, crash
# (SIGFPE, assert), or loop forever; each must now be a typed bad
# argument (exit class 2) within the timeout. The last three cases are
# the flags of removed features -- the f32 precision mode, batch
# retry-with-backoff and the per-job event-log directory: a script that
# still passes one must fail, not silently run without it.
set(BadValueCases
    "batch|--model|${Model}|--jobs|${Jobs}|--out|${Results}|--cert-dir"
    "certify|--model|${Model}|--sentences|abc"
    "train|--out|${WORK_DIR}/bad.dptm|--heads|0"
    "train|--out|${WORK_DIR}/bad.dptm|--heads|5"
    "train|--out|${WORK_DIR}/bad.dptm|--steps|-1"
    "certify|--model|${Model}|--corpus|bogus"
    "certify|--model|${Model}|--word|20"
    "attack|--model|${Model}|--word|20"
    "certify|--model|${Model}|--norm|l3|--verifier|bogus"
    "certify|--model|${Model}|--verifier|bogus"
    "attack|--model|${Model}|--norm|l3"
    "certify|--model|${Model}|--precision|f32"
    "batch|--model|${Model}|--jobs|${Jobs}|--out|${Results}|--max-retries|2"
    "batch|--model|${Model}|--jobs|${Jobs}|--out|${Results}|--recorder-dir|d")
foreach(Case IN LISTS BadValueCases)
  string(REPLACE "|" ";" CaseArgs "${Case}")
  execute_process(
    COMMAND "${DEEPT_CLI}" ${CaseArgs}
    TIMEOUT 10
    RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
  if(NOT Rc EQUAL 2)
    message(FATAL_ERROR "bad flag value (${Case}): want rc=2, got rc=${Rc}")
  endif()
  if(NOT ErrOut MATCHES "bad_argument")
    message(FATAL_ERROR
        "bad flag value (${Case}): missing typed bad_argument: ${ErrOut}")
  endif()
endforeach()

# Drill 9: jobs-file values that used to trip the radius search's range
# assert (abort, losing every later job), run an infinite radius, or
# leave a job skipped unrun under a repeated id are rejected before any
# work: exit class 2 with a message naming the field.
foreach(Case IN ITEMS
    [=[eps|{"jobs":[{"seed":3,"eps":100,"search":true}]}]=]
    [=[eps|{"jobs":[{"seed":3,"eps":1e-12,"search":true}]}]=]
    [=[eps|{"jobs":[{"seed":3,"eps":1e999}]}]=]
    [=[id|{"jobs":[{"id":"a","seed":3},{"id":"a","seed":4}]}]=])
  string(FIND "${Case}" "|" Bar)
  string(SUBSTRING "${Case}" 0 ${Bar} Field)
  math(EXPR Start "${Bar} + 1")
  string(SUBSTRING "${Case}" ${Start} -1 Doc)
  file(WRITE "${WORK_DIR}/bad_jobs.json" "${Doc}")
  execute_process(
    COMMAND "${DEEPT_CLI}" batch --model "${Model}"
            --jobs "${WORK_DIR}/bad_jobs.json" --out "${Results}"
    TIMEOUT 10
    RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
  if(NOT Rc EQUAL 2 OR NOT ErrOut MATCHES "\"${Field}\"")
    message(FATAL_ERROR
        "bad jobs file (${Doc}): want rc=2 naming \"${Field}\", "
        "got rc=${Rc}: ${ErrOut}")
  endif()
endforeach()

message(STATUS "SmokeFault: all robustness drills passed")

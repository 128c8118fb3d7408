# SmokeTrace.cmake - end-to-end smoke test of the observability flags.
#
# Trains a tiny model with deept_cli, certifies one sentence with
# --trace-out and --stats-json, and validates both artifacts with
# deept_json_validate. Run via:
#   cmake -DDEEPT_CLI=... -DJSON_VALIDATE=... -DWORK_DIR=... -P SmokeTrace.cmake
#
# Pass -DTHREADS=N to run the certify step with --threads N (the
# parallel_smoke test drives the thread pool through the same harness).

include("${CMAKE_CURRENT_LIST_DIR}/SmokeCommon.cmake")

set(ThreadFlags)
if(DEFINED THREADS)
  set(ThreadFlags --threads "${THREADS}")
endif()

set(Model "${WORK_DIR}/smoke.dptm")
set(TraceJson "${WORK_DIR}/smoke.trace.json")
set(StatsJson "${WORK_DIR}/smoke.stats.json")

smoke_train_model("${Model}")

execute_process(
  COMMAND "${DEEPT_CLI}" certify --model "${Model}" --sentences 1
          --trace-out "${TraceJson}" --stats-json "${StatsJson}"
          ${ThreadFlags}
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "deept_cli certify failed (rc=${Rc})")
endif()

execute_process(
  COMMAND "${JSON_VALIDATE}" --require-key traceEvents "${TraceJson}"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "trace JSON invalid (rc=${Rc})")
endif()

execute_process(
  COMMAND "${JSON_VALIDATE}" --require-key metrics "${StatsJson}"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "stats JSON invalid (rc=${Rc})")
endif()

message(STATUS "observability smoke test passed")

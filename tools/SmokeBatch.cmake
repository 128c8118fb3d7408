# SmokeBatch.cmake - end-to-end smoke test of the batch scheduler.
#
# Trains a tiny model, runs a four-job batch (a fixed-eps job, a radius
# search, a forced deadline expiry that must degrade, and a bad word
# position that must error), validates the JSONL result store, then
# re-runs with --resume and checks every job is skipped. A five-job batch
# under an injected transient fault must succeed through --max-retries,
# and malformed integer flags must be rejected. Run via:
#   cmake -DDEEPT_CLI=... -DJSON_VALIDATE=... -DWORK_DIR=... -P SmokeBatch.cmake

include("${CMAKE_CURRENT_LIST_DIR}/SmokeCommon.cmake")

set(Model "${WORK_DIR}/batch.dptm")
set(Jobs "${WORK_DIR}/jobs.json")
set(Results "${WORK_DIR}/results.jsonl")
file(REMOVE "${Results}")

smoke_train_model("${Model}")

file(WRITE "${Jobs}" [=[
{"jobs":[
  {"id":"fixed","seed":3,"word":0,"norm":"l2","eps":0.02,"method":"fast"},
  {"id":"search","seed":4,"word":0,"norm":"l1","eps":0.05,"search":true,
   "method":"fast"},
  {"id":"expire","seed":3,"word":0,"method":"precise","deadline_ms":0},
  {"id":"badword","seed":5,"word":99,"method":"fast"}
]}
]=])

execute_process(
  COMMAND "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
          --out "${Results}"
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "deept_cli batch failed (rc=${Rc}): ${ErrOut}")
endif()
if(NOT Out MATCHES "4 jobs \\(2 ok, 1 degraded, 1 error, 0 skipped\\)")
  message(FATAL_ERROR "unexpected batch summary: ${Out}")
endif()

execute_process(
  COMMAND "${JSON_VALIDATE}" --jsonl --require-key key "${Results}"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "result store JSONL invalid (rc=${Rc})")
endif()

# Resume: every completed key (including the degraded and errored jobs)
# is already in the store, so nothing re-executes.
execute_process(
  COMMAND "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
          --out "${Results}" --resume
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "deept_cli batch --resume failed (rc=${Rc}): ${ErrOut}")
endif()
if(NOT Out MATCHES "4 jobs \\(0 ok, 0 degraded, 0 error, 4 skipped\\)")
  message(FATAL_ERROR "resume did not skip completed jobs: ${Out}")
endif()

# Transient retry: the first job attempt hits an injected fault and is
# retried (deterministic fixed-eps jobs, no deadlines).
set(RetryJobs "${WORK_DIR}/retry_jobs.json")
set(Retried "${WORK_DIR}/retried.jsonl")
file(REMOVE "${Retried}")
file(WRITE "${RetryJobs}" [=[
{"jobs":[
  {"id":"a","seed":3,"word":0,"norm":"l2","eps":0.02,"method":"fast"},
  {"id":"b","seed":4,"word":0,"norm":"l2","eps":0.05,"method":"fast"},
  {"id":"c","seed":5,"word":0,"norm":"linf","eps":0.01,"method":"fast"},
  {"id":"d","seed":3,"word":0,"norm":"l2","eps":0.05,"method":"precise"},
  {"id":"e","seed":4,"word":0,"norm":"l1","eps":0.05,"method":"combined"}
]}
]=])
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env DEEPT_FAULTS=sched.execute:1:fail
          "${DEEPT_CLI}" batch --model "${Model}" --jobs "${RetryJobs}"
          --out "${Retried}" --max-retries 2
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "batch --max-retries failed (rc=${Rc}): ${ErrOut}")
endif()
if(NOT Out MATCHES "5 jobs \\(5 ok, 0 degraded, 0 error, 0 skipped\\)")
  message(FATAL_ERROR "retried batch summary wrong: ${Out}")
endif()
if(NOT Out MATCHES "health: .* 1 retries")
  message(FATAL_ERROR "health line missing the retry count: ${Out}")
endif()

# Malformed integer flags must be rejected loudly.
foreach(BadFlag "--deadline-ms" "--max-retries")
  execute_process(
    COMMAND "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
            --out "${Results}" ${BadFlag} nonsense
    RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
  if(Rc EQUAL 0)
    message(FATAL_ERROR "batch accepted ${BadFlag} nonsense")
  endif()
  if(NOT ErrOut MATCHES "expects an integer")
    message(FATAL_ERROR "missing strict-parse error for ${BadFlag}: ${ErrOut}")
  endif()
endforeach()

message(STATUS "batch scheduler smoke test passed")

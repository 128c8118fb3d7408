# SmokeBatch.cmake - end-to-end smoke test of the batch scheduler.
#
# Trains a tiny model, runs a four-job batch (a fixed-eps job, a radius
# search, a forced deadline expiry that must degrade, and a bad word
# position that must error), validates the JSONL result store, then
# re-runs with --resume and checks every job is skipped. A five-job batch
# whose first job attempt hits an injected failure must record that one
# job as a typed error and finish the other four, and a malformed
# --deadline-ms must be rejected. Run via:
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

# Injected job failure: the first job attempt fails; that job is recorded
# as a typed error and the batch finishes the rest (deterministic
# fixed-eps jobs, no deadlines).
set(FaultJobs "${WORK_DIR}/fault_jobs.json")
set(Faulted "${WORK_DIR}/faulted.jsonl")
file(REMOVE "${Faulted}")
file(WRITE "${FaultJobs}" [=[
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
          "${DEEPT_CLI}" batch --model "${Model}" --jobs "${FaultJobs}"
          --out "${Faulted}"
  RESULT_VARIABLE Rc OUTPUT_VARIABLE Out ERROR_VARIABLE ErrOut)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "batch under an injected failure failed (rc=${Rc}): "
                      "${ErrOut}")
endif()
if(NOT Out MATCHES "5 jobs \\(4 ok, 0 degraded, 1 error, 0 skipped\\)")
  message(FATAL_ERROR "faulted batch summary wrong: ${Out}")
endif()
file(STRINGS "${Faulted}" FaultedRecords
     REGEX "\"error_code\":\"fault_injected\"")
list(LENGTH FaultedRecords NumFaulted)
if(NOT NumFaulted EQUAL 1)
  message(FATAL_ERROR
      "want one fault_injected store record, got ${NumFaulted}: ${Out}")
endif()

# A malformed integer flag must be rejected loudly.
execute_process(
  COMMAND "${DEEPT_CLI}" batch --model "${Model}" --jobs "${Jobs}"
          --out "${Results}" --deadline-ms nonsense
  RESULT_VARIABLE Rc ERROR_VARIABLE ErrOut OUTPUT_QUIET)
if(Rc EQUAL 0)
  message(FATAL_ERROR "batch accepted --deadline-ms nonsense")
endif()
if(NOT ErrOut MATCHES "expects an integer")
  message(FATAL_ERROR "missing strict-parse error for --deadline-ms: ${ErrOut}")
endif()

message(STATUS "batch scheduler smoke test passed")

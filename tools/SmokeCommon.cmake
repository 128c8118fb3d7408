# SmokeCommon.cmake - preamble shared by the Smoke*.cmake ctest drivers.
#
# include()d first by each driver. Checks that the driver got its required
# -D variables (DEEPT_CLI, JSON_VALIDATE, WORK_DIR), creates WORK_DIR, and
# defines smoke_train_model(), which trains the tiny one-layer model every
# drill certifies.

get_filename_component(SmokeDriver "${CMAKE_SCRIPT_MODE_FILE}" NAME)
foreach(Var DEEPT_CLI JSON_VALIDATE WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "${SmokeDriver} needs -D${Var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Trains the smoke model (1 layer, embedding 8, 5 steps: seconds) to Path.
function(smoke_train_model Path)
  execute_process(
    COMMAND "${DEEPT_CLI}" train --out "${Path}" --layers 1 --embed 8
            --heads 2 --hidden 8 --steps 5
    RESULT_VARIABLE Rc)
  if(NOT Rc EQUAL 0)
    message(FATAL_ERROR "deept_cli train failed (rc=${Rc})")
  endif()
endfunction()

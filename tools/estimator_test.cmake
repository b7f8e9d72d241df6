# Runs a tool (elan_adjustment_estimator, elan_cluster_sim) once and checks
# its exit code and output:
#
#   cmake -DTOOL=<binary> "-DARGS=<flags>" -DEXIT=<code> "-DMATCH=<regex>"
#         ["-DNO_MATCH=<regex>"] -P estimator_test.cmake
#
# MATCH must match stdout+stderr and NO_MATCH (when given) must not. Whenever
# the estimator lists a schedule, its makespan must equal the replication
# time that the Elan pause line prices.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}:\n${all}")
endif()
if(NOT all MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${all}")
endif()
if(DEFINED NO_MATCH AND all MATCHES "${NO_MATCH}")
  message(FATAL_ERROR "output matches '${NO_MATCH}':\n${all}")
endif()
if(out MATCHES "makespan ([0-9.]+ [a-z]+),")
  set(makespan "${CMAKE_MATCH_1}")
  if(NOT out MATCHES "\\(replication ${makespan} \\+")
    message(FATAL_ERROR "schedule makespan ${makespan} is not the priced replication time:\n${out}")
  endif()
endif()

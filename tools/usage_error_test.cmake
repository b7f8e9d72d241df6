# Runs a tool with a malformed flag value and checks that it exits 2 with the
# error and its usage text on stderr, not with an uncaught exception:
#
#   cmake -DTOOL=<binary> "-DARGS=<flags>" "-DERROR=<regex>" -P usage_error_test.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit code ${rc}, expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "${ERROR}")
  message(FATAL_ERROR "stderr does not match '${ERROR}':\n${err}")
endif()
if(NOT err MATCHES "usage: [^\n]* \\[flags\\]")
  message(FATAL_ERROR "stderr has no usage text:\n${err}")
endif()

# Runs a tool with a malformed flag value and checks that it exits with the
# expected code (2 unless EXIT says otherwise) and prints the error and its
# usage text on stderr, not an uncaught exception:
#
#   cmake -DTOOL=<binary> "-DARGS=<flags>" "-DERROR=<regex>" [-DEXIT=<code>]
#         -P usage_error_test.cmake
if(NOT DEFINED EXIT)
  set(EXIT 2)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}:\n${out}${err}")
endif()
if(NOT err MATCHES "${ERROR}")
  message(FATAL_ERROR "stderr does not match '${ERROR}':\n${err}")
endif()
if(NOT err MATCHES "usage: [^\n]* \\[flags\\]")
  message(FATAL_ERROR "stderr has no usage text:\n${err}")
endif()

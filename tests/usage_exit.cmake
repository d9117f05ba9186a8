# Passes iff PROGRAM run with ARGS exits with status 2 and names OPTION on
# stderr: the usage-error contract of the bench and example binaries.
#   cmake -DPROGRAM=<exe> "-DARGS=--n -1" -DOPTION=--n -P usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status '${status}', want 2\n${err}")
endif()
string(FIND "${err}" "${OPTION}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr does not name ${OPTION}\n${err}")
endif()

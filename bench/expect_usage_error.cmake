# ctest helper for CLI-strictness checks. Runs BIN with ARGS (a list) in an
# empty directory WORK and fails unless it exits 2 without writing a file.
#
#   cmake -DBIN=<exe> -DARGS=<a;b> -DWORK=<dir> -P expect_usage_error.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${BIN}" ${ARGS}
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line on stderr\n${err}")
endif()
file(GLOB written "${WORK}/*")
if(written)
  message(FATAL_ERROR "${BIN} ${ARGS}: wrote ${written} before rejecting")
endif()

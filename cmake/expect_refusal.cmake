# ctest helper for CLI-refusal checks. Runs BIN with ARGS (a list) in an
# empty directory WORK and fails unless it exits RC with stderr matching
# EXPECT (a regex), without writing a file.
#
#   cmake -DBIN=<exe> -DARGS=<a;b> -DRC=<code> -DEXPECT=<regex> -DWORK=<dir>
#         [-DSTRIP=<key;key>] -P expect_refusal.cmake
#
# STRIP is for bench_simcore --check: the script first writes a same-knob
# --smoke baseline (in WORK.base, so WORK stays empty), removes these keys
# from its "results", and appends `--check <stripped baseline>` to ARGS.
file(REMOVE_RECURSE "${WORK}" "${WORK}.base")
file(MAKE_DIRECTORY "${WORK}" "${WORK}.base")
if(STRIP)
  execute_process(COMMAND "${BIN}" --smoke --out "${WORK}.base/full.json"
    WORKING_DIRECTORY "${WORK}.base"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} --smoke: exit ${rc}, expected 0\n${err}")
  endif()
  file(READ "${WORK}.base/full.json" baseline)
  foreach(key ${STRIP})
    string(JSON baseline REMOVE "${baseline}" results "${key}")
  endforeach()
  file(WRITE "${WORK}.base/stripped.json" "${baseline}")
  list(APPEND ARGS --check "${WORK}.base/stripped.json")
endif()
execute_process(COMMAND "${BIN}" ${ARGS}
  WORKING_DIRECTORY "${WORK}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, expected ${RC}\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${EXPECT}'\n"
                      "${err}")
endif()
file(GLOB written "${WORK}/*")
if(written)
  message(FATAL_ERROR "${BIN} ${ARGS}: wrote ${written} before rejecting")
endif()

# Runs PROGRAM with ARGS ('|'-separated) and passes only when it exits with
# exactly EXPECT_EXIT. A crash (abort, signal) or any other exit code fails.
# When EXPECT_STDERR is not empty, stderr must contain it.
#
#   cmake -DPROGRAM=prog "-DARGS=arg1|arg2" -DEXPECT_EXIT=1
#         [-DEXPECT_STDERR=text] -P expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT "${result}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${result}'\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT "${EXPECT_STDERR}" STREQUAL "" AND NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()

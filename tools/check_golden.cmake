# Runs one command and compares its stdout byte for byte with a golden
# file, and its exit code with the expected one.
#
#   cmake -DCOMMAND="prog;arg;..." -DGOLDEN=<file> -DEXPECT_EXIT=<n>
#         -P check_golden.cmake
#
# Regenerate a golden by running the command with stdout redirected to
# the golden file.

execute_process(COMMAND ${COMMAND}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit code ${exit_code}, expected ${EXPECT_EXIT}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${actual}")
endif()

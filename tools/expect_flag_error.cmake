# Runs CMD (arguments separated by '|') and fails unless it exits with
# status 2 and its standard error contains EXPECT:
#
#   cmake "-DCMD=dpcopula|--threads|4x" "-DEXPECT=invalid value for --threads"
#         -P expect_flag_error.cmake
string(REPLACE "|" ";" command "${CMD}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "exit status ${status}, want 2; stderr:\n${stderr}")
endif()
string(FIND "${stderr}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${stderr}")
endif()

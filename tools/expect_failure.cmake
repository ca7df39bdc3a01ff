# ctest wrapper for a negative test: run the command given after `--` and
# require both its exit code and a match of its output. ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit code, and WILL_FAIL alone
# passes any non-zero exit, an abort included. Invoked by add_failure_test()
# in the top-level CMakeLists.txt as
#   cmake -DEXIT=<code> -DPATTERN=<regex> -DTIMEOUT=<s> -P expect_failure.cmake
#         -- <command> [args...]
# PATTERN is matched against stdout and stderr together.

math(EXPR last "${CMAKE_ARGC} - 1")
set(command)
set(after_dashes FALSE)
foreach(i RANGE ${last})
  if(after_dashes)
    # Escape semicolons so an argument that holds one stays one argument.
    string(REPLACE ";" "\\;" arg "${CMAKE_ARGV${i}}")
    list(APPEND command "${arg}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()

execute_process(COMMAND ${command}
                TIMEOUT ${TIMEOUT}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT "${rc}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "want exit ${EXIT}, got '${rc}':\n${output}")
endif()
if(NOT output MATCHES "${PATTERN}")
  message(FATAL_ERROR "output does not match '${PATTERN}':\n${output}")
endif()

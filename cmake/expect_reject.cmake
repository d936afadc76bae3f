# Reject-path check: runs a command that must refuse its input, and passes
# only if the command exits with a non-zero status (a normal exit, not a
# crash) AND its output matches EXPECT. CTest's PASS_REGULAR_EXPRESSION
# alone ignores the exit status, so a binary that printed the error and
# still exited 0 would pass there.
#
#   cmake -DEXPECT=<regex> -P expect_reject.cmake -- <command> [args...]
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_reject: EXPECT is not set")
endif()

set(command)
set(after_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator ON)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_reject: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT status MATCHES "^[0-9]+$" OR status EQUAL 0)
  message(FATAL_ERROR
    "expect_reject: wanted a non-zero exit status, got '${status}'\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "expect_reject: output does not match '${EXPECT}'\n${out}${err}")
endif()

# Passes only when a command exits non-zero and its output (stdout and
# stderr together) matches a regular expression: a tool that refuses an
# input has to say what it refused.
#
#   cmake -P expect_refusal.cmake <regex> <command> [args...]

cmake_minimum_required(VERSION 3.16)

math(EXPR last "${CMAKE_ARGC} - 1")
if(last LESS 4)
  message(FATAL_ERROR
          "usage: cmake -P expect_refusal.cmake <regex> <command> [args...]")
endif()
set(pattern "${CMAKE_ARGV3}")
set(command "")
foreach(index RANGE 4 ${last})
  list(APPEND command "${CMAKE_ARGV${index}}")
endforeach()
execute_process(COMMAND ${command}
                OUTPUT_VARIABLE output ERROR_VARIABLE output
                RESULT_VARIABLE code)
if(code EQUAL 0)
  message(FATAL_ERROR "exited 0, expected a refusal:\n${output}")
endif()
if(NOT output MATCHES "${pattern}")
  message(FATAL_ERROR
          "exit code ${code}, but the output does not match "
          "\"${pattern}\":\n${output}")
endif()
message(STATUS "refused as expected (exit code ${code})")

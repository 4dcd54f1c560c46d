# Fails when a test binary lists its tests differently in two separate
# processes. gtest_discover_tests copies `--gtest_list_tests` output into
# the ctest names, so a difference means a test ID that changes from one
# discovery to the next (a parameter printed as raw bytes that hold an
# address, say), and a tool that matches tests by name between two builds
# sees those tests vanish and reappear.
#
#   cmake -P test_list_stability.cmake <test binary>...

cmake_minimum_required(VERSION 3.16)

math(EXPR last "${CMAKE_ARGC} - 1")
if(last LESS 3)
  message(FATAL_ERROR "usage: cmake -P test_list_stability.cmake <binary>...")
endif()
set(unstable 0)
foreach(index RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${index}}")
  foreach(run first second)
    execute_process(COMMAND "${binary}" --gtest_list_tests
                    OUTPUT_VARIABLE ${run} RESULT_VARIABLE code)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${binary} --gtest_list_tests exited with ${code}")
    endif()
  endforeach()
  if(first STREQUAL second)
    continue()
  endif()
  math(EXPR unstable "${unstable} + 1")
  # Name the lines of the first listing that the second lacks. Brackets
  # and semicolons would change how CMake splits the text into a list.
  foreach(run first second)
    string(REPLACE ";" "<semicolon>" ${run} "${${run}}")
    string(REPLACE "[" "<lbracket>" ${run} "${${run}}")
    string(REPLACE "]" "<rbracket>" ${run} "${${run}}")
    string(REPLACE "\n" ";" ${run} "${${run}}")
  endforeach()
  set(changed "")
  foreach(line IN LISTS first)
    if(NOT line IN_LIST second)
      string(APPEND changed "\n  ${line}")
    endif()
  endforeach()
  message(SEND_ERROR
          "${binary}: these test listing lines change between runs:${changed}")
endforeach()
if(unstable GREATER 0)
  message(FATAL_ERROR "test binaries listing unstable IDs: ${unstable}")
endif()

# Golden orphan check (ctest `goldens_no_orphan`, label `artifacts`).
#
# Every file under tests/golden/ other than README.md must be named in
# some tests/*.cc, so no golden outlives the test that compares against
# it. Run with `cmake -DTESTS_DIR=<tests dir> -P check_goldens.cmake`.
cmake_minimum_required(VERSION 3.16)

file(GLOB goldens RELATIVE "${TESTS_DIR}/golden" "${TESTS_DIR}/golden/*")
file(GLOB sources "${TESTS_DIR}/*.cc")
set(text "")
foreach(source IN LISTS sources)
  file(READ "${source}" content)
  string(APPEND text "${content}")
endforeach()

set(orphans "")
set(count 0)
foreach(golden IN LISTS goldens)
  if(golden STREQUAL "README.md")
    continue()
  endif()
  math(EXPR count "${count} + 1")
  string(FIND "${text}" "${golden}" at)
  if(at EQUAL -1)
    list(APPEND orphans "${golden}")
  endif()
endforeach()
if(orphans)
  message(FATAL_ERROR "goldens no tests/*.cc names: ${orphans}")
endif()
message(STATUS "all ${count} goldens are named by a test")

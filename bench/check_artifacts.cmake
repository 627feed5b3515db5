# Artifact check for the bench binaries (ctest label `artifacts`).
#
# Every CSV at the repo root is written by some bench's emit stage, and
# the emit stages are deterministic, so a clean build must reproduce each
# one byte for byte. Run with `cmake -P` in one of two modes:
#
#   -DMODE=emit -DBENCH=<binary> -DSOURCE_DIR=<repo root>
#   -DWORK_DIR=<scratch dir> -DLIST=<file>
#       Runs the bench's emit stage (--benchmark_filter=^$) in a fresh
#       WORK_DIR, compares every CSV it writes with the root copy, and
#       records the names of those CSVs in LIST.
#   -DMODE=orphans -DSOURCE_DIR=<repo root> -DLIST_DIR=<dir>
#   -DBENCHES=<comma-separated bench names>
#       Requires every root CSV to appear in some bench's LIST, so no
#       checked-in number lacks a bench that regenerates it.
cmake_minimum_required(VERSION 3.16)

if(MODE STREQUAL "emit")
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  execute_process(COMMAND "${BENCH}" "--benchmark_filter=^$"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE status
                  OUTPUT_FILE "${WORK_DIR}/emit.log"
                  ERROR_FILE "${WORK_DIR}/emit.log")
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed (${status}); see ${WORK_DIR}/emit.log")
  endif()
  file(GLOB written RELATIVE "${WORK_DIR}" "${WORK_DIR}/*.csv")
  file(WRITE "${LIST}" "${written}")
  set(stale "")
  foreach(csv IN LISTS written)
    if(NOT EXISTS "${SOURCE_DIR}/${csv}")
      list(APPEND stale "${csv} (no copy at the repo root)")
      continue()
    endif()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK_DIR}/${csv}" "${SOURCE_DIR}/${csv}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(APPEND stale "${csv} (regenerated copy: ${WORK_DIR}/${csv})")
    endif()
  endforeach()
  if(stale)
    list(JOIN stale "\n  " stale)
    message(FATAL_ERROR "root CSVs differ from what the bench writes:\n  ${stale}")
  endif()
  list(LENGTH written count)
  message(STATUS "${count} CSV(s) reproduced byte for byte: ${written}")
elseif(MODE STREQUAL "orphans")
  string(REPLACE "," ";" benches "${BENCHES}")
  set(produced "")
  foreach(bench IN LISTS benches)
    if(NOT EXISTS "${LIST_DIR}/${bench}.txt")
      message(FATAL_ERROR "${bench} has not run its emit stage")
    endif()
    file(READ "${LIST_DIR}/${bench}.txt" written)
    list(APPEND produced ${written})
  endforeach()
  file(GLOB root RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/*.csv")
  set(orphans "")
  foreach(csv IN LISTS root)
    if(NOT csv IN_LIST produced)
      list(APPEND orphans "${csv}")
    endif()
  endforeach()
  if(orphans)
    message(FATAL_ERROR "root CSVs no bench writes: ${orphans}")
  endif()
  list(LENGTH root count)
  message(STATUS "all ${count} root CSVs have a bench that writes them")
else()
  message(FATAL_ERROR "unknown MODE '${MODE}' (expected emit or orphans)")
endif()

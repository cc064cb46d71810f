# Input-validation gate: every row below is a das_sim input that once ended
# in a signal, a DAS_REQUIRE abort, a bare library message ("stod",
# std::bad_alloc) or a silent run. Each must now exit with code 2 and print
# a message naming the flag and the value, never a signal.
#
# A row is the flag under test (checked for in stderr) plus any flags the
# case needs, appended to a small single-cell base command.
#
# Invoked as: cmake -DDAS_SIM=<path-to-das_sim> -P cli_reject_cases.cmake
if(NOT DEFINED DAS_SIM)
  message(FATAL_ERROR "pass -DDAS_SIM=<path to das_sim>")
endif()

set(base --gib=1 --scheme=TS --kernel=flow-routing)
set(cases
  "--strip-kib=0"
  "--strip-kib=abc"
  "--trials=0"
  "--window=0"
  "--repeats=0"
  "--nodes=0"
  "--nodes=3"
  "--gib=-1"
  "--gib=0"
  "--cache-mib=-5"
  "--group=0"
  "--pipeline=0"
  "--jobs=-1"
  "--stragglers=13"
  "--slowdown=0"
  "--nic-mibps=0"
  "--startup-s=-1"
  "--jitter-pct=100"
  "--migrate-threshold=nan"
  "--slo-budget=0"
  "--weights=abc --tenants=4"
  "--datasets=0 --tenants=4"
  "--arrival-rate=0 --tenants=4"
  "--job-mib=2000 --tenants=4"
  "--repeats=4 --access=strided:8"
  "--pipeline=4 --access=strided:8"
  "--pre-distributed=false --access=strided:8"
  "--migrate=true --access=strided:8"
  "--bogus=1 --calibrate-kernels"
  "--scheme=XX"
  "--kernel=nope"
  "--log-level=bogus"
  "--kernel-isa=avx512"
  "--cache-policy=bogus --cache-mib=64"
  "--access=strided:4294967297"
  "--kernel-cost=flow-routing:inf")

# Per-flag reject matrix, generated from the ranges `das_sim --help` prints:
# for every numeric flag, a value just below its lower end, just above a
# finite upper end, nan and x. Only out-of-range values are tried: an
# in-range large --jobs or --trials would start that many threads or cells.
execute_process(
  COMMAND ${DAS_SIM} --help
  RESULT_VARIABLE help_rc
  OUTPUT_VARIABLE help
  ERROR_VARIABLE help_err)
if(NOT help_rc STREQUAL "0")
  message(FATAL_ERROR "das_sim --help failed (exit '${help_rc}'): ${help_err}")
endif()
# A closed end prints as a square bracket, which would stop CMake from
# splitting the matched rows into a list: spell closed ends as braces.
string(REPLACE "[" "{" help "${help}")
string(REPLACE "]" "}" help "${help}")
set(range_re
    "--([a-z0-9-]+)[^ \n]*  [^\n]*(an integer|a number) in ([{(])([^,\n]+), ([^})\n]+)[})]")
string(REGEX MATCHALL "${range_re}" numeric_rows "${help}")
list(LENGTH numeric_rows numeric_count)
if(numeric_count EQUAL 0)
  message(FATAL_ERROR "no numeric flag ranges found in das_sim --help:\n${help}")
endif()
foreach(row IN LISTS numeric_rows)
  string(REGEX MATCH "${range_re}" _ "${row}")
  set(name ${CMAKE_MATCH_1})
  set(lo ${CMAKE_MATCH_4})
  set(hi ${CMAKE_MATCH_5})
  string(COMPARE EQUAL "${CMAKE_MATCH_3}" "(" lo_open)
  if(lo_open)
    set(below ${lo})  # an open lower end is itself out of range
  else()
    math(EXPR below "${lo} - 1")
  endif()
  list(APPEND cases "--${name}=${below}" "--${name}=nan" "--${name}=x")
  if(NOT hi STREQUAL "inf")
    math(EXPR above "${hi} + 1")
    list(APPEND cases "--${name}=${above}")
  endif()
endforeach()

set(failures "")
foreach(case IN LISTS cases)
  separate_arguments(case_args UNIX_COMMAND "${case}")
  list(GET case_args 0 flag)
  execute_process(
    COMMAND ${DAS_SIM} ${base} ${case_args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures "  ${case}: exit '${rc}', stderr: ${err}\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "inputs not rejected with exit 2 naming the flag:\n"
                      "${failures}")
endif()
list(LENGTH cases n)
message(STATUS "all ${n} bad inputs (${numeric_count} numeric flags in the "
               "matrix) exit 2 naming the flag and value")

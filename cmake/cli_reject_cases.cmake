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
  "--migrate=true --access=strided:8")

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
message(STATUS "all ${n} bad inputs exit 2 naming the flag and value")

# Table-driven runner for the das_sim gates: the byte-identity, determinism,
# artifact-shape and input-rejection checks that pin das_sim's outputs. The
# rows live in gate_table.cmake, one block per gate; each gate is one ctest:
#
#   cmake -DGATE=<name> -DDAS_SIM=<das_sim> -DGOLDEN_DIR=<dir> -P gate_runner.cmake
#
# A row is one verb or helper call and names itself first, so a failure
# names the row. Verbs:
#   same(ROW A B [VIEW])       runs A and B show the same view
#   differs(ROW A B [VIEW])    ... different views
#   golden(ROW A FILE [VIEW])  A's view equals FILE under GOLDEN_DIR
#   reject(CASE [BASE])        BASE CASE exits 2 and stderr names CASE's
#                              first token (--flag=value); BASE defaults to
#                              REJECT_BASE
#   session(HEX FLAGS)         the session id in FLAGS' --diag sidecar is HEX
# Helpers, for the checks that are not comparisons:
#   trace_ok(ROW A [CAT...])   A's --trace file is trace JSON with events of
#                              every category CAT
#   audit_ok(ROW A)            A's --audit CSV has a header and a data row
#                              with equal field counts
#   shape(ROW A WHERE [RE...]) A's stdout (WHERE = stdout) or the file its
#                              --WHERE= flag names exists and matches each RE
#   diag_budget(ROW A)         A's --diag loop time is at most --jobs x its
#                              process time, and its peak RSS is positive
#   reject_matrix(), mode_matrix()  reject rows generated from --help
#
# A and B are das_sim flag strings; an operand "golden:FILE" reads FILE
# under GOLDEN_DIR instead. "=@/" in a flag puts the file in the gate's
# scratch directory. A token starting with "#" is not passed: it only makes
# two otherwise equal command lines distinct, for a fresh invocation. Each
# distinct command line runs once per gate, and every row naming it shares
# that run, so a row reading a run's sidecar must give the run its own path.
# A VIEW is stdout unless SIDECAR <flag> (the file --<flag>= names) or
# SESSION (the "session" field of the --diag sidecar) picks another; HEADER
# keeps the first line; MASK_SESSION replaces every line-final hex word (the
# traffic summary's session stamp) with SESSION. A compared run must exit 0.
cmake_policy(VERSION 3.20)
foreach(var GATE DAS_SIM GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

set(WORK ${CMAKE_CURRENT_BINARY_DIR}/gate_${GATE})
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set_property(GLOBAL PROPERTY gate_rows 0)
set_property(GLOBAL PROPERTY gate_failures "")

# Count one row; with `what`, record it as failed. The gate fails after its
# last row, listing every failed row.
function(row_result row)
  get_property(n GLOBAL PROPERTY gate_rows)
  math(EXPR n "${n} + 1")
  set_property(GLOBAL PROPERTY gate_rows ${n})
  if(ARGC GREATER 1)
    string(CONCAT what ${ARGN})
    set_property(GLOBAL APPEND_STRING PROPERTY gate_failures
                 "\n${GATE} row '${row}': ${what}")
  endif()
endfunction()

# Run flag string `spec` once per gate; sets rc, out, err and argv (the
# arguments passed) in the caller.
function(run spec)
  string(REPLACE "=@/" "=${WORK}/" spec "${spec}")
  separate_arguments(argv UNIX_COMMAND "${spec}")
  list(FILTER argv EXCLUDE REGEX "^#")
  string(MD5 key "${spec}")
  get_property(seen GLOBAL PROPERTY rc_${key} SET)
  if(NOT seen)
    execute_process(COMMAND ${DAS_SIM} ${argv} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    foreach(field rc out err)
      set_property(GLOBAL PROPERTY ${field}_${key} "${${field}}")
    endforeach()
  endif()
  foreach(field rc out err)
    get_property(value GLOBAL PROPERTY ${field}_${key})
    set(${field} "${value}" PARENT_SCOPE)
  endforeach()
  set(argv "${argv}" PARENT_SCOPE)
endfunction()

# Set `result` to the view (see above) of operand `spec` for `row`. A run that
# does not exit 0, or a sidecar that is missing, stops the gate.
function(view row spec result)
  cmake_parse_arguments(V "MASK_SESSION;HEADER;SESSION" "SIDECAR" "" ${ARGN})
  if(spec MATCHES "^golden:(.*)")
    file(READ ${GOLDEN_DIR}/${CMAKE_MATCH_1} text)
  else()
    run("${spec}")
    if(NOT rc STREQUAL "0")
      message(FATAL_ERROR "${GATE} row '${row}': exit '${rc}' from "
                          "das_sim ${spec}\n${err}")
    endif()
    set(text "${out}")
    if(V_SESSION)
      set(V_SIDECAR diag)
    endif()
    if(V_SIDECAR)
      list(FILTER argv INCLUDE REGEX "^--${V_SIDECAR}=")
      string(REPLACE "--${V_SIDECAR}=" "" path "${argv}")
      if(path STREQUAL "" OR NOT EXISTS "${path}")
        message(FATAL_ERROR "${GATE} row '${row}': no --${V_SIDECAR} file "
                            "from das_sim ${spec}")
      endif()
      file(READ "${path}" text)
    endif()
    if(V_SESSION)
      string(REGEX MATCH "\"session\": \"[0-9a-f]+\"" text "${text}")
      if(text STREQUAL "")
        message(FATAL_ERROR "${GATE} row '${row}': diag sidecar lacks the "
                            "session stamp: das_sim ${spec}")
      endif()
    endif()
  endif()
  if(V_HEADER)
    string(REGEX MATCH "[^\n]*\n" text "${text}")
  endif()
  if(V_MASK_SESSION)
    string(REGEX REPLACE "[0-9a-f]+\n" "SESSION\n" text "${text}")
  endif()
  set(${result} "${text}" PARENT_SCOPE)
endfunction()

function(same row a b)
  view("${row}" "${a}" va ${ARGN})
  view("${row}" "${b}" vb ${ARGN})
  if(va STREQUAL vb)
    row_result("${row}")
  else()
    row_result("${row}" "views differ\n--- ${a} ---\n${va}\n--- ${b} ---\n${vb}")
  endif()
endfunction()

function(differs row a b)
  view("${row}" "${a}" va ${ARGN})
  view("${row}" "${b}" vb ${ARGN})
  if(va STREQUAL vb)
    row_result("${row}" "views are equal, want a difference: ${a} vs ${b}")
  else()
    row_result("${row}")
  endif()
endfunction()

function(golden row a file)
  same("${row}" "${a}" "golden:${file}" ${ARGN})
endfunction()

function(reject case)
  set(base "${REJECT_BASE}")
  if(ARGC GREATER 1)
    set(base "${ARGV1}")
  endif()
  run("${base} ${case}")
  separate_arguments(case_args UNIX_COMMAND "${case}")
  list(GET case_args 0 flag)
  string(REPLACE "=@/" "=${WORK}/" flag "${flag}")
  string(FIND "${err}" "${flag}" at)
  if(rc STREQUAL "2" AND NOT at EQUAL -1)
    row_result("${case}")
  else()
    row_result("${case}" "want exit 2 naming ${flag}, got exit '${rc}', "
                         "stderr: ${err}")
  endif()
endfunction()

function(session hex flags)
  view("${flags}" "${flags} --diag=@/session_${hex}.json" got SESSION)
  if(got STREQUAL "\"session\": \"${hex}\"")
    row_result("${flags}")
  else()
    row_result("${flags}" "session id moved: want ${hex}, got ${got}")
  endif()
endfunction()

function(trace_ok row spec)
  view("${row}" "${spec}" json SIDECAR trace)
  string(JSON count ERROR_VARIABLE error LENGTH "${json}" traceEvents)
  if(error OR count LESS 1)
    row_result("${row}" "trace is not JSON with traceEvents: ${error}")
    return()
  endif()
  # Spot-check the first event's shape: a phase and a pid must be present.
  string(JSON first GET "${json}" traceEvents 0)
  string(JSON ph ERROR_VARIABLE ph_error GET "${first}" ph)
  string(JSON pid ERROR_VARIABLE pid_error GET "${first}" pid)
  set(missing "")
  foreach(cat IN LISTS ARGN)
    string(FIND "${json}" "\"cat\":\"${cat}\"" at)
    if(at EQUAL -1)
      string(APPEND missing " ${cat}")
    endif()
  endforeach()
  if(ph_error OR pid_error)
    row_result("${row}" "trace event 0 lacks ph/pid: ${first}")
  elseif(missing)
    row_result("${row}" "trace has no events of category${missing}")
  else()
    row_result("${row}")
  endif()
endfunction()

function(audit_ok row spec)
  view("${row}" "${spec}" csv SIDECAR audit)
  string(REGEX MATCHALL "[^\n]+" lines "${csv}")
  list(LENGTH lines count)
  if(count LESS 2)
    row_result("${row}" "audit CSV has no data rows (${count} lines)")
    return()
  endif()
  list(GET lines 0 header)
  list(GET lines 1 first)
  string(REGEX MATCHALL "," header_commas "${header}")
  string(REGEX MATCHALL "," row_commas "${first}")
  list(LENGTH header_commas header_fields)
  list(LENGTH row_commas row_fields)
  if(NOT header MATCHES "predicted_halo_bytes_per_pass")
    row_result("${row}" "unexpected audit header: ${header}")
  elseif(NOT header_fields EQUAL row_fields)
    row_result("${row}" "audit header/row field counts differ\n"
                        "header: ${header}\nrow: ${first}")
  else()
    row_result("${row}")
  endif()
endfunction()

function(shape row spec where)
  if(where STREQUAL "stdout")
    view("${row}" "${spec}" text)
  else()
    view("${row}" "${spec}" text SIDECAR ${where})
  endif()
  set(missing "")
  foreach(re IN LISTS ARGN)
    if(NOT text MATCHES "${re}")
      string(APPEND missing " /${re}/")
    endif()
  endforeach()
  if(missing)
    row_result("${row}" "${where} lacks${missing}:\n${text}")
  else()
    row_result("${row}")
  endif()
endfunction()

# The seconds fields carry six decimals and peak_rss_mib one; each is read
# as an integer in units of its last decimal ("12.345600" -> 12345600),
# since CMake compares integers only. The fraction is read with a leading 1
# so its leading zeros cannot be taken for an octal prefix.
function(diag_budget row spec)
  view("${row}" "${spec}" json SIDECAR diag)
  string(REGEX MATCH "--jobs=([0-9]+)" _ "${spec}")
  set(jobs ${CMAKE_MATCH_1})
  foreach(key wall_seconds process_wall_seconds peak_rss_mib)
    if(NOT json MATCHES "\"${key}\": ([0-9]+)\\.([0-9]+)")
      row_result("${row}" "diag sidecar lacks ${key}:\n${json}")
      return()
    endif()
    string(LENGTH "${CMAKE_MATCH_2}" places)
    string(REPEAT "0" ${places} zeros)
    math(EXPR ${key}
         "${CMAKE_MATCH_1} * 1${zeros} + 1${CMAKE_MATCH_2} - 1${zeros}")
  endforeach()
  math(EXPR budget "${process_wall_seconds} * ${jobs}")
  if(wall_seconds GREATER budget)
    row_result("${row}" "summed loop time exceeds ${jobs} x process time:\n"
                        "${json}")
  elseif(NOT peak_rss_mib GREATER 0)
    row_result("${row}" "no peak RSS reading:\n${json}")
  else()
    row_result("${row}")
  endif()
endfunction()

# `das_sim --help` into `out`, ready to split into a list of matched rows:
# square brackets (closed range ends) are spelled as braces and semicolons
# as commas.
function(help_text out)
  view(help "--help" help)
  string(REPLACE "[" "{" help "${help}")
  string(REPLACE "]" "}" help "${help}")
  string(REPLACE ";" "," help "${help}")
  set(${out} "${help}" PARENT_SCOPE)
endfunction()

# For every numeric flag --help lists: a value just below its lower end,
# just above a finite upper end, nan and x. Only out-of-range values are
# tried: an in-range large --jobs or --trials would start that many threads
# or cells.
function(reject_matrix)
  help_text(help)
  string(CONCAT range_re "--([a-z0-9-]+)[^ \n]*  [^\n]*(an integer|a number) "
         "in ([{(])([^,\n]+), ([^})\n]+)[})]")
  string(REGEX MATCHALL "${range_re}" rows "${help}")
  if(NOT rows)
    message(FATAL_ERROR "no numeric flag ranges in das_sim --help:\n${help}")
  endif()
  foreach(row IN LISTS rows)
    string(REGEX MATCH "${range_re}" _ "${row}")
    set(name ${CMAKE_MATCH_1})
    set(hi ${CMAKE_MATCH_5})
    if(CMAKE_MATCH_3 STREQUAL "(")
      set(below ${CMAKE_MATCH_4})  # an open lower end is itself out of range
    else()
      math(EXPR below "${CMAKE_MATCH_4} - 1")
    endif()
    foreach(value ${below} nan x)
      reject("--${name}=${value}")
    endforeach()
    if(NOT hi STREQUAL "inf")
      math(EXPR above "${hi} + 1")
      reject("--${name}=${above}")
    endif()
  endforeach()
endfunction()

# One row per (flag, foreign mode) pair --help lists: the flag, set off its
# default to a valid value, on a BASE_<mode> run in a mode it does not act
# in. A flag that selects traffic mode cannot be off its default elsewhere,
# so it has no foreign mode; text flags other than FILE have rows of their
# own in the table. Numeric flags move one up from an integer default (never
# a huge value: a missed rejection would start that many cells), else to
# their upper end.
function(mode_matrix)
  help_text(help)
  string(CONCAT flag_re "--([a-z0-9-]+)=?([^ \n]*)  ([^\n]*)  "
         "{session: [a-z-]+} {modes: ([a-z,]+)}\n      ([^\n]*)")
  string(REGEX MATCHALL "${flag_re}" rows "${help}")
  if(NOT rows)
    message(FATAL_ERROR "no flag modes in das_sim --help:\n${help}")
  endif()
  foreach(row IN LISTS rows)
    string(REGEX MATCH "${flag_re}" _ "${row}")
    set(name ${CMAKE_MATCH_1})
    set(default "${CMAKE_MATCH_2}")
    set(want "${CMAKE_MATCH_3}")
    set(modes ${CMAKE_MATCH_4})
    if(modes STREQUAL "any" OR CMAKE_MATCH_5 MATCHES "selects traffic mode")
      continue()
    elseif(want MATCHES "(an integer|a number) in [{(][^,]+, ([^})]+)")
      set(value ${CMAKE_MATCH_2})
      if(default MATCHES "^[0-9]+$")
        math(EXPR value "${default} + 1")
      endif()
    elseif(want STREQUAL "on or off")
      set(value on)
      if(default STREQUAL "on")
        set(value off)
      endif()
    elseif(want MATCHES "^one of (.*)")
      string(REPLACE "|" ";" choices "${CMAKE_MATCH_1}")
      list(REMOVE_ITEM choices "${default}")
      list(GET choices 0 value)
    elseif(want STREQUAL "FILE")
      set(value @/${name}.unused)
    else()
      continue()
    endif()
    foreach(mode classic list traffic)
      if(NOT modes MATCHES "${mode}")
        reject("--${name}=${value}" "${BASE_${mode}}")
      endif()
    endforeach()
  endforeach()
endfunction()

include(${CMAKE_CURRENT_LIST_DIR}/gate_table.cmake)

get_property(rows GLOBAL PROPERTY gate_rows)
get_property(failures GLOBAL PROPERTY gate_failures)
if(rows EQUAL 0)
  message(FATAL_ERROR "gate '${GATE}' has no rows in gate_table.cmake")
elseif(failures)
  message(FATAL_ERROR "${failures}")
endif()
file(REMOVE_RECURSE ${WORK})
message(STATUS "${GATE}: all ${rows} rows hold")

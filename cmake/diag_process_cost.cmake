# --diag whole-process gate. The sidecar's process_wall_seconds runs from
# main entry to the sidecar write; wall_seconds sums the cells' event loops.
# Serially the loops fit inside the process, so process >= loops. On a
# --jobs=2 sweep the loops overlap and their sum may exceed the process
# time (the over-report process_wall_seconds exists to fix), but never
# 2 x the process time. peak_rss_mib must be a real reading in both.
#
# Invoked as: cmake -DDAS_SIM=<path-to-das_sim> -P diag_process_cost.cmake
if(NOT DEFINED DAS_SIM)
  message(FATAL_ERROR "pass -DDAS_SIM=<path to das_sim>")
endif()

# The sidecar field `key` as printed, and as an integer in units of its last
# printed decimal ("12.345600" -> 12345600): CMake compares integers only,
# and both seconds fields carry six decimals. The fraction is read with a
# leading 1 so its leading zeros cannot be taken for an octal prefix.
function(diag_field json key out out_scaled)
  if(NOT json MATCHES "\"${key}\": ([0-9]+)\\.([0-9]+)")
    message(FATAL_ERROR "diag sidecar lacks ${key}:\n${json}")
  endif()
  set(${out} "${CMAKE_MATCH_1}.${CMAKE_MATCH_2}" PARENT_SCOPE)
  string(LENGTH "${CMAKE_MATCH_2}" places)
  string(REPEAT "0" ${places} zeros)
  math(EXPR scaled
       "${CMAKE_MATCH_1} * 1${zeros} + 1${CMAKE_MATCH_2} - 1${zeros}")
  set(${out_scaled} ${scaled} PARENT_SCOPE)
endfunction()

foreach(jobs 1 2)
  set(out ${CMAKE_CURRENT_BINARY_DIR}/diag_process_cost_${jobs}.json)
  execute_process(
    COMMAND ${DAS_SIM} --scheme=all --kernel=flow-routing --gib=1 --nodes=8
            --jobs=${jobs} --diag=${out}
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--jobs=${jobs} diag sweep failed (exit ${rc})")
  endif()

  file(READ ${out} diag)
  diag_field("${diag}" wall_seconds loop_s loop_us)
  diag_field("${diag}" process_wall_seconds process_s process_us)
  diag_field("${diag}" peak_rss_mib rss_mib rss_tenths)
  math(EXPR budget_us "${process_us} * ${jobs}")
  if(loop_us GREATER budget_us)
    message(FATAL_ERROR
      "--jobs=${jobs}: summed loop time exceeds ${jobs} x process time:\n"
      "${diag}")
  endif()
  if(NOT rss_tenths GREATER 0)
    message(FATAL_ERROR "--jobs=${jobs}: no peak RSS reading:\n${diag}")
  endif()
  message(STATUS "--jobs=${jobs}: process ${process_s} s, loops ${loop_s} s, "
                 "peak ${rss_mib} MiB")
endforeach()

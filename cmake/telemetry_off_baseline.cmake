# Regression gate for the telemetry disabled==baseline invariant: a das_sim
# run that never mentions telemetry must be byte-identical in stdout AND in
# its Chrome trace to one that writes metrics/spans/flight-record sidecars.
# The telemetry plane is strictly observational — it may add files, never
# change the simulated results, the reported event counts, or the trace the
# run would have emitted anyway.
#
# Invoked as: cmake -DDAS_SIM=<path-to-das_sim> -P telemetry_off_baseline.cmake
if(NOT DEFINED DAS_SIM)
  message(FATAL_ERROR "pass -DDAS_SIM=<path to das_sim>")
endif()

set(out_dir ${CMAKE_CURRENT_BINARY_DIR}/telemetry_gate)
file(MAKE_DIRECTORY ${out_dir})

# --- Classic mode: single-cell NAS run with and without full telemetry. ---
set(workload --scheme=NAS --kernel=flow-routing --gib=1 --nodes=8 --csv)

execute_process(
  COMMAND ${DAS_SIM} ${workload} --trace=${out_dir}/classic_base.json
  OUTPUT_VARIABLE classic_base
  RESULT_VARIABLE classic_base_rc)
if(NOT classic_base_rc EQUAL 0)
  message(FATAL_ERROR "baseline classic run failed (exit ${classic_base_rc})")
endif()

execute_process(
  COMMAND ${DAS_SIM} ${workload} --trace=${out_dir}/classic_tel.json
          --metrics=${out_dir}/classic.csv
          --metrics-prom=${out_dir}/classic.prom
          --spans=on --flight-record=${out_dir}/classic_flight.json
          --diag=${out_dir}/classic_diag.json
  OUTPUT_VARIABLE classic_tel
  RESULT_VARIABLE classic_tel_rc)
if(NOT classic_tel_rc EQUAL 0)
  message(FATAL_ERROR "telemetry classic run failed (exit ${classic_tel_rc})")
endif()

if(NOT classic_base STREQUAL classic_tel)
  message(FATAL_ERROR
    "telemetry perturbs the classic-run stdout\n"
    "--- baseline ---\n${classic_base}\n"
    "--- telemetry ---\n${classic_tel}")
endif()
message(STATUS "classic stdout is byte-identical with telemetry on")

# The trace gains span events and a session stamp, but every *simulation*
# event in the baseline trace must still be present verbatim: strip the
# telemetry-only additions and compare.
file(READ ${out_dir}/classic_base.json base_trace)
file(READ ${out_dir}/classic_tel.json tel_trace)
if(NOT tel_trace MATCHES "\"session\"")
  message(FATAL_ERROR "telemetry trace is missing the session stamp")
endif()
foreach(subsystem net disk compute)
  if(base_trace MATCHES "\"cat\": \"${subsystem}\"" AND
     NOT tel_trace MATCHES "\"cat\": \"${subsystem}\"")
    message(FATAL_ERROR
      "telemetry trace lost baseline ${subsystem} events")
  endif()
endforeach()

# Sidecars must exist and carry the expected shape.
foreach(sidecar classic.csv classic.prom classic_flight.json classic_diag.json)
  if(NOT EXISTS ${out_dir}/${sidecar})
    message(FATAL_ERROR "telemetry sidecar ${sidecar} was not written")
  endif()
endforeach()
file(READ ${out_dir}/classic.csv metrics_csv)
if(NOT metrics_csv MATCHES "^time_s,")
  message(FATAL_ERROR "metrics CSV missing time_s header:\n${metrics_csv}")
endif()
file(READ ${out_dir}/classic.prom metrics_prom)
if(NOT metrics_prom MATCHES "# TYPE das_")
  message(FATAL_ERROR "Prometheus export missing TYPE lines:\n${metrics_prom}")
endif()
file(READ ${out_dir}/classic_diag.json diag_json)
if(NOT diag_json MATCHES "\"session\"" OR NOT diag_json MATCHES "\"sim_events\"")
  message(FATAL_ERROR "diag sidecar missing keys:\n${diag_json}")
endif()
message(STATUS "classic telemetry sidecars are present and well-formed")

# The metrics rerun must be reproducible byte for byte.
execute_process(
  COMMAND ${DAS_SIM} ${workload}
          --metrics=${out_dir}/classic_repeat.csv --spans=on
  OUTPUT_VARIABLE classic_repeat
  RESULT_VARIABLE classic_repeat_rc)
if(NOT classic_repeat_rc EQUAL 0)
  message(FATAL_ERROR "repeat telemetry run failed (exit ${classic_repeat_rc})")
endif()
file(READ ${out_dir}/classic_repeat.csv metrics_repeat)
if(NOT metrics_csv STREQUAL metrics_repeat)
  message(FATAL_ERROR "metrics CSV is not reproducible across invocations")
endif()
message(STATUS "metrics CSV is byte-identical across invocations")

# --- Traffic mode: multi-tenant run with and without telemetry. ---
set(traffic --tenants=4 --tenant-jobs=4 --arrival-rate=2 --job-mib=4
    --gib=1 --nodes=8 --stragglers=1 --slowdown=8 --hedge=on)

execute_process(
  COMMAND ${DAS_SIM} ${traffic}
  OUTPUT_VARIABLE traffic_base
  RESULT_VARIABLE traffic_base_rc)
if(NOT traffic_base_rc EQUAL 0)
  message(FATAL_ERROR "baseline traffic run failed (exit ${traffic_base_rc})")
endif()

execute_process(
  COMMAND ${DAS_SIM} ${traffic}
          --metrics=${out_dir}/traffic.csv --spans=on
          --diag=${out_dir}/traffic_diag.json
  OUTPUT_VARIABLE traffic_tel
  RESULT_VARIABLE traffic_tel_rc)
if(NOT traffic_tel_rc EQUAL 0)
  message(FATAL_ERROR "telemetry traffic run failed (exit ${traffic_tel_rc})")
endif()

if(NOT traffic_base STREQUAL traffic_tel)
  message(FATAL_ERROR
    "telemetry perturbs the traffic-run stdout\n"
    "--- baseline ---\n${traffic_base}\n"
    "--- telemetry ---\n${traffic_tel}")
endif()
message(STATUS "traffic stdout is byte-identical with telemetry on")

# The session id joins the diag sidecars of the baseline-config rerun and
# the telemetry rerun: same semantic flags => same session, so artifacts
# from both runs can be correlated after the fact.
file(READ ${out_dir}/traffic_diag.json traffic_diag)
string(REGEX MATCH "\"session\": \"[0-9a-f]+\"" traffic_session
       "${traffic_diag}")
execute_process(
  COMMAND ${DAS_SIM} ${traffic} --jobs=2 --diag=${out_dir}/traffic_diag2.json
  OUTPUT_VARIABLE traffic_jobs2
  RESULT_VARIABLE traffic_jobs2_rc)
if(NOT traffic_jobs2_rc EQUAL 0)
  message(FATAL_ERROR "diag traffic rerun failed (exit ${traffic_jobs2_rc})")
endif()
file(READ ${out_dir}/traffic_diag2.json traffic_diag2)
if(NOT traffic_diag2 MATCHES "${traffic_session}")
  message(FATAL_ERROR
    "session id is not stable across --jobs / telemetry flags\n"
    "--- first ---\n${traffic_diag}\n"
    "--- second ---\n${traffic_diag2}")
endif()
message(STATUS "session id is stable across --jobs and telemetry flags")

# --- Pinned session ids: the canonical configuration string is a contract.
# Each row is "<expected id>|<flags>"; every run also gets --gib=1 --nodes=8.
# The rows cover the always-hashed flags, the two appended-when-given flags
# (--kernel-cost, --access) and a cache mix. A change that reorders, renames
# or re-spells the canonical string moves these ids. ---
set(session_pins
  "3a4371959bbd3921|--scheme=TS"
  "87941bbb4cd2644a|--scheme=DAS --kernel-cost=flow-routing:2"
  "82d485c2b5486de4|--scheme=TS --access=strided:8"
  "ec795dbb02d1603d|--scheme=NAS --repeats=2 --cache-mib=64 --cache-policy=lfu")
foreach(pin IN LISTS session_pins)
  string(REPLACE "|" ";" pin_parts "${pin}")
  list(GET pin_parts 0 want)
  list(GET pin_parts 1 pin_flags)
  separate_arguments(pin_args UNIX_COMMAND "${pin_flags}")
  execute_process(
    COMMAND ${DAS_SIM} --gib=1 --nodes=8 ${pin_args}
            --diag=${out_dir}/pin_diag.json
    OUTPUT_QUIET
    RESULT_VARIABLE pin_rc)
  if(NOT pin_rc EQUAL 0)
    message(FATAL_ERROR "pinned-session run failed (exit ${pin_rc}): ${pin_flags}")
  endif()
  file(READ ${out_dir}/pin_diag.json pin_diag)
  if(NOT pin_diag MATCHES "\"session\": \"${want}\"")
    message(FATAL_ERROR
      "session id moved for ${pin_flags}: want ${want}, got\n${pin_diag}")
  endif()
endforeach()
message(STATUS "pinned session ids are unchanged")

file(REMOVE_RECURSE ${out_dir})

# The das_sim gate table: one block per ctest gate, one verb or helper call
# per row (see gate_runner.cmake). These rows are the contract that keeps
# every paper-facing output byte-identical while code under it changes: add
# a check as a row here, never as a new script.

# Flag sets several gates share.
set(NAS "--scheme=NAS --kernel=flow-routing --gib=1 --nodes=8 --csv")
set(TRAFFIC "--tenants=4 --tenant-jobs=4 --arrival-rate=2 --job-mib=4 --gib=1 \
--nodes=8 --stragglers=1 --slowdown=8 --hedge=on")

if(GATE STREQUAL "prefetch_off_baseline")
  # Cache and prefetch explicitly off, and tracing (serial and on a parallel
  # sweep whose per-cell tracers merge in cell order), are inert: the NAS
  # CSV stays byte-identical to a run that never mentions them.
  same(cache-prefetch-off "${NAS}"
       "${NAS} --cache-mib=0 --prefetch=off --prefetch-depth=8")
  same(traced "${NAS}" "${NAS} --trace=@/trace.json")
  same(traced-jobs4 "${NAS}" "${NAS} --jobs=4 --trace=@/trace_jobs.json")

elseif(GATE STREQUAL "jobs_equivalence")
  # Eight (oversubscribed) sweep threads reproduce the serial multi-scheme,
  # multi-trial sweep CSV: no shared mutable state between cells (logger,
  # tracer, rng, caches), no ordering dependence in collecting results.
  set(sweep "--scheme=all --kernel=flow-routing --gib=1 --nodes=8 --trials=2 \
--repeats=2 --cache-mib=64 --csv")
  same(jobs8 "${sweep} --jobs=1" "${sweep} --jobs=8")

elseif(GATE STREQUAL "trace_validate")
  # A cached, prefetched NAS sweep writes a Chrome trace that parses as JSON
  # and covers every instrumented subsystem, and a well-formed audit CSV.
  set(run "--scheme=NAS --kernel=flow-routing --gib=1 --nodes=8 --repeats=2 \
--cache-mib=64 --prefetch-depth=2 --csv --trace=@/trace.json --audit=@/audit.csv")
  trace_ok(trace "${run}" net disk compute cache prefetch request)
  audit_ok(audit "${run}")

elseif(GATE STREQUAL "traffic_determinism")
  # Every traffic feature at once (admission, weighted fair queueing,
  # hedging, re-routing against stragglers): the summary and per-tenant SLO
  # CSV are byte-identical for any --jobs and across invocations.
  set(run "--tenants=8 --tenant-jobs=6 --arrival-rate=2 --job-mib=4 --gib=1 \
--nodes=8 --replicas=3 --stragglers=1 --slowdown=8 --admission-mib=32 \
--fair-queue=on --weights=3,1 --hedge=on --reroute=on")
  same(jobs8 "${run} --jobs=1" "${run} --jobs=8")
  same(repeat "${run} --jobs=1" "${run} --jobs=1 #again")
  shape(slo-csv "${run} --jobs=1" stdout "tenant,jobs,bytes,deferred")

elseif(GATE STREQUAL "traffic_single_tenant_baseline")
  # One tenant with every traffic feature off routes through the classic
  # sweep: its CSV is byte-identical to the classic run's.
  same(one-tenant "${NAS}" "${NAS} --tenants=1 --arrival-rate=1.0 \
--admission-mib=0 --fair-queue=off --hedge=off --reroute=off")

elseif(GATE STREQUAL "migration_off_baseline")
  # Migration off (a threshold still given) is inert on the repeated-pass
  # path where its hook lives; migration on keeps the CSV schema.
  set(run "--scheme=NAS --kernel=flow-routing --gib=1 --nodes=8 --repeats=3 \
--csv")
  same(migrate-off "${run}" "${run} --migrate=false --migrate-threshold=2.0")
  same(migrate-on-header "${run}" "${run} --migrate=true" HEADER)

elseif(GATE STREQUAL "telemetry_off_baseline")
  # The telemetry plane only adds files: stdout and the simulation events of
  # the trace stay as without it, its sidecars are well-formed, the metrics
  # CSV reproduces, and the session id ignores --jobs and telemetry flags.
  set(tel "${NAS} --trace=@/tel.json --metrics=@/tel.csv \
--metrics-prom=@/tel.prom --spans=on --flight-record=@/flight.json \
--diag=@/tel_diag.json")
  set(tel_traffic "${TRAFFIC} --metrics=@/traffic.csv --spans=on \
--diag=@/traffic_diag.json")
  same(classic-stdout "${NAS} --trace=@/base.json" "${tel}")
  trace_ok(base-trace "${NAS} --trace=@/base.json" net disk compute)
  trace_ok(tel-trace "${tel}" net disk compute)
  shape(tel-trace-session "${tel}" trace "\"session\"")
  shape(metrics-csv "${tel}" metrics "^time_s,")
  shape(metrics-prom "${tel}" metrics-prom "# TYPE das_")
  shape(flight-record "${tel}" flight-record)
  shape(diag "${tel}" diag "\"session\"" "\"sim_events\"")
  same(metrics-repeat "${tel}" "${NAS} --metrics=@/repeat.csv --spans=on"
       SIDECAR metrics)
  same(traffic-stdout "${TRAFFIC}" "${tel_traffic}")
  same(traffic-session "${tel_traffic}"
       "${TRAFFIC} --jobs=2 --diag=@/traffic_diag2.json" SESSION)
  # Pinned session ids: the canonical configuration string is a contract.
  # The rows cover the always-hashed flags, the two appended-when-given
  # flags (--kernel-cost, --access) and a cache mix; reordering, renaming
  # or re-spelling the canonical string moves them.
  session(3a4371959bbd3921 "--gib=1 --nodes=8 --scheme=TS")
  session(87941bbb4cd2644a
          "--gib=1 --nodes=8 --scheme=DAS --kernel-cost=flow-routing:2")
  session(82d485c2b5486de4 "--gib=1 --nodes=8 --scheme=TS --access=strided:8")
  session(ec795dbb02d1603d "--gib=1 --nodes=8 --scheme=NAS --repeats=2 \
--cache-mib=64 --cache-policy=lfu")

elseif(GATE STREQUAL "listio_off_baseline")
  # Without --access the list-I/O request plane is inert: the classic matrix
  # and a traffic run match outputs committed before it existed. Dense
  # access (strided:1) changes only the session stamp; span sampling
  # changes neither stdout nor the session id; sparse access forks both.
  golden(matrix "--scheme=all --kernel=all --gib=1 --nodes=8 --csv" matrix.csv)
  golden(traffic "${TRAFFIC}" traffic.txt)
  golden(dense-access "${TRAFFIC} --access=strided:1" traffic.txt MASK_SESSION)
  golden(span-sample "${TRAFFIC} --span-sample=4 --diag=@/sampled.json"
         traffic.txt)
  same(span-sample-session "${TRAFFIC} --span-sample=4 --diag=@/sampled.json"
       "${TRAFFIC} --diag=@/unsampled.json" SESSION)
  differs(sparse-access "--scheme=TS --kernel=laplacian-4 --gib=1 --nodes=8 \
--csv --access=strided:8" golden:matrix.csv)

elseif(GATE STREQUAL "cli_reject_cases")
  # Every input below once ended in a signal, a DAS_REQUIRE abort, a bare
  # library message ("stod", std::bad_alloc) or a silent run; each must exit
  # 2 naming the flag and value. A row is the flag under test plus any flags
  # the case needs, after a small single-cell base command.
  set(REJECT_BASE "--gib=1 --scheme=TS --kernel=flow-routing")
  foreach(case
      "--strip-kib=0" "--strip-kib=abc" "--trials=0" "--window=0"
      "--repeats=0" "--nodes=0" "--nodes=3" "--gib=-1" "--gib=0"
      "--cache-mib=-5" "--group=0" "--pipeline=0" "--jobs=-1"
      "--stragglers=13" "--slowdown=0" "--nic-mibps=0" "--startup-s=-1"
      "--jitter-pct=100" "--migrate-threshold=nan" "--slo-budget=0"
      "--weights=abc --tenants=4" "--datasets=0 --tenants=4"
      "--arrival-rate=0 --tenants=4" "--job-mib=2000 --tenants=4"
      "--repeats=4 --access=strided:8" "--pipeline=4 --access=strided:8"
      "--pre-distributed=false --access=strided:8"
      "--migrate=true --access=strided:8" "--bogus=1 --calibrate-kernels"
      "--scheme=XX" "--kernel=nope" "--log-level=bogus" "--kernel-isa=avx512"
      "--cache-policy=bogus --cache-mib=64" "--access=strided:4294967297"
      "--kernel-cost=flow-routing:inf")
    reject("${case}")
  endforeach()
  reject_matrix()
  # Flags off their default in a mode they do not act in: the matrix, and
  # the text flags it has no valid value for.
  set(BASE_classic "${REJECT_BASE}")
  set(BASE_list "${REJECT_BASE} --access=strided:8")
  set(BASE_traffic "--gib=1 --tenants=4")
  mode_matrix()
  reject("--kernel=all" "${BASE_traffic}")
  reject("--weights=3,1" "${BASE_classic}")
  reject("--weights=3,1" "${BASE_list}")

elseif(GATE STREQUAL "diag_process_cost")
  # process_wall_seconds runs from main entry to the sidecar write;
  # wall_seconds sums the cells' event loops. Serially the loops fit inside
  # the process; on a --jobs=2 sweep they overlap, but never past 2 x the
  # process time. Both read a real peak RSS.
  set(run "--scheme=all --kernel=flow-routing --gib=1 --nodes=8")
  diag_budget(jobs1 "${run} --jobs=1 --diag=@/jobs1.json")
  diag_budget(jobs2 "${run} --jobs=2 --diag=@/jobs2.json")
endif()

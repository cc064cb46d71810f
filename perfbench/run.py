#!/usr/bin/env python3
"""Whole-process benchmark of the DAS simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 40 --trace 0

The first run in a checkout builds the simulator libraries and the pass
driver (perfbench/dasbench.cpp) into .bench_build/. Every timed pass is a
fresh `dasbench pass` process, as a das_sim invocation is; this script
times it from outside, reads its peak RSS from the child's rusage, and
checks every simulated result it prints.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
traced and untraced passes side by side plus the standalone layer probes
and prints the per-layer metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The span trace of a
traced run is written to .bench_out/. See perfbench/METRICS.md.

--write-expected re-records perfbench/expected.json from one pass of each
workload at the default seed. Use it only for a deliberate change of
simulated results, and name the columns that moved.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORKLOADS = ("paper-sweep", "tenant-storm", "verified-raster")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150
MIN_PASSES = 3
# tenant-storm schedules per run seed, and how many of the default seed's
# schedules expected.json records.
SCHEDULES_PER_SEED = 1000
EXPECTED_SCHEDULES = 16

# The cell `dasbench check` runs twice in one process, per workload.
CHECK_CELL = {"paper-sweep": "nas-cache-60g", "tenant-storm": "storm",
              "verified-raster": "ts-flow-32m"}
# What a tenant-storm cell must reproduce exactly: the SLO table (its
# FNV-1a hash and "all" row) and the straggler, fair-queue and telemetry
# counters.
STORM_FIELDS = ("slo_fnv1a", "slo_all_row", "makespan_s", "events",
                "scheduled", "jobs", "reads", "reroutes", "hedges",
                "hedges_won", "wasted_bytes", "wfq_msgs", "wfq_reads",
                "slo_alerts", "spans_finished")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def input_seed(workload, seed, k):
    """Input seed of pass k of a run. A tenant-storm schedule's length is
    set by the last of 1000 tenants' Poisson arrivals, so it varies widely
    between schedules (150-245 simulated seconds, and the metrics sampler's
    memory with it): each pass draws its own schedule and the run reports
    the median over them. The classic workloads' passes share the run seed."""
    if workload == "tenant-storm":
        return seed * SCHEDULES_PER_SEED + k
    return seed


# ------------------------------------------------------------------ build

def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure and build dasbench; returns its path. Exits 1 on failure."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "dasbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "dasbench")


# ------------------------------------------------------------- children

class Child:
    """One finished dasbench process: its JSON lines, timing and rusage."""

    def __init__(self, lines, ok, wall_s, start_ns, end_ns, rss_kib):
        self.lines = lines
        self.ok = ok
        self.wall_s = wall_s
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.rss_kib = rss_kib

    def of_type(self, kind):
        return [d for d in self.lines if d.get("type") == kind]


def spawn(binary, args):
    start = time.monotonic_ns()
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    raw = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic_ns()
    killer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = []
    for text in raw.decode("utf-8", "replace").splitlines():
        try:
            lines.append(json.loads(text))
        except json.JSONDecodeError:
            pass
    return Child(lines, proc.returncode == 0, (end - start) / 1e9, start, end,
                 usage.ru_maxrss)


# ------------------------------------------------------------ correctness

class Checker:
    """Counts cells attempted and failed, by the rules of METRICS.md."""

    def __init__(self, workload, seed, expected):
        self.workload = workload
        self.seed = seed
        self.expected = expected[workload]   # input seed -> expected cells
        self.cells = list(next(iter(self.expected.values()))["cells"])
        self.first = {}      # (cell, input seed) -> signature of first result
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def signature(self, cell):
        if "rows" in cell:
            return "\n".join(cell["rows"])
        return json.dumps({k: cell[k] for k in STORM_FIELDS}, sort_keys=True)

    def check_cell(self, cell, label, pass_seed, armed):
        name = cell["cell"]
        key = (name, pass_seed)
        if "error" in cell:
            return f"{label}: {name} threw: {cell['error']}"
        if self.workload == "verified-raster" and not cell["verified"]:
            return f"{label}: {name} output not verified"
        if self.workload == "tenant-storm":
            if cell["jobs"] != cell["scheduled"]:
                return (f"{label}: {name} completed {cell['jobs']} of "
                        f"{cell['scheduled']} jobs")
            if not armed:
                # An unarmed pass has no telemetry plane: it must simulate
                # the same system, so only its SLO table is compared.
                ref = self.first.get(key)
                if ref is not None and json.loads(ref)["slo_fnv1a"] != \
                        cell["slo_fnv1a"]:
                    return f"{label}: {name} SLO table moved without telemetry"
                return None
        golden = self.expected.get(str(pass_seed))
        if golden is not None:
            want = golden["cells"][name]
            if "rows" in cell and cell["rows"] != want["rows"]:
                return f"{label}: {name} rows differ from expected"
            if "rows" not in cell:
                moved = [k for k in STORM_FIELDS if cell[k] != want[k]]
                if moved:
                    return f"{label}: {name} {', '.join(moved)} differ " \
                           f"from expected"
        sig = self.signature(cell)
        if self.first.setdefault(key, sig) != sig:
            return f"{label}: {name} differs from an earlier pass"
        return None

    def check_pass(self, child, label, pass_seed, armed=True):
        """Checks one pass; returns its cells by name."""
        cells = {c["cell"]: c for c in child.of_type("cell")}
        for name in self.cells:
            self.attempted += 1
            if not child.ok:
                self.fail(f"{label}: pass process failed")
            elif name not in cells:
                self.fail(f"{label}: {name} not reported")
            else:
                problem = self.check_cell(cells[name], label, pass_seed,
                                          armed)
                if problem:
                    self.fail(problem)
        return cells

    def check_repeat(self, child):
        self.attempted += 1
        rows = child.of_type("check")
        if not child.ok or not rows or not rows[0]["identical"]:
            self.fail(f"check: two in-process runs of "
                      f"{CHECK_CELL[self.workload]} differ or failed")


# ----------------------------------------------------------------- passes

def loop_seconds(cells):
    return sum(c.get("loop_s", 0.0) for c in cells.values())


def outside_loop_seconds(workload, child, cells):
    """Pass seconds outside the simulators' event loops. The traffic report
    carries no loop time, so on tenant-storm the whole run_traffic call
    counts as loop and the rest of the process is set-up."""
    if workload == "tenant-storm":
        inside = sum(c.get("run_s", 0.0) for c in cells.values())
    else:
        inside = loop_seconds(cells)
    return child.wall_s - inside


def events(cells):
    return sum(c.get("events", 0) for c in cells.values())


def run_pass(binary, checker, k, label, trace=False, armed=True):
    pass_seed = input_seed(checker.workload, checker.seed, k)
    args = ["pass", checker.workload, str(pass_seed)]
    if trace:
        args.append("--trace")
    if not armed:
        args.append("--unarmed")
    child = spawn(binary, args)
    cells = checker.check_pass(child, label, pass_seed, armed)
    return child, cells


def fits(started, seconds, next_s):
    """True if work expected to take next_s seconds ends within the run."""
    return time.monotonic() - started + next_s <= seconds


def check_repeat(binary, checker):
    checker.check_repeat(spawn(binary, [
        "check", checker.workload,
        str(input_seed(checker.workload, checker.seed, 0)),
        CHECK_CELL[checker.workload]]))


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k]


# ------------------------------------------------------------ end-to-end

def end_to_end(binary, checker, seconds):
    """Passes until the next one would end after `seconds` (the repeat
    check, run first, counts against the same budget)."""
    started = time.monotonic()
    check_repeat(binary, checker)
    walls, setups, rates, rss = [], [], [], []
    while len(walls) < MIN_PASSES or fits(started, seconds,
                                          statistics.median(walls)):
        child, cells = run_pass(binary, checker, len(walls),
                                f"pass {len(walls) + 1}")
        walls.append(child.wall_s)
        setups.append(outside_loop_seconds(checker.workload, child, cells))
        rates.append(events(cells) / child.wall_s)
        rss.append(child.rss_kib / 1024.0)
    log(f"{checker.workload} pass wall_s: "
        + " ".join(f"{v:.3f}" for v in walls))
    log(f"{checker.workload} pass peak_rss_mib: "
        + " ".join(f"{v:.1f}" for v in rss))
    samples = {"wall_s": walls, "setup_s": setups, "events_per_s": rates}
    for name, values in samples.items():
        t = tail(values)
        t_text = (f"p{t[0]:.0f} {t[1]:.6g}" if t else
                  "no percentile has 10 samples beyond it")
        log(f"{checker.workload} {name}: median {statistics.median(values):.6g}"
            f" over n={len(values)} passes; {t_text}")
    values = {name: statistics.median(v) for name, v in samples.items()}
    # Peak memory is what a run must be provisioned for: the largest pass.
    # (On tenant-storm it is 24 or 32 MiB depending on the schedule.)
    values["peak_rss_mib"] = max(rss)
    return values


# --------------------------------------------------------------- tracing

def self_times(spans):
    """Self seconds per layer: each span's duration minus the part of its
    interval its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo = max(c["start_ns"], reach)
            hi = min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = (s["end_ns"] - s["start_ns"] - covered) / 1e9
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out


def pass_spans(child, pass_id):
    """The child's spans under one `process` span timed from outside."""
    spans = [{"id": 1, "parent": 0, "name": "process", "layer": "process",
              "start_ns": child.start_ns, "end_ns": child.end_ns}]
    for row in child.of_type("spans"):
        for s in row["spans"]:
            spans.append(dict(s, id=s["id"] + 1,
                              parent=s["parent"] + 1 if s["parent"] else 1))
    for s in spans:
        s["pass"] = pass_id
    return spans


def median_of(dicts, key):
    return statistics.median(d.get(key, 0.0) for d in dicts)


def run_probes(binary, checker, cells, m):
    """The standalone layer probes, at the input shape and counts of the
    workload's first traced pass."""
    w = checker.workload
    seed = str(input_seed(w, checker.seed, 0))
    args = ["probe", w, seed, "--events", str(events(cells))]
    if w == "tenant-storm":
        args += ["--reads", str(cells["storm"]["reads"])]
    probe = spawn(binary, args)
    if not probe.ok:
        checker.fail("probe process failed")
    for row in probe.of_type("probe"):
        m[row["name"]] = row["value"]
    if w == "paper-sweep":
        strips, growth, create_s = 0, 0, 0.0
        for cell in checker.cells:
            c = spawn(binary, ["probe-create-file", seed, cell])
            rows = c.of_type("create_file")
            if not c.ok or not rows:
                checker.fail(f"create_file probe of {cell} failed")
                continue
            strips += rows[0]["strips"]
            growth += rows[0]["rss_growth_bytes"]
            create_s += rows[0]["seconds"]
        m["pfs.create_file_s"] = create_s
        m["pfs.rss_bytes_per_strip"] = growth / max(strips, 1)


def per_layer(binary, checker, seconds, names):
    """Cycles of untraced + traced (+ unarmed, on tenant-storm) passes of
    one input seed each, the repeat check and the probes, within
    `seconds` (at least two cycles)."""
    w = checker.workload
    storm = w == "tenant-storm"
    m = {name: 0.0 for name in names}
    started = time.monotonic()
    check_repeat(binary, checker)
    traced, untraced, unarmed, trace_pairs, armed_pairs = [], [], [], [], []
    spans, selfs, cycle_s = [], [], []
    while len(cycle_s) < 2 or fits(started, seconds,
                                   statistics.median(cycle_s)):
        cycle_start = time.monotonic()
        cycle = len(cycle_s) + 1
        u = run_pass(binary, checker, cycle - 1, f"untraced {cycle}")
        t = run_pass(binary, checker, cycle - 1, f"traced {cycle}",
                     trace=True)
        untraced.append(u)
        traced.append(t)
        trace_pairs.append(t[0].wall_s / u[0].wall_s)
        pass_id = f"{w}/seed{checker.seed}/traced{cycle}"
        tree = pass_spans(t[0], pass_id)
        spans.extend(tree)
        selfs.append(self_times(tree))
        if storm:
            n = run_pass(binary, checker, cycle - 1, f"unarmed {cycle}",
                         armed=False)
            unarmed.append(n)
            armed_pairs.append(u[0].wall_s / n[0].wall_s)
        cycle_s.append(time.monotonic() - cycle_start)
        if cycle == 1:
            run_probes(binary, checker, t[1], m)

    runs = [cells for _, cells in traced]
    ev = statistics.median(events(c) for c in runs)
    loop = statistics.median(loop_seconds(c) for c in runs)
    m["simkit.events"] = ev
    m["simkit.loop_s"] = loop
    m["simkit.loop_ns_per_event"] = loop * 1e9 / ev if ev and loop else 0.0

    # Counters of the classic reports (simulated, so equal in every pass).
    cells = runs[0]
    classic = [c for c in cells.values() if "rows" in c]
    if classic:
        def total(key):
            return sum(c[key] for c in classic)
        m["net.cli_srv_bytes"] = total("cli_srv_bytes")
        m["net.srv_srv_bytes"] = total("srv_srv_bytes")
        m["net.control_msgs"] = total("control_msgs")
        m["net.nic_util"] = total("nic_util") / len(classic)
        m["storage.disk_util"] = total("disk_util") / len(classic)
        m["cache.hits"] = total("cache_hits")
        m["cache.misses"] = total("cache_misses")
        m["cache.evictions"] = total("cache_evictions")
        lookups = m["cache.hits"] + m["cache.misses"]
        m["cache.hit_rate"] = m["cache.hits"] / lookups if lookups else 0.0
        m["pfs.prefetch_issued"] = total("prefetch_issued")
        m["pfs.prefetch_hits"] = total("prefetch_hits")
        m["pfs.prefetch_useful"] = (m["pfs.prefetch_hits"] /
                                    m["pfs.prefetch_issued"]
                                    if m["pfs.prefetch_issued"] else 0.0)
        m["pfs.list_wire_bytes"] = sum(c["cli_srv_bytes"] for c in classic
                                       if c["list"])
        for name in cells:
            m[f"core.{name}.run_s"] = statistics.median(
                r[name]["run_s"] for r in runs)
            m[f"core.{name}.outside_loop_s"] = statistics.median(
                r[name]["run_s"] - r[name]["loop_s"] for r in runs)
    if storm:
        s = cells["storm"]
        m["net.wfq_msgs"] = s["wfq_msgs"]
        m["storage.wfq_reads"] = s["wfq_reads"]
        m["traffic.jobs"] = s["jobs"]
        m["traffic.reads"] = s["reads"]
        m["traffic.reroutes"] = s["reroutes"]
        m["traffic.hedges"] = s["hedges"]
        m["traffic.hedges_won"] = s["hedges_won"]
        m["traffic.hedge_win_ratio"] = (s["hedges_won"] / s["hedges"]
                                        if s["hedges"] else 0.0)
        m["traffic.wasted_bytes"] = s["wasted_bytes"]
        run_s = statistics.median(r["storm"]["run_s"] for r in runs)
        m["traffic.loop_ns_per_event"] = run_s * 1e9 / s["events"]
        m["telemetry.spans_finished"] = s["spans_finished"]
        m["telemetry.overhead_ratio"] = statistics.median(armed_pairs)

    # Spans: self time per layer, binding layer, tracing overhead.
    layers = sorted({k for d in selfs for k in d})
    self_s = {layer: median_of(selfs, layer) for layer in layers}
    for layer, value in self_s.items():
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] = value
    traced_wall = statistics.median(c.wall_s for c, _ in traced)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = statistics.median(c.wall_s
                                                   for c, _ in untraced)
    m["trace.overhead_ratio"] = statistics.median(trace_pairs)
    binding = max(self_s, key=self_s.get)
    accounted = statistics.median(sum(d.values()) for d in selfs)
    log(f"{w}: self seconds per layer (median of {len(selfs)} traced passes): "
        + ", ".join(f"{k}={v:.4f}" for k, v in
                    sorted(self_s.items(), key=lambda kv: -kv[1])))
    log(f"{w}: binding layer {binding}; self times sum to {accounted:.4f} s "
        f"of traced wall_s {traced_wall:.4f} s; tracing overhead "
        f"{m['trace.overhead_ratio']:.4f}x (traced/untraced, adjacent pairs)")
    if w == "verified-raster":
        # What the probes say the time inside core's set-up is made of.
        n = 8 * 1024 * 1024  # cells per 32 MiB raster
        grid_s = n * (6 * m["grid.dem_ns_per_cell"] +
                      2 * m["grid.image_ns_per_cell"]) / 1e9
        kern_s = n * (3 * m["kernels.flow-routing.ref_ns_per_cell"] +
                      m["kernels.gaussian-2d.ref_ns_per_cell"]) / 1e9
        log(f"{w}: probes put ~{grid_s:.3f} s of core's self time in grid "
            f"input generation (make_input x2 per cell) and ~{kern_s:.3f} s "
            f"in kernel references")

    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"trace-{w}-seed{checker.seed}.json")
    with open(path, "w") as f:
        json.dump({"workload": w, "seed": checker.seed, "self_s": self_s,
                   "binding_layer": binding, "spans": spans,
                   "metrics": m}, f)
    log(f"{w}: spans written to {path}")
    return m


# ------------------------------------------------------------------ main

def load_manifest():
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    return ({m["name"]: m["unit"] for m in manifest["end_to_end"]},
            {m["name"]: m["unit"] for m in manifest["per_layer"]})


def write_expected(binary):
    expected = {"default_seed": DEFAULT_SEED}
    for w in WORKLOADS:
        expected[w] = {}
        schedules = EXPECTED_SCHEDULES if w == "tenant-storm" else 1
        for k in range(schedules):
            seed = input_seed(w, DEFAULT_SEED, k)
            expected[w][str(seed)] = {"cells": expected_cells(binary, w, seed)}
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1)
        f.write("\n")
    log(f"perfbench: wrote {EXPECTED_PATH}")


def expected_cells(binary, w, seed):
    child = spawn(binary, ["pass", w, str(seed)])
    if not child.ok:
        sys.exit(f"perfbench: {w} pass failed")
    cells = {}
    for c in child.of_type("cell"):
        if "error" in c:
            sys.exit(f"perfbench: {w} {c['cell']}: {c['error']}")
        if "rows" in c:
            cells[c["cell"]] = {"rows": c["rows"]}
            if w == "verified-raster":
                cells[c["cell"]]["verified"] = c["verified"]
        else:
            cells[c["cell"]] = {k: c[k] for k in STORM_FIELDS}
    return cells


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.write_expected and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.write_expected:
        write_expected(binary)
        return 0

    e2e_units, layer_units = load_manifest()
    with open(EXPECTED_PATH) as f:
        expected = json.load(f)
    info = spawn(binary, ["info"]).of_type("info")[0]
    nproc = len(os.sched_getaffinity(0))
    log(f"perfbench: workload={args.workload} seed={args.seed} "
        f"build={info['build_type']} nproc={nproc} isa={info['isa']}")

    checker = Checker(args.workload, args.seed, expected)
    if args.trace:
        values, units = per_layer(binary, checker, args.seconds,
                                  layer_units), layer_units
        values["failed_frac"] = checker.failed / checker.attempted
    else:
        values, units = end_to_end(binary, checker, args.seconds), e2e_units
    for problem in checker.failures:
        log("FAILED " + problem)
    log(f"{args.workload}: failed_frac {checker.failed}/{checker.attempted}")

    if set(units) != set(values):
        sys.exit(f"perfbench: metrics computed {sorted(values)} differ from "
                 f"BENCHMARK.json {sorted(units)}")
    print(f"# env build={info['build_type']} nproc={nproc} isa={info['isa']}")
    for name in units:
        print(f"# {name} = {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

// das_sim — command-line driver for the simulator.
//
// Runs any (scheme, kernel, size, cluster) combination with full control
// over the model parameters, optionally repeating trials under disk jitter
// and reporting mean +- stddev, and optionally emitting CSV for plotting.
//
// Every flag is one row of kFlags below: name, kind, session role, the run
// modes it acts in, default, help line and accepted range or values.
// `das_sim --help` prints the table. Before anything runs, every given flag
// is checked against its row: an unknown flag, a value that does not parse,
// an out-of-range number or a bad choice exits 2 with "das_sim:
// --flag=value: want ...". Checks that relate two flags (an even --nodes,
// --stragglers at most half of it, ...) follow in main, and last the mode
// check: a flag given off its default in a run mode it does not act in
// (classic sweep, sparse list sweep or traffic) exits 2 instead of being
// silently dropped. All of this happens before any simulation.
//
// Sparse access (--access, src/core/list_access.hpp): instead of the full
// raster sweep, read only every K-th row (strided:K), the middle column
// (column), or the "offset length" runs of a trace file — each fetched run
// padded with the kernel's stencil halo — through the list-I/O request
// plane (pfs/region.hpp, DESIGN §15). TS then moves only runs + list
// headers over the wire (client_server_bytes is the bytes-moved metric);
// NAS sweeps the whole file (active storage computes every output), DAS
// does whichever of the two its list-aware decision picks, and the table
// gains one "list-io ..." pricing line per row showing that decision. A
// sparse run is one pass of one operation on the scheme's default layout,
// so --repeats, --pipeline, --pre-distributed and --migrate act in classic
// mode only. Under traffic mode, --access=strided:K makes every job fetch
// each strip's every-K-th 4 KiB row unit as one list request.
//
// --compute-mibps=auto runs the kernel calibration sweep once at startup
// and feeds the measured anchor rate plus per-kernel cost factors into the
// cluster (explicit --kernel-cost entries still win); the session id hashes
// the *resolved* values, so runs calibrated on different machines do not
// collide. --span-sample=N tracks 1 of every N request spans, chosen by a
// deterministic hash of the span mint counter (the same subset for any
// --jobs); multiply span hop totals by N to estimate whole-run attribution.
//
// Vectorized kernel engine (src/kernels/simd.hpp): --kernel-isa pins the
// kernels to a narrower instruction set than the CPU supports (auto =
// widest detected; requesting an unsupported ISA is an error). das_sim
// always simulates in timing mode, where no kernel runs, so the flag
// governs only the kernels calibration measures: --calibrate-kernels, which
// prints this machine's real cells/sec and the recommended --compute-mibps
// and --kernel-cost values and exits, and --compute-mibps=auto. Every ISA
// produces bit-identical outputs. --kernel-cost overrides the per-kernel
// compute cost factors the simulated compute engines, classic and traffic
// alike, charge (unlisted kernels keep their built-in guess).
//
// --jobs=N runs the sweep's independent (kernel, scheme, trial) cells on N
// worker threads (runner::default_jobs() for 0, the same mapping the bench
// binaries use). Every cell simulates in its own run context, and all
// output is printed after the sweep in cell order, so stdout, CSV, trace
// and audit files are byte-identical for any N.
//
// Traffic mode (multi-tenant open-loop workload, src/traffic/) engages when
// --tenants > 1, a --trace-file is given, or any traffic feature
// (--admission-mib/--fair-queue/--hedge/--reroute) is enabled. N tenants
// then submit Poisson or trace-replayed jobs against one shared cluster,
// and the per-tenant SLO table (p50/p95/p99 sojourn/service) goes to
// --slo=FILE or stdout. --tenants=1 with every feature off deliberately
// routes through the classic sweep path, so the single-tenant system is
// byte-for-byte the pre-traffic simulator (like --prefetch=off).
// --trace=FILE writes a Chrome trace-event / Perfetto-loadable JSON
// timeline of every NIC, disk, compute, cache and prefetch event. Multiple
// runs in one invocation merge into one buffer and each restarts simulated
// time at zero, so the flag is most useful with a single
// scheme/kernel/trial. --audit=FILE writes one predicted-vs-observed
// decision-audit CSV row per run.
//
// Telemetry plane (src/telemetry/): --metrics samples every enrolled counter
// /gauge/histogram into a columnar CSV time series, --metrics-prom writes a
// Prometheus text exposition of the final values, --spans tracks causal
// request spans (per-hop critical-path attribution in the report table),
// --slo-target-ms arms the per-tenant burn-rate monitor, and
// --flight-record dumps the span flight-recorder ring captured at each SLO
// alert. --diag writes a small JSON sidecar for CI trending: the event
// loops' summed wall seconds and event count, plus the whole process's wall
// seconds (main entry to the sidecar write) and peak resident MiB. Every
// output — trace, audit, SLO table, metrics, diag — is stamped with one
// session id hashed from the flags whose session role is not "never", so
// all artifacts of one experiment join on one key. With every telemetry
// flag off, outputs are byte-identical to a binary that never heard of them.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/scheme.hpp"
#include "kernels/calibrate.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "runner/args.hpp"
#include "runner/paper.hpp"
#include "runner/sweep.hpp"
#include "simkit/context.hpp"
#include "simkit/log.hpp"
#include "simkit/trace.hpp"
#include "telemetry/plane.hpp"
#include "traffic/engine.hpp"

namespace {

using das::runner::Args;

enum class Kind { kInt, kReal, kBool, kChoice, kText };

/// How a flag joins the canonical string the session id is hashed from.
/// kAlways rows contribute "name=raw-value;" (empty when absent) in table
/// order; kWhenGiven rows follow, in table order, only when given a
/// non-empty value, so configurations from before the flag existed keep
/// their session ids. Worker count, output paths, telemetry and the kernel
/// ISA (bit-identical outputs) are kNever: one experiment keeps one id
/// across them.
enum class Session { kNever, kAlways, kWhenGiven };

/// The run modes a flag acts in, as a bit set: the classic dense sweep, a
/// sparse --access sweep over list I/O, and the multi-tenant traffic engine.
enum Modes : unsigned {
  kClassic = 1,
  kList = 2,
  kTraffic = 4,
  kSweeps = kClassic | kList,
  kAny = kSweeps | kTraffic,
};

constexpr double kInf = HUGE_VAL;
constexpr double kU32 = UINT32_MAX;

/// Accepted numeric range; `hi` is inclusive, and unbounded when infinite.
struct Range {
  double lo = 0.0;
  double hi = kInf;
  bool lo_open = false;  ///< kReal only: `lo` itself is out of range.
};

constexpr Range kPositive = {0, kInf, true};

/// One command-line flag. `values` is the "|"-separated choice list for
/// kChoice, a word accepted besides the range for kInt, and the form a
/// value takes for kText, whose `valid` (when set) checks a given value.
struct Flag {
  const char* name;
  Kind kind;
  Session session;
  Modes modes;
  const char* fallback;  ///< the default, spelled as on the command line
  const char* help;
  Range range = {};
  const char* values = nullptr;
  bool (*valid)(const std::string&) = nullptr;
};

/// A whole integer, or a finite real, spanning all of `text`.
template <class T>
std::optional<T> parse_number(const std::string& text) {
  const char* const end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) return {};
  return value;
}

/// The words das::runner::Args::get_bool accepts.
std::optional<bool> parse_bool(const std::string& t) {
  if (t == "true" || t == "1" || t == "yes" || t == "on") return true;
  if (t == "false" || t == "0" || t == "no" || t == "off") return false;
  return {};
}

/// Split "a,b,c" at `sep`; a trailing separator adds no empty entry.
std::vector<std::string> split_list(const std::string& text, char sep = ',') {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find(sep, pos), text.size());
    out.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// --kernel: "all" or one registry kernel.
std::optional<std::vector<std::string>> parse_kernels(const std::string& v) {
  const auto registry = das::kernels::standard_registry();
  if (v == "all") return registry.names();
  if (!registry.contains(v)) return {};
  return std::vector<std::string>{v};
}

/// --kernel-cost="name:factor,...": registry kernels, finite factors > 0.
std::optional<das::core::ComputeCostModel> parse_kernel_cost(
    const std::string& text) {
  das::core::ComputeCostModel model;
  const auto registry = das::kernels::standard_registry();
  for (const std::string& entry : split_list(text)) {
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) return {};
    const std::string name = entry.substr(0, colon);
    const auto factor = parse_number<double>(entry.substr(colon + 1));
    if (!registry.contains(name) || !factor || !(*factor > 0.0)) return {};
    model.kernel_cost_factor[name] = *factor;
  }
  return model;
}

/// --weights="w,w,...": finite weights > 0, one per tenant.
std::optional<std::vector<double>> parse_weights(const std::string& text) {
  std::vector<double> weights;
  for (const std::string& entry : split_list(text)) {
    const auto w = parse_number<double>(entry);
    if (!w || !(*w > 0.0)) return {};
    weights.push_back(*w);
  }
  return weights;
}

/// --access: empty for the classic full sweep.
std::optional<das::core::AccessSpec> parse_access(const std::string& text) {
  if (text.empty()) return das::core::AccessSpec{};
  try {
    return das::core::AccessSpec::parse(text);
  } catch (const std::invalid_argument&) {
    return {};
  }
}

/// A kText row's check: `Parse` accepts the value.
template <auto Parse>
bool parses(const std::string& value) {
  return Parse(value).has_value();
}

using enum Kind;
using enum Session;

// The kAlways rows' relative order, and kernel-cost before access, are part
// of the session id: moving one re-keys every pinned experiment.
const Flag kFlags[] = {
    {"scheme", kChoice, kAlways, kSweeps, "all", "schemes to run", {},
     "all|TS|NAS|DAS|ts|nas|das"},
    {"kernel", kText, kAlways, kSweeps, "flow-routing", "kernels to run", {},
     "all or a registered kernel name", parses<parse_kernels>},
    {"gib", kInt, kAlways, kAny, "24", "input raster size, GiB",
     {1, 1 << 20}},
    {"nodes", kInt, kAlways, kAny, "24", "nodes (even; half storage)",
     {2, 1 << 16}},
    {"trials", kInt, kAlways, kSweeps, "1", "seeds per scheme and kernel",
     {1, kU32}},
    {"csv", kBool, kNever, kSweeps, "off", "CSV rows instead of the table"},
    {"jobs", kInt, kNever, kAny, "1", "sweep threads; 0 = one per core",
     {0, kU32}},
    {"strip-kib", kInt, kAlways, kAny, "1024", "strip size, KiB",
     {1, 1 << 20}},
    {"nic-mibps", kInt, kAlways, kAny, "110", "NIC bandwidth, MiB/s",
     {1, kU32}},
    {"disk-mibps", kInt, kAlways, kAny, "700", "disk bandwidth, MiB/s",
     {1, kU32}},
    {"compute-mibps", kInt, kAlways, kAny, "450", "compute rate, MiB/s",
     {1, kU32}, "auto"},
    {"startup-s", kInt, kAlways, kSweeps, "12", "job start-up time, s",
     {0, kU32}},
    {"jitter-pct", kInt, kAlways, kAny, "0", "disk jitter, percent", {0, 99}},
    {"stragglers", kInt, kAlways, kAny, "0", "slow servers, at most nodes/2",
     {0, 1 << 15}},
    {"slowdown", kInt, kAlways, kAny, "1", "straggler slowdown factor",
     {1, kU32}},
    {"group", kInt, kAlways, kSweeps, "16", "DAS group size, strips",
     {1, kU32}},
    {"budget-pct", kInt, kAlways, kSweeps, "25", "DAS capacity budget, %",
     {0, kU32}},
    {"pipeline", kInt, kAlways, kClassic, "1", "operations chained per run",
     {1, kU32}},
    {"window", kInt, kAlways, kSweeps, "4", "requests in flight per client",
     {1, kU32}},
    {"pre-distributed", kBool, kAlways, kClassic, "on",
     "DAS input starts planned"},
    {"repeats", kInt, kAlways, kClassic, "1", "passes over the same input",
     {1, kU32}},
    {"cache-mib", kInt, kAlways, kSweeps, "0", "server strip cache, MiB",
     {0, 1 << 30}},
    {"cache-policy", kChoice, kAlways, kSweeps, "lru", "cache eviction", {},
     "lru|lfu"},
    {"prefetch", kBool, kAlways, kSweeps, "on",
     "halo prefetch (off: demand fetch)"},
    {"prefetch-depth", kInt, kAlways, kSweeps, "0", "prefetch strips",
     {0, kU32}},
    {"migrate", kBool, kAlways, kClassic, "off",
     "online layout migration (NAS)"},
    {"migrate-threshold", kReal, kAlways, kClassic, "4", "migration trigger",
     kPositive},
    {"kernel-isa", kChoice, kNever, kAny, "auto",
     "kernel ISA for calibration", {}, "auto|scalar|sse2|avx2"},
    {"calibrate-kernels", kBool, kNever, kAny, "off",
     "measure kernels and exit"},
    {"kernel-cost", kText, kWhenGiven, kAny, "",
     "kernel compute cost factors", {}, "NAME:FACTOR,... each FACTOR > 0",
     parses<parse_kernel_cost>},
    {"access", kText, kWhenGiven, kAny, "", "sparse access via list I/O", {},
     "strided:K (1 <= K < 2^32), column or trace:FILE",
     parses<parse_access>},
    {"tenants", kInt, kAlways, kTraffic, "1",
     "tenants; > 1 selects traffic mode", {1, kU32}},
    {"tenant-jobs", kInt, kAlways, kTraffic, "8", "jobs per tenant",
     {1, kU32}},
    {"arrival-rate", kReal, kAlways, kTraffic, "1", "jobs/s per tenant",
     kPositive},
    {"job-mib", kInt, kAlways, kTraffic, "16", "job size, MiB", {1, kU32}},
    {"datasets", kInt, kAlways, kTraffic, "1", "datasets in the input",
     {1, kU32}},
    {"replicas", kInt, kAlways, kTraffic, "2", "replicas per strip",
     {1, kU32}},
    {"admission-mib", kInt, kAlways, kTraffic, "0",
     "admission MiB; > 0 selects traffic mode", {0, 1 << 30}},
    {"fair-queue", kBool, kAlways, kTraffic, "off",
     "weighted fair queueing; on selects traffic mode"},
    {"weights", kText, kAlways, kTraffic, "", "tenant weights", {},
     "W,W,... each W > 0", parses<parse_weights>},
    {"hedge", kBool, kAlways, kTraffic, "off",
     "hedge slow reads; on selects traffic mode"},
    {"reroute", kBool, kAlways, kTraffic, "off",
     "route off slow servers; on selects traffic mode"},
    {"trace-file", kText, kAlways, kTraffic, "",
     "replay jobs from FILE; selects traffic mode", {}, "FILE"},
    {"slo", kText, kNever, kTraffic, "", "SLO table to FILE, not stdout", {},
     "FILE"},
    {"trace", kText, kNever, kAny, "", "Chrome trace-event JSON", {}, "FILE"},
    {"audit", kText, kNever, kSweeps, "", "decision-audit CSV", {}, "FILE"},
    {"log-level", kChoice, kNever, kAny, "", "log level", {},
     "trace|debug|info|warn|error|off"},
    {"metrics", kText, kNever, kAny, "", "sampled metrics CSV", {}, "FILE"},
    {"metrics-prom", kText, kNever, kAny, "", "Prometheus metrics", {},
     "FILE"},
    {"metrics-period-ms", kInt, kNever, kAny, "50", "sample period, ms",
     {1, kU32}},
    {"spans", kBool, kNever, kAny, "off", "track causal request spans"},
    {"span-sample", kInt, kNever, kAny, "1", "track 1 in N spans",
     {1, kU32}},
    {"flight-record", kText, kNever, kAny, "", "SLO-alert span dump", {},
     "FILE"},
    {"slo-target-ms", kReal, kNever, kTraffic, "0",
     "tenant latency target, ms", {}},
    {"slo-budget", kReal, kNever, kTraffic, "0.01", "SLO error budget",
     {0, 1, true}},
    {"slo-window-s", kReal, kNever, kTraffic, "1", "SLO burn window, s",
     kPositive},
    {"diag", kText, kNever, kAny, "", "run-cost JSON", {}, "FILE"},
    {"help", kBool, kNever, kAny, "off", "print this table and exit"},
};

const Flag& flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (name == f.name) return f;
  }
  throw std::logic_error("das_sim reads a flag missing from kFlags: " + name);
}

/// What a valid value of `f` looks like, for --help and rejections.
std::string want(const Flag& f) {
  const Range& r = f.range;
  char range[128];
  switch (f.kind) {
    case kInt:
    case kReal:
      std::snprintf(range, sizeof range, "%s%s%s in %s%.15g, %.15g%s",
                    f.values ? f.values : "", f.values ? " or " : "",
                    f.kind == kInt ? "an integer" : "a number",
                    r.lo_open ? "(" : "[", r.lo, r.hi,
                    std::isinf(r.hi) ? ")" : "]");
      return range;
    case kBool: return "on or off";
    case kChoice: return std::string("one of ") + f.values;
    case kText: return f.values;
  }
  return "";
}

bool accepts(const Flag& f, const std::string& value) {
  const Range& r = f.range;
  switch (f.kind) {
    case kInt:
    case kReal: {
      if (f.values != nullptr && value == f.values) return true;
      // An integer must also parse as one; past 2^53 it is out of range.
      const auto x = parse_number<double>(value);
      return x && (f.kind == kReal || parse_number<std::int64_t>(value)) &&
             (r.lo_open ? *x > r.lo : *x >= r.lo) && *x <= r.hi;
    }
    case kBool: return parse_bool(value).has_value();
    case kChoice: {
      const auto choices = split_list(f.values, '|');
      return std::find(choices.begin(), choices.end(), value) != choices.end();
    }
    case kText: return f.valid == nullptr || f.valid(value);
  }
  return false;
}

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const std::string& wanted) {
  throw std::invalid_argument("--" + name + "=" + value + ": want " + wanted);
}

/// Check every given flag against its row; reject the first unknown flag.
void check_flags(const Args& args) {
  for (const Flag& f : kFlags) {
    if (!args.has(f.name)) continue;
    const std::string value = args.get(f.name, "");
    if (!accepts(f, value)) reject(f.name, value, want(f));
  }
  if (const std::string unknown = args.unused(); !unknown.empty()) {
    const std::string name = unknown.substr(0, unknown.find(','));
    reject(name, args.get(name, ""), "a flag listed by --help");
  }
}

/// "classic,list", "traffic", ... or "any" for every mode.
std::string mode_names(unsigned modes) {
  if (modes == kAny) return "any";
  std::string out;
  for (const auto& [bit, name] : {std::pair{kClassic, "classic"},
                                  std::pair{kList, "list"},
                                  std::pair{kTraffic, "traffic"}}) {
    if ((modes & bit) != 0) out += (out.empty() ? "" : ",") + std::string(name);
  }
  return out;
}

void print_help() {
  static const char* const kRoles[] = {"never", "always", "when-given"};
  std::printf(
      "usage: das_sim [--flag=value ...]\n"
      "Each flag: --name=default, accepted values, session role, modes,\n"
      "help. Session roles: always = hashed into the session id as given;\n"
      "when-given = hashed only when given; never = not hashed. Modes: the\n"
      "runs the flag acts in (classic sweep, list = sparse --access sweep,\n"
      "traffic); off its default elsewhere, a flag exits 2.\n\n");
  for (const Flag& f : kFlags) {
    std::printf("  --%s%s%s  %s  [session: %s] [modes: %s]\n      %s\n",
                f.name, *f.fallback != '\0' ? "=" : "", f.fallback,
                want(f).c_str(), kRoles[static_cast<int>(f.session)],
                mode_names(f.modes).c_str(), f.help);
  }
}

// Typed lookups: the given value, or the row's default. Values were
// checked by check_flags, so the parses cannot fail.
std::string text_arg(const Args& args, const std::string& name) {
  return args.get(name, flag(name).fallback);
}
template <class T = std::int64_t>
T int_arg(const Args& args, const std::string& name) {
  return static_cast<T>(
      parse_number<std::int64_t>(text_arg(args, name)).value());
}
double real_arg(const Args& args, const std::string& name) {
  return parse_number<double>(text_arg(args, name)).value();
}
bool bool_arg(const Args& args, const std::string& name) {
  return parse_bool(text_arg(args, name)).value();
}
/// Whether `f` holds its default value: numbers compare numerically ("1.0"
/// is "1"), bools by meaning ("false" is "off"), other kinds as text.
bool at_default(const Args& args, const Flag& f) {
  const std::string value = text_arg(args, f.name);
  switch (f.kind) {
    case kInt:
    case kReal:
      return parse_number<double>(value) == parse_number<double>(f.fallback);
    case kBool: return parse_bool(value) == parse_bool(f.fallback);
    case kChoice:
    case kText: break;
  }
  return value == f.fallback;
}

/// Reject the first flag, in table order, given off its default in a run
/// `mode` it does not act in: the run would silently drop it.
void check_modes(const Args& args, Modes mode) {
  for (const Flag& f : kFlags) {
    if ((f.modes & mode) != 0 || at_default(args, f)) continue;
    reject(f.name, text_arg(args, f.name),
           (*f.fallback != '\0' ? "its default " + std::string(f.fallback)
                                 : std::string("no value")) +
               " in " + mode_names(mode) + " mode (it acts in " +
               mode_names(f.modes) + ")");
  }
}

/// Canonical configuration string the session id is hashed from; see
/// Session for which flags join it and how.
std::string canonical_config(const Args& args) {
  std::string out;
  for (const Session role : {kAlways, kWhenGiven}) {
    for (const Flag& f : kFlags) {
      const std::string value = args.get(f.name, "");
      if (f.session != role || (role == kWhenGiven && value.empty())) continue;
      out += std::string(f.name) + '=' + value + ';';
    }
  }
  return out;
}

std::vector<das::core::Scheme> parse_schemes(const std::string& arg) {
  using das::core::Scheme;
  if (arg == "all") return {Scheme::kNAS, Scheme::kDAS, Scheme::kTS};
  if (arg == "TS" || arg == "ts") return {Scheme::kTS};
  if (arg == "NAS" || arg == "nas") return {Scheme::kNAS};
  return {Scheme::kDAS};
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    throw std::runtime_error(std::string("cannot write ") + what + " file: " +
                             path);
  }
  out << content;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The --diag sidecar: host-side run cost for CI trending, keyed by session.
/// `wall_seconds` is event-loop time only; `process_wall_seconds` runs from
/// `process_start` (main entry) to now, and the peak RSS is the process's.
std::string diag_json(std::uint64_t session, double wall_seconds,
                      std::uint64_t sim_events,
                      std::chrono::steady_clock::time_point process_start) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"session\": \"%s\", \"wall_seconds\": %.6f, "
                "\"sim_events\": %llu, \"process_wall_seconds\": %.6f, "
                "\"peak_rss_mib\": %.1f}\n",
                das::telemetry::session_hex(session).c_str(), wall_seconds,
                static_cast<unsigned long long>(sim_events),
                seconds_since(process_start), peak_rss_mib);
  return buf;
}

/// Write the outputs the flags ask for: --trace from `tracer`, --metrics,
/// --metrics-prom and --flight-record from `plane` (non-null whenever one of
/// them is given), and --diag from the run's event-loop totals.
void write_sidecars(const Args& args, const das::sim::Tracer& tracer,
                    das::telemetry::Plane* plane, std::uint64_t session,
                    double wall_seconds, std::uint64_t sim_events,
                    std::chrono::steady_clock::time_point process_start) {
  const std::pair<const char*, std::function<std::string()>> sidecars[] = {
      {"trace", [&] { return tracer.to_json(); }},
      {"metrics", [&] { return plane->sampler().csv(); }},
      {"metrics-prom", [&] { return plane->prometheus_snapshot(); }},
      {"flight-record", [&] { return plane->flight_json(session); }},
      {"diag", [&] {
         return diag_json(session, wall_seconds, sim_events, process_start);
       }}};
  for (const auto& [name, content] : sidecars) {
    if (const std::string path = text_arg(args, name); !path.empty()) {
      write_file(path, content(), name);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using das::core::RunReport;
  const auto process_start = std::chrono::steady_clock::now();

  try {
    const Args args(argc, argv);
    check_flags(args);
    if (bool_arg(args, "help")) {
      print_help();
      return 0;
    }

    // ISA pinning first: it also governs --calibrate-kernels below.
    if (const std::string isa = text_arg(args, "kernel-isa"); isa != "auto") {
      das::kernels::simd::set_isa_override(
          das::kernels::simd::isa_from_string(isa));
    }
    if (bool_arg(args, "calibrate-kernels")) {
      std::fputs(das::kernels::calibrate_kernels().format().c_str(), stdout);
      return 0;
    }

    const auto schemes = parse_schemes(text_arg(args, "scheme"));
    const auto kernels = parse_kernels(text_arg(args, "kernel")).value();
    const auto gib = int_arg<std::uint64_t>(args, "gib");
    const auto nodes = int_arg<std::uint32_t>(args, "nodes");
    if (nodes % 2 != 0) {
      reject("nodes", text_arg(args, "nodes"),
             "an even count (half storage, half compute)");
    }
    const auto trials = int_arg<std::uint32_t>(args, "trials");
    const bool csv = bool_arg(args, "csv");

    das::core::SchemeRunOptions base;
    base.workload.data_bytes = gib << 30;
    base.workload.strip_size = int_arg<std::uint64_t>(args, "strip-kib") << 10;
    base.workload.raster_width = static_cast<std::uint32_t>(
        base.workload.strip_size / base.workload.element_size - 1);
    base.cluster = das::runner::paper_cluster(nodes);
    base.cluster.nic_bandwidth_bps =
        int_arg<double>(args, "nic-mibps") * 1024 * 1024;
    base.cluster.disk_bandwidth_bps =
        int_arg<double>(args, "disk-mibps") * 1024 * 1024;
    const bool calibrate = text_arg(args, "compute-mibps") == "auto";
    if (!calibrate) {
      base.cluster.compute_rate_bps =
          int_arg<double>(args, "compute-mibps") * 1024 * 1024;
    }
    base.cluster.job_startup = das::sim::seconds(int_arg(args, "startup-s"));
    base.cluster.disk_jitter = int_arg<double>(args, "jitter-pct") / 100.0;
    base.cluster.straggler_count = int_arg<std::uint32_t>(args, "stragglers");
    if (base.cluster.straggler_count > nodes / 2) {
      reject("stragglers", text_arg(args, "stragglers"),
             "an integer in [0, " + std::to_string(nodes / 2) + "]");
    }
    base.cluster.straggler_slowdown = int_arg<double>(args, "slowdown");
    base.distribution.group_size = int_arg<std::uint64_t>(args, "group");
    base.distribution.max_capacity_overhead =
        int_arg<double>(args, "budget-pct") / 100.0;
    base.pipeline_length = int_arg<std::uint32_t>(args, "pipeline");
    base.cluster.pipeline_window = int_arg<std::uint32_t>(args, "window");
    base.pre_distributed = bool_arg(args, "pre-distributed");
    base.repeat_count = int_arg<std::uint32_t>(args, "repeats");
    const auto cache_mib = int_arg<std::uint64_t>(args, "cache-mib");
    base.cluster.server_cache.enabled = cache_mib > 0;
    base.cluster.server_cache.capacity_bytes = cache_mib << 20;
    base.cluster.server_cache.policy = text_arg(args, "cache-policy");
    const auto prefetch_depth = int_arg<std::uint32_t>(args, "prefetch-depth");
    base.cluster.prefetch.enabled =
        bool_arg(args, "prefetch") && prefetch_depth > 0;
    base.cluster.prefetch.depth = prefetch_depth;
    if (base.cluster.prefetch.active() &&
        !base.cluster.server_cache.active()) {
      reject("prefetch-depth", text_arg(args, "prefetch-depth"),
             "0 unless --cache-mib > 0 (prefetched strips land in the server "
             "strip cache)");
    }
    base.migration.enabled = bool_arg(args, "migrate");
    base.migration.divergence_threshold = real_arg(args, "migrate-threshold");
    base.cluster.compute_cost =
        parse_kernel_cost(text_arg(args, "kernel-cost")).value();
    const std::string trace_path = text_arg(args, "trace");
    const std::string audit_path = text_arg(args, "audit");
    const auto log_level =
        das::sim::log_level_from_string(text_arg(args, "log-level"));
    auto jobs = int_arg<unsigned>(args, "jobs");
    if (jobs == 0) jobs = das::runner::default_jobs();

    const auto access = parse_access(text_arg(args, "access")).value();

    das::traffic::TrafficConfig traffic;
    traffic.arrivals.tenants = int_arg<std::uint32_t>(args, "tenants");
    traffic.arrivals.jobs_per_tenant =
        int_arg<std::uint32_t>(args, "tenant-jobs");
    traffic.arrivals.rate_hz = real_arg(args, "arrival-rate");
    traffic.arrivals.job_bytes = int_arg<std::uint64_t>(args, "job-mib") << 20;
    traffic.arrivals.strip_bytes = base.workload.strip_size;
    traffic.arrivals.datasets = int_arg<std::uint32_t>(args, "datasets");
    traffic.arrivals.dataset_strips = std::max<std::uint64_t>(
        1, (gib << 30) / base.workload.strip_size / traffic.arrivals.datasets);
    traffic.arrivals.seed = base.cluster.seed;
    traffic.trace_file = text_arg(args, "trace-file");
    traffic.replication = int_arg<std::uint32_t>(args, "replicas");
    const auto admission_mib = int_arg<std::uint64_t>(args, "admission-mib");
    traffic.admission.enabled = admission_mib > 0;
    traffic.admission.capacity_bytes = admission_mib << 20;
    traffic.fair_queue = bool_arg(args, "fair-queue");
    traffic.weights = parse_weights(text_arg(args, "weights")).value();
    traffic.straggler.hedge = bool_arg(args, "hedge");
    traffic.straggler.reroute = bool_arg(args, "reroute");
    if (access.mode == das::core::AccessSpec::Mode::kStrided) {
      traffic.access_stride = access.stride;
    }
    const bool traffic_mode =
        traffic.arrivals.tenants > 1 || !traffic.trace_file.empty() ||
        traffic.admission.enabled || traffic.fair_queue ||
        traffic.straggler.active();
    // A job reads a contiguous run of one dataset's strips.
    const std::uint64_t dataset_bytes =
        traffic.arrivals.dataset_strips * base.workload.strip_size;
    if (traffic_mode && traffic.arrivals.job_bytes > dataset_bytes) {
      reject("job-mib", text_arg(args, "job-mib"),
             "a job that fits in one dataset (" +
                 std::to_string(dataset_bytes >> 20) + " MiB)");
    }
    if (traffic_mode && access.active() &&
        access.mode != das::core::AccessSpec::Mode::kStrided) {
      throw std::invalid_argument(
          "traffic mode supports --access=strided:K only (column and "
          "trace patterns need the classic sweep's raster geometry)");
    }
    check_modes(args, traffic_mode    ? kTraffic
                      : access.active() ? kList
                                        : kClassic);

    das::telemetry::PlaneConfig plane_cfg;
    plane_cfg.prometheus = !text_arg(args, "metrics-prom").empty();
    plane_cfg.metrics =
        plane_cfg.prometheus || !text_arg(args, "metrics").empty();
    plane_cfg.span_sample = int_arg<std::uint32_t>(args, "span-sample");
    plane_cfg.spans = bool_arg(args, "spans") ||
                      !text_arg(args, "flight-record").empty() ||
                      plane_cfg.span_sample > 1;
    plane_cfg.sample_period =
        das::sim::milliseconds(int_arg(args, "metrics-period-ms"));
    plane_cfg.slo.target_s = real_arg(args, "slo-target-ms") / 1000.0;
    plane_cfg.slo.budget = real_arg(args, "slo-budget");
    plane_cfg.slo.window_s = real_arg(args, "slo-window-s");
    plane_cfg.slo.max_tenants = traffic.arrivals.tenants;
    std::unique_ptr<das::telemetry::Plane> plane;
    if (plane_cfg.metrics || plane_cfg.spans || plane_cfg.slo.target_s > 0.0) {
      plane = std::make_unique<das::telemetry::Plane>(plane_cfg);
    }
    // The plane is one registry + sampler, so classic-mode telemetry is
    // limited to a single cell; sweeps would interleave unrelated runs into
    // one time series. (--diag aggregates and stays legal for sweeps.)
    const std::size_t per_kernel = schemes.size() * trials;
    if (!traffic_mode && plane != nullptr && kernels.size() * per_kernel > 1) {
      throw std::invalid_argument(
          "--metrics/--spans/--slo-target-ms/--flight-record require a "
          "single (scheme, kernel, trial) cell; narrow --scheme/--kernel/"
          "--trials");
    }

    // --compute-mibps=auto feeds the measured anchor rate and per-kernel
    // cost factors (behind any explicit --kernel-cost entry) into the
    // cluster, so the scheme decisions rest on this machine's real compute
    // throughput; the resolved values join the session id below.
    std::optional<das::kernels::CalibrationReport> calibrated;
    if (calibrate) {
      calibrated = das::kernels::calibrate_kernels();
      base.cluster.compute_rate_bps = calibrated->anchor_mibps * 1024 * 1024;
      for (const auto& k : calibrated->kernels) {
        base.cluster.compute_cost.kernel_cost_factor.try_emplace(
            k.name, k.cost_factor);
      }
    }
    traffic.cluster = base.cluster;

    // The session id is minted unconditionally: every run stamps its
    // SLO/audit rows and traces so artifacts join even when no telemetry
    // output file was requested.
    std::string canonical = canonical_config(args);
    if (calibrated) {
      char resolved[64];
      std::snprintf(resolved, sizeof resolved,
                    "resolved-compute-mibps=%.1f;", calibrated->anchor_mibps);
      canonical += resolved;
      canonical +=
          "resolved-kernel-cost=" + calibrated->kernel_cost_flag() + ';';
    }
    const std::uint64_t session = das::telemetry::session_hash(canonical);
    const std::string session_hex = das::telemetry::session_hex(session);

    if (traffic_mode) {
      das::sim::RunContext context;
      if (!trace_path.empty()) context.tracer.enable();
      if (log_level) context.log.set_level(*log_level);
      context.telemetry = plane.get();
      context.session = session;
      context.tracer.set_session(session_hex);
      traffic.context = &context;

      const auto wall_start = std::chrono::steady_clock::now();
      const das::traffic::TrafficReport report =
          das::traffic::run_traffic(traffic);
      const double wall_seconds = seconds_since(wall_start);

      std::string summary;
      summary += "traffic: tenants=" +
                 std::to_string(traffic.arrivals.tenants) +
                 " jobs=" + std::to_string(report.total.jobs_completed) +
                 " makespan_s=" + std::to_string(report.makespan_s) +
                 " events=" + std::to_string(report.events) + "\n";
      summary += "straggler: reads=" + std::to_string(report.reads_issued) +
                 " reroutes=" + std::to_string(report.reroutes) +
                 " hedges=" + std::to_string(report.hedges_issued) + "/" +
                 std::to_string(report.hedges_won) +
                 " wasted_bytes=" + std::to_string(report.wasted_bytes) +
                 "\n";
      // Printed only when the monitor is armed, so an unarmed run's stdout
      // is byte-identical to a binary without the telemetry plane.
      if (plane != nullptr && plane->slo().enabled()) {
        summary += "slo: alerts=" + std::to_string(report.slo_alerts) + "\n";
      }
      std::printf("%s", summary.c_str());
      if (const std::string slo_path = text_arg(args, "slo");
          slo_path.empty()) {
        std::printf("%s", report.slo_csv().c_str());
      } else {
        write_file(slo_path, report.slo_csv(), "SLO");
      }
      write_sidecars(args, context.tracer, plane.get(), session, wall_seconds,
                     report.events, process_start);
      return 0;
    }

    // One cell per (kernel, scheme, trial), in output order: cell i is
    // trial i % trials of schemes[i / trials % schemes.size()] on
    // kernels[i / per_kernel]. Cells simulate independently — possibly
    // concurrently — and all printing happens afterwards in this order, so
    // output never depends on --jobs.
    struct Cell {
      das::sim::RunContext context;
      RunReport report;
    };
    std::vector<Cell> cells(kernels.size() * per_kernel);
    for (Cell& cell : cells) {
      if (!trace_path.empty()) cell.context.tracer.enable();
      if (log_level) cell.context.log.set_level(*log_level);
      cell.context.session = session;
    }
    if (plane != nullptr) cells.front().context.telemetry = plane.get();

    das::runner::parallel_for_indexed(
        jobs, cells.size(), [&](std::size_t i) {
          const auto trial = static_cast<std::uint32_t>(i % trials);
          das::core::SchemeRunOptions o = base;
          o.scheme = schemes[i / trials % schemes.size()];
          o.workload.kernel_name = kernels[i / per_kernel];
          o.cluster.seed = base.cluster.seed + trial * 1000003;
          o.context = &cells[i].context;
          if (!access.active()) {
            cells[i].report = das::core::run_scheme(o);
            return;
          }
          das::core::ListRunOptions list;
          list.scheme = o.scheme;
          list.workload = o.workload;
          list.access = access;
          list.cluster = o.cluster;
          list.distribution = o.distribution;
          list.context = o.context;
          cells[i].report = das::core::run_list_scheme(list);
        });

    std::vector<std::string> audit_rows;
    if (csv) std::printf("%s,trial\n", das::core::report_csv_header().c_str());

    std::vector<RunReport> table;
    for (std::size_t first = 0; first < cells.size(); first += trials) {
      double sum = 0.0, sum2 = 0.0;
      for (std::uint32_t trial = 0; trial < trials; ++trial) {
        const RunReport& report = cells[first + trial].report;
        sum += report.exec_seconds;
        sum2 += report.exec_seconds * report.exec_seconds;
        if (csv) {
          std::printf("%s,%u\n", das::core::to_csv(report).c_str(), trial);
        }
        if (!audit_path.empty() && report.audit.valid) {
          audit_rows.push_back(das::core::audit_to_csv(report) + "," +
                               std::to_string(trial));
        }
      }
      table.push_back(cells[first + trials - 1].report);
      if (trials > 1 && !csv) {
        const double n = trials;
        const double mean = sum / n;
        const double var = std::max(0.0, sum2 / n - mean * mean);
        std::printf("%s %-18s over %u trials: %.2f +- %.2f s\n",
                    to_string(schemes[first / trials % schemes.size()]),
                    kernels[first / per_kernel].c_str(), trials, mean,
                    std::sqrt(var));
      }
    }
    if (!csv) {
      std::printf("\n%s", das::core::format_report_table(table).c_str());
      if (access.active()) {
        // One list-I/O pricing line per table row: what the access cost as
        // a list request and why the decision engine picked its side.
        for (const RunReport& r : table) {
          std::printf("list-io %s %s %s: %s\n", r.scheme.c_str(),
                      r.kernel.c_str(), access.label().c_str(),
                      r.decision_note.c_str());
        }
      }
    }

    if (!audit_path.empty()) {
      std::string rows = das::core::audit_csv_header() + ",trial\n";
      for (const std::string& row : audit_rows) rows += row + "\n";
      write_file(audit_path, rows, "audit");
    }
    // Merging in cell order reproduces the buffer one shared tracer would
    // have accumulated running the cells serially.
    das::sim::Tracer merged;
    merged.enable();
    merged.set_session(session_hex);
    double wall = 0.0;
    std::uint64_t events = 0;
    for (const Cell& cell : cells) {
      merged.merge_from(cell.context.tracer);
      wall += cell.report.wall_seconds;
      events += cell.report.sim_events;
    }
    write_sidecars(args, merged, plane.get(), session, wall, events,
                   process_start);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "das_sim: " << error.what() << "\n";
    return 2;
  }
}

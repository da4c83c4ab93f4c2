// hbbench: the end-to-end and per-layer benchmark of hbnet.
//
//   hbbench --workload <name|all> --seed N --seconds T --trace 0|1
//           [--trace-out FILE] [--commit ID] [--break kappa|conservation]
//
// Untraced (--trace 0): builds the workload's inputs from the seed, times
// the set-up in calibrated batches, then repeats checked engine calls for
// about T seconds and prints every end-to-end metric by name and unit.
// Traced (--trace 1): interleaves calls with spans off, spans on and the
// workload's obs surface attached, then measures engine-level layer
// metrics and module probes, and writes the spans as Chrome trace JSON.
// The last line of stdout is always one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// error.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "par/pool.hpp"

#ifndef HBBENCH_BUILD_TYPE
#define HBBENCH_BUILD_TYPE "unknown"
#endif
#ifndef HBBENCH_COMPILER
#define HBBENCH_COMPILER "unknown"
#endif
#ifndef HBNET_CHECKS
#define HBNET_CHECKS -1
#endif

namespace hbbench {
namespace {

/// End-to-end metrics, in BENCHMARK.json order, present on every workload.
const std::vector<std::string> kEndToEnd = {"setup_s", "run_s", "ops_per_s",
                                            "peak_rss_mib"};

/// Per-layer metrics, in BENCHMARK.json order, present on every workload.
/// Counts of layers a workload does not run are 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"par.round_us", "us"},
    {"par.rounds", "count"},
    {"par.barrier_share", "ratio"},
    {"distsim.exchange_ns_per_msg", "ns"},
    {"distsim.empty_drain_us", "us"},
    {"route.plan_ns", "ns"},
    {"route.next_hop_ns", "ns"},
    {"traffic.stateless_ns", "ns"},
    {"traffic.generator_ns", "ns"},
    {"implicit.neighbors_ns", "ns"},
    {"topology.route_ns", "ns"},
    {"topology.route_avoiding_us", "us"},
    {"core.route_around_faults_us", "us"},
    {"engine.ns_per_op", "ns"},
    {"engine.cycles", "count"},
    {"engine.moves", "count"},
    {"obs.sink_overhead", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"wormhole.misroutes", "count"},
    {"wormhole.escape_hops", "count"},
    {"wormhole.unroutable", "count"},
    {"simulator.drops_unroutable", "count"},
    {"simulator.drops_unsupported", "count"},
    {"graph.solves", "count"},
    {"graph.pruned", "count"},
    {"graph.orbit_targets", "count"},
    {"graph.cert_edges", "count"},
    {"graph.arena_arcs_peak", "count"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  unsigned threads = 0;
  std::string trace_out;
  std::string commit = "unknown";
  Break broken = Break::kNone;
};

int usage(const std::string& why) {
  std::cerr << "hbbench: " << why << "\n"
            << "usage: hbbench --workload <name|all> --seed N --seconds T "
               "--trace 0|1 [--trace-out FILE] [--commit ID] "
               "[--break kappa|conservation]\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Time the hypervisor took from this VM's vCPUs, summed over vCPUs
/// (the `steal` column of /proc/stat), in seconds; 0 where not reported.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  return in ? v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK)) : 0.0;
}

/// Starts a new peak resident set for the workload about to run, so that
/// `--workload all` does not report an earlier workload's peak: returns
/// freed heap to the kernel, then resets VmHWM to the current RSS (writing
/// 5 to /proc/self/clear_refs). False where the kernel refuses the reset.
bool reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // VmHWM is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Host and build stamp written into every result.
std::string stamp_json(const Args& a) {
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << a.threads << ",\"cpu\":\""
     << json_escape(cpu_model()) << "\",\"compiler\":\""
     << json_escape(HBBENCH_COMPILER) << "\",\"build_type\":\""
     << HBBENCH_BUILD_TYPE << "\",\"hbnet_checks\":" << HBNET_CHECKS
     << ",\"commit\":\"" << json_escape(a.commit) << "\",\"seed\":" << a.seed
     << "}";
  return os.str();
}

/// Host-time metrics are the lower quartile of a run's samples (and rates
/// the upper quartile). On a host shared with other tenants, a call is
/// slowed whenever it lands on a vCPU whose sibling is busy, so call times
/// are bimodal and the median flips between the modes from run to run;
/// the lower quartile stays in the fast mode while fewer than three calls
/// in four are slowed.
constexpr double kFast = 0.25;

/// Everything one workload contributes to the final line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricTable metrics;  // the JSON subset is selected by name
};

/// The vCPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Pins the calling thread to one vCPU for its lifetime and restores the
/// previous affinity after (threads started meanwhile inherit the pin, so
/// only single-threaded work runs under one). A sub-microsecond set-up, or
/// a single-threaded engine, runs up to 1.5x slower on a vCPU whose sibling
/// another tenant keeps busy; visiting every vCPU in turn keeps where the
/// scheduler left the main thread from deciding the figure.
class PinTo {
 public:
  explicit PinTo(int cpu) {
    CPU_ZERO(&saved_);
    ok_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ok_ = ok_ && ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinTo() {
    if (ok_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinTo(const PinTo&) = delete;
  PinTo& operator=(const PinTo&) = delete;

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

/// Set-up timing: the set-up runs in batches sized once to take >= 2 ms,
/// so even a set-up of a few nanoseconds reads steadily. Before every
/// engine call one batch runs on each vCPU (the call then uses the inputs
/// the last set-up built), so set-up samples see the same host load as the
/// calls; the report takes the kFast quantile of the per-set-up times.
class SetupTimer {
 public:
  SetupTimer(Workload& w, Spans& spans) : w_(w), spans_(spans) {
    for (;;) {
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t i = 0; i < batch_; ++i) w_.setup();
      if (seconds_since(t0) >= 2e-3 || batch_ >= (1u << 18)) break;
      batch_ *= 2;
    }
  }

  void batches() {
    for (const int cpu : cpus_) {
      PinTo pin(cpu);
      auto span = spans_.open("setup." + w_.name(), batch_);
      const Clock::time_point t0 = Clock::now();
      for (std::uint64_t i = 0; i < batch_; ++i) w_.setup();
      per_setup_.push_back(seconds_since(t0) / static_cast<double>(batch_));
    }
  }

  /// Seconds per set-up, over at least `min_batches` batches.
  double seconds(std::size_t min_batches) {
    while (per_setup_.size() < min_batches) batches();
    return quantile(per_setup_, kFast);
  }
  [[nodiscard]] std::uint64_t setups() const {
    return batch_ * per_setup_.size();
  }

 private:
  Workload& w_;
  Spans& spans_;
  std::uint64_t batch_ = 1;
  std::vector<double> per_setup_;
  const std::vector<int> cpus_ = allowed_cpus();
};

void print_metric(const char* kind, const Metric& m) {
  std::cout << kind << " " << m.name << " = " << num(m.value) << " " << m.unit
            << "  (n=" << m.calls << ")\n";
}

/// Calls that lost more than this share of their vCPU time to the
/// hypervisor are left out of the timings. On a shared VM, steal comes in
/// bursts of seconds to minutes: at 20-40% steal every sf-small call ran
/// 2-6x slower, because each of its 4432 pool barriers waits for the
/// slowest vCPU. In quiet periods steal stays below 0.5%.
constexpr double kMaxSteal = 0.02;

/// One kind of timed sample, split by whether a steal burst hit the call.
struct Samples {
  std::vector<double> quiet, all;
  void add(double v, bool is_quiet) {
    all.push_back(v);
    if (is_quiet) quiet.push_back(v);
  }
  /// The quiet samples, unless bursts hit more than three calls in four.
  [[nodiscard]] const std::vector<double>& used() const {
    return quiet.size() * 4 >= all.size() ? quiet : all;
  }
};

/// The timed calls of one run and what they produced.
struct Calls {
  Samples plain_s, traced_s, observed_s;  // seconds per call, by kind
  Samples rate;                           // ops/s of plain calls
  std::uint64_t count = 0;
  std::uint64_t disturbed = 0;    // calls over kMaxSteal
  std::uint64_t digest = 0;       // the first call's
  double rss_after_first = 0;     // MiB
  RunResult last;
};

/// Repeats checked engine calls until `budget` seconds have passed and
/// every kind has its minimum count. Untraced: all calls are plain.
/// Traced: plain (spans off), traced (spans on) and observed (obs surface
/// attached) rotate, so drift on a shared host hits the three kinds alike.
/// A single-threaded engine also rotates over the vCPUs (see PinTo).
Calls time_calls(Workload& w, SetupTimer& setup, Spans& spans, bool traced,
                 double budget, Outcome& out) {
  Calls c;
  const std::size_t min_per_kind = traced ? 1 : 3;
  const double vcpus = std::thread::hardware_concurrency();
  const std::vector<int> cpus = allowed_cpus();
  const double steal0 = host_steal_s();
  const Clock::time_point start = Clock::now();
  for (double last_s = 0;; ++c.count) {
    const int kind = traced ? static_cast<int>(c.count % 3) : 0;
    const std::size_t done =
        traced ? std::min({c.plain_s.all.size(), c.traced_s.all.size(),
                           c.observed_s.all.size()})
               : c.plain_s.all.size();
    if (done >= min_per_kind && seconds_since(start) + last_s > budget) break;
    spans.set_enabled(traced && kind != 0);
    setup.batches();
    const double steal_before = host_steal_s();
    const Clock::time_point t0 = Clock::now();
    RunResult r;
    {
      std::optional<PinTo> pin;
      if (w.single_threaded() && !cpus.empty()) {
        pin.emplace(cpus[c.count % cpus.size()]);
      }
      auto span = spans.open("engine." + w.name());
      r = w.run(kind == 2);
    }
    last_s = seconds_since(t0);
    const bool quiet =
        host_steal_s() - steal_before <= kMaxSteal * last_s * vcpus;
    c.disturbed += quiet ? 0 : 1;
    spans.set_enabled(traced);
    (kind == 0 ? c.plain_s : kind == 1 ? c.traced_s : c.observed_s)
        .add(last_s, quiet);
    if (kind == 0) c.rate.add(r.work / last_s, quiet);
    if (c.count == 0) {
      c.digest = r.digest;
      // Later calls reuse a heap the earlier ones fragmented, so the peak
      // drifts with the call count; the first call's peak does not.
      c.rss_after_first = peak_rss_mib();
    }
    if (r.digest != c.digest) {
      r.fail(w.name() + ": digest " + hex(r.digest) +
             " differs from the first call's " + hex(c.digest));
    }
    out.attempted += r.attempted;
    out.failed += std::min(r.failed, r.attempted);
    for (const std::string& e : r.errors) {
      std::cout << "CHECK FAILED " << e << "\n";
    }
    c.last = std::move(r);
  }
  const double wall = seconds_since(start);
  std::cout << "host steal " << num(100 * (host_steal_s() - steal0) /
                                    (wall * vcpus))
            << " % of vCPU time during the calls; " << c.disturbed << " of "
            << c.count << " calls over " << 100 * kMaxSteal << " %"
            << (c.plain_s.used().size() == c.plain_s.all.size()
                    ? " (timings use every call)"
                    : " (left out of the timings)")
            << "\n";
  return c;
}

/// Set-up, timed calls, traced-run layer metrics and final checks, all
/// under one root span that closes before the report reads the spans.
Calls measure(Workload& w, Spans& spans, const Args& a, Outcome& out) {
  const bool traced = a.trace == 1;
  MetricTable& mt = out.metrics;
  auto root = spans.open("run." + w.name());
  SetupTimer setup(w, spans);
  Calls c = time_calls(w, setup, spans, traced,
                       traced ? 0.6 * a.seconds : a.seconds, out);
  root.set_calls(c.count);
  const double run_s = quantile(c.plain_s.used(), kFast);
  mt.set("run_s", run_s, "s", c.plain_s.used().size());
  mt.set("setup_s", setup.seconds(24), "s", setup.setups());
  mt.set("ops_per_s", quantile(c.rate.used(), 1 - kFast), "ops/s",
         c.rate.used().size());
  mt.set("peak_rss_mib", c.rss_after_first, "MiB");

  if (traced) {
    w.layer_metrics(spans, run_s, mt);
    run_probes(w.probe_inputs(), spans, mt);
    const Metric* rounds = mt.find("par.rounds");
    mt.set("par.barrier_share",
           (rounds ? rounds->value : 0) * mt.find("par.round_us")->value *
               1e-6 / run_s,
           "ratio");
    const double traced_s = quantile(c.traced_s.used(), kFast);
    mt.set("engine.ns_per_op", traced_s / c.last.work * 1e9, "ns",
           c.traced_s.used().size());
    mt.set("obs.sink_overhead", quantile(c.observed_s.used(), kFast) / run_s,
           "ratio", c.observed_s.used().size());
    mt.set("trace.overhead_s", traced_s - run_s, "s",
           c.traced_s.used().size());
  }

  RunResult extra;
  extra.attempted = 0;
  w.final_checks(c.digest, extra);
  out.attempted += extra.attempted;
  out.failed += extra.failed;
  for (const std::string& e : extra.errors) {
    std::cout << "CHECK FAILED " << e << "\n";
  }
  return c;
}

Outcome run_workload(const std::string& name, const Args& a) {
  Options opts;
  opts.seed = a.seed;
  opts.threads = a.threads;
  opts.broken = a.broken;
  std::unique_ptr<Workload> w = make_workload(name, opts);
  const bool traced = a.trace == 1;
  Spans spans(traced, name + "-seed" + std::to_string(a.seed) + "-pid" +
                          std::to_string(::getpid()));
  std::cout << "workload " << name << "  seed " << a.seed << "  threads "
            << a.threads << "  trace " << a.trace << "  obs surface "
            << w->obs_surface() << "\n";

  Outcome out;
  const Calls c = measure(*w, spans, a, out);
  MetricTable& mt = out.metrics;
  mt.set("failed_frac",
         static_cast<double>(out.failed) / static_cast<double>(out.attempted),
         "ratio", out.attempted);
  const RunResult& last = c.last;
  if (last.simulated) {
    mt.set("sim_latency_p50_cycles", static_cast<double>(last.latency_p50),
           "cycles");
    mt.set("sim_latency_p99_cycles", static_cast<double>(last.latency_p99),
           "cycles");
    mt.set("sim_delivered_frac",
           static_cast<double>(last.delivered) /
               static_cast<double>(last.injected),
           "ratio");
  }

  std::cout << "digest " << name << " " << hex(c.digest) << "  (" << c.count
            << " calls; " << w->op_unit() << " per op)\n"
            << "calls run_s min " << num(quantile(c.plain_s.all, 0))
            << " q25 " << num(quantile(c.plain_s.all, 0.25)) << " median "
            << num(quantile(c.plain_s.all, 0.5)) << " max "
            << num(quantile(c.plain_s.all, 1)) << "\n";
  for (const std::string& e : kEndToEnd) print_metric("e2e", *mt.find(e));
  for (const char* e : {"failed_frac", "sim_latency_p50_cycles",
                        "sim_latency_p99_cycles", "sim_delivered_frac"}) {
    if (const Metric* m = mt.find(e)) print_metric("e2e", *m);
  }
  if (traced) {
    mt.set("trace.spans", static_cast<double>(spans.size()), "count");
    for (const auto& [layer, unit] : kPerLayer) {
      if (mt.find(layer) == nullptr) mt.set(layer, 0, unit, 0);
    }
    for (const Metric& m : mt.rows()) {
      const bool e2e = std::find(kEndToEnd.begin(), kEndToEnd.end(), m.name) !=
                       kEndToEnd.end();
      if (!e2e && m.name.rfind("sim_", 0) != 0 && m.name != "failed_frac") {
        print_metric("layer", m);
      }
    }
    for (const auto& [span_name, s] : spans.summarize()) {
      std::cout << "span " << span_name << "  spans " << s.spans << "  calls "
                << s.calls << "  total_s " << num(s.total_s) << "  self_s "
                << num(s.self_s) << "\n";
    }
    if (!a.trace_out.empty()) {
      std::ofstream f(a.trace_out);
      std::ostringstream meta;
      meta << "{\"workload\":\"" << name << "\",\"stamp\":" << stamp_json(a)
           << ",\"digest\":\"" << hex(c.digest) << "\"}";
      spans.write_chrome_json(f, meta.str());
      std::cout << "trace written to " << a.trace_out << "\n";
    }
  }
  return out;
}

int run_main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, a.seed)) return usage("--seed: not a number");
    } else if (flag == "--seconds") {
      if (!parse_u64(v, u) || u == 0 || u > 600) {
        return usage("--seconds: need 1..600");
      }
      a.seconds = static_cast<double>(u);
    } else if (flag == "--trace") {
      if (!parse_u64(v, u) || u > 1) return usage("--trace: need 0 or 1");
      a.trace = static_cast<int>(u);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--break") {
      const std::string b = v;
      if (b == "kappa") {
        a.broken = Break::kKappa;
      } else if (b == "conservation") {
        a.broken = Break::kConservation;
      } else {
        return usage("--break: need kappa or conservation");
      }
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.seconds == 0 || a.trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  std::vector<std::string> names;
  if (a.workload == "all") {
    names = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(),
                       a.workload) != workload_names().end()) {
    names = {a.workload};
  } else {
    return usage("unknown workload " + a.workload);
  }
  a.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  hbnet::par::set_default_threads(a.threads);

  std::cout << "stamp " << stamp_json(a) << "\n";
  if (std::string(HBBENCH_BUILD_TYPE) != "Release") {
    std::cout << "WARNING: hbnet built as " << HBBENCH_BUILD_TYPE
              << ", not Release: timings are not comparable\n";
    std::cerr << "WARNING: hbnet built as " << HBBENCH_BUILD_TYPE
              << ", not Release: timings are not comparable\n";
  }

  std::uint64_t attempted = 0, failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const std::string& name : names) {
    if (!reset_peak_rss() && name != names.front()) {
      std::cout << "WARNING: peak resident set not reset; " << name
                << " peak_rss_mib includes earlier workloads\n";
    }
    const Outcome o = run_workload(name, a);
    attempted += o.attempted;
    failed += o.failed;
    const std::string prefix = names.size() > 1 ? name + "." : "";
    auto emit = [&](const std::string& metric) {
      const Metric* m = o.metrics.find(metric);
      metrics << (first ? "" : ",") << "\"" << prefix << metric
              << "\":{\"value\":" << num(m->value) << ",\"unit\":\""
              << m->unit << "\"}";
      first = false;
    };
    if (a.trace == 1) {
      for (const auto& layer : kPerLayer) emit(layer.first);
    } else {
      for (const std::string& e : kEndToEnd) emit(e);
    }
  }
  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{" << metrics.str() << "}}" << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hbbench

int main(int argc, char** argv) {
  try {
    return hbbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hbbench: " << e.what() << "\n";
    return 1;
  }
}

// Shared types of the hbnet benchmark: the workload interface, the result
// of one checked engine call, and the named-metric table the report prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace hbbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// FNV-1a over 64-bit words: the determinism digest of simulated outputs.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add(std::string_view s) {
    for (const char c : s) h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One named measurement with its unit and the number of calls behind it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t calls = 0;
};

/// Insertion-ordered metric table; set() overwrites an existing name.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t calls = 1) {
    for (Metric& m : rows_) {
      if (m.name == name) {
        m = {name, value, unit, calls};
        return;
      }
    }
    rows_.push_back({name, value, unit, calls});
  }
  [[nodiscard]] const Metric* find(std::string_view name) const {
    for (const Metric& m : rows_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// The checked outcome of one engine call.
struct RunResult {
  std::uint64_t digest = 0;    // over the simulated outputs only
  std::uint64_t attempted = 1; // operations: the call, or each campaign trial
  std::uint64_t failed = 0;    // operations whose output checks failed
  std::vector<std::string> errors;
  double work = 0;             // work units behind ops_per_s
  // Simulated-network outcome (sim_latency_*, sim_delivered_frac); zero
  // for the kappa workload.
  bool simulated = false;
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;

  /// Records a failed output check against the whole call.
  void fail(std::string why) {
    if (failed == 0) failed = attempted;
    errors.push_back(std::move(why));
  }
};

/// Inputs the per-layer probes share with a workload: its HB(m,n)
/// instance, shard count, fault set and per-cycle message volume.
struct ProbeInputs {
  unsigned m = 0, n = 0;
  unsigned shards = 1;
  unsigned threads = 1;
  std::uint64_t seed = 0;
  double rate = 0.05;
  std::vector<std::uint32_t> faults;  // node ids, at most m+3
  std::uint64_t volume = 1;           // messages per cycle for the exchange
};

/// Which deliberately wrong expectation a self-test injects into the
/// output checks (see README.md, "Checking the checks").
enum class Break { kNone, kKappa, kConservation };

struct Options {
  std::uint64_t seed = 1;
  unsigned threads = 1;
  Break broken = Break::kNone;
};

/// One benchmark workload. setup() rebuilds the inputs from the seed;
/// run() makes one engine call on them and checks the result.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// The obs surface run(observed = true) attaches.
  [[nodiscard]] virtual std::string obs_surface() const = 0;
  /// The unit ops_per_s counts.
  [[nodiscard]] virtual std::string op_unit() const = 0;
  /// True when the engine runs on the calling thread only; its calls are
  /// then pinned to each vCPU in turn.
  [[nodiscard]] virtual bool single_threaded() const { return false; }
  virtual void setup() = 0;
  [[nodiscard]] virtual RunResult run(bool observed) = 0;
  /// Checks made once per workload after the timed calls (sf-small and
  /// campaign pin their digest against a 1-thread run here).
  virtual void final_checks(std::uint64_t digest, RunResult& into) {
    (void)digest;
    (void)into;
  }
  /// Traced run only: engine-level layer metrics, measured with spans
  /// around the workload's own calls. `run_s` is the untraced median.
  virtual void layer_metrics(Spans& spans, double run_s, MetricTable& out) = 0;
  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Options& opts);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Module-level probes on the workload's inputs (probes.cpp).
void run_probes(const ProbeInputs& in, Spans& spans, MetricTable& out);

/// The q-quantile of a non-empty sample, interpolating linearly between
/// order statistics (copies; samples are small).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

}  // namespace hbbench

// Latency / throughput statistics for the packet simulator.
//
// Backed by an obs::Histogram: memory follows the range of latencies seen
// (at most 2 KiB while every latency is below 256 cycles), not how many
// packets a run delivers, and percentile queries are O(buckets) instead of
// the former sort-the-sample-vector O(n log n). Values in the histogram's
// linear range (< 256 cycles) keep exact percentiles; above that the error
// is bounded by the histogram's sub-bucket resolution (< 1%).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace hbnet {

/// Streaming summary of packet latencies plus delivery counters.
class SimStats {
 public:
  void record_delivery(std::uint64_t latency, std::uint64_t hops) {
    latency_.record(latency);
    total_hops_ += hops;
  }
  void record_injection() { ++injected_; }
  void record_drop() { ++dropped_; }

  /// Folds another shard's stats into this one. Histogram bucket counts and
  /// the integer counters are commutative sums, and the histogram's double
  /// sum stays exact (integer-valued latencies, totals far below 2^53), so
  /// merging per-shard stats in shard order yields the same result for
  /// every shard count.
  void merge(const SimStats& other) {
    latency_.merge(other.latency_);
    total_hops_ += other.total_hops_;
    injected_ += other.injected_;
    dropped_ += other.dropped_;
  }

  [[nodiscard]] std::uint64_t delivered() const { return latency_.count(); }
  [[nodiscard]] std::uint64_t injected() const { return injected_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  [[nodiscard]] double mean_latency() const { return latency_.mean(); }
  [[nodiscard]] double mean_hops() const;
  /// q in [0,1]; e.g. 0.99 for the tail.
  [[nodiscard]] std::uint64_t latency_percentile(double q) const {
    return latency_.percentile(q);
  }
  [[nodiscard]] std::uint64_t max_latency() const { return latency_.max(); }

  /// The full latency distribution (for export / merging into a registry).
  [[nodiscard]] const obs::Histogram& latency_histogram() const {
    return latency_;
  }

  /// delivered / (cycles * nodes): accepted throughput in packets/node/cycle.
  [[nodiscard]] double throughput(std::uint64_t cycles,
                                  std::uint32_t nodes) const {
    return cycles == 0 || nodes == 0
               ? 0.0
               : static_cast<double>(delivered()) /
                     (static_cast<double>(cycles) * nodes);
  }

  [[nodiscard]] std::string summary() const;

 private:
  obs::Histogram latency_;
  std::uint64_t total_hops_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hbnet

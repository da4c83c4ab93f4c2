// Synthetic traffic patterns for the packet simulator.
//
// The paper's motivation is multiprocessor interconnection; since it has no
// workload traces (1998, analytical evaluation only), we use the standard
// synthetic patterns of the interconnection-network literature: uniform
// random, bit-complement, bit-reversal, transpose-like shuffle, and hotspot.
#pragma once

#include <cstdint>
#include <random>
#include <string>

namespace hbnet {

enum class TrafficPattern {
  kUniform,        // destination chosen uniformly at random
  kBitComplement,  // dst = ~src (mod N)
  kBitReversal,    // dst = reverse of src's bits (within ceil(log2 N))
  kShuffle,        // dst = rotate-left of src's bits
  kHotspot,        // 10%: node 0; else uniform
};

[[nodiscard]] const char* to_string(TrafficPattern p);

/// The deterministic permutation behind the bit-permutation patterns
/// (complement/reversal/shuffle) over a `bits`-bit id space; identity for
/// the random patterns. Shared by both traffic generators and pinned
/// directly in tests.
[[nodiscard]] std::uint32_t permute_bits(TrafficPattern pattern, unsigned bits,
                                         std::uint32_t src);

/// SplitMix64 finalizer: the stateless traffic primitive. Pure function --
/// statistically independent outputs for distinct inputs, identical outputs
/// for identical inputs on every platform.
[[nodiscard]] constexpr std::uint64_t traffic_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Counter-based (stateless) traffic: every decision is a pure hash of
/// (seed, cycle, node, stream), so an engine can evaluate nodes in any
/// order -- across shards, threads, or reruns -- and draw identical
/// traffic. Both simulators draw from it: the store-and-forward engine and
/// the wormhole key it with config.seed ^ 0x9e3779b97f4a7c15, so one seed
/// offers both the same packets. Contrast TrafficGenerator below, whose
/// mt19937_64 stream makes draws order-dependent; no engine uses it.
///
/// Random draws differ from TrafficGenerator's at equal seeds (different
/// RNG); the bit-permutation patterns and the dst==src avoidance rule
/// (bump to (dst+1) % N) are identical.
class StatelessTraffic {
 public:
  /// `rate` is the per-node per-cycle injection probability in [0, 1].
  StatelessTraffic(TrafficPattern pattern, std::uint32_t num_nodes,
                   std::uint64_t seed, double rate);

  /// View of one cycle with the cycle-level hash precomputed: a draw costs
  /// a single finalizer application. The sharded engine's injection scan
  /// evaluates every node every cycle, so hoisting the inner mix out of
  /// that loop matters (the compiler cannot prove it loop-invariant across
  /// the engine's stores).
  class CycleView {
   public:
    /// Does `src` inject a packet this cycle?
    [[nodiscard]] bool injects(std::uint32_t src) const {
      return (draw(src, 0) >> 11) < t_->rate_bits_;
    }

    /// Destination for a packet injected at `src` this cycle (never src).
    [[nodiscard]] std::uint32_t destination(std::uint32_t src) const {
      return t_->destination_with_key(key_, src);
    }

    /// Uniform node draw on an independent stream -- the sharded engine's
    /// Valiant intermediate (may equal src or the destination; callers
    /// handle the degenerate cases).
    [[nodiscard]] std::uint32_t intermediate(std::uint32_t src) const {
      return static_cast<std::uint32_t>(draw(src, 3) % t_->num_nodes_);
    }

   private:
    friend class StatelessTraffic;
    CycleView(const StatelessTraffic* t, std::uint64_t key)
        : t_(t), key_(key) {}

    [[nodiscard]] std::uint64_t draw(std::uint32_t src,
                                     unsigned stream) const {
      return traffic_mix(key_ ^ ((std::uint64_t{src} << 2) | stream));
    }

    const StatelessTraffic* t_;
    std::uint64_t key_;  // traffic_mix(seed + cycle)
  };

  [[nodiscard]] CycleView at(std::uint64_t cycle) const {
    return CycleView(this, traffic_mix(seed_ + cycle));
  }

  /// Does `src` inject a packet this cycle?
  [[nodiscard]] bool injects(std::uint64_t cycle, std::uint32_t src) const {
    return at(cycle).injects(src);
  }

  /// Destination for a packet injected at `src` this cycle (never src).
  [[nodiscard]] std::uint32_t destination(std::uint64_t cycle,
                                          std::uint32_t src) const {
    return at(cycle).destination(src);
  }

  /// Valiant intermediate draw; see CycleView::intermediate.
  [[nodiscard]] std::uint32_t intermediate(std::uint64_t cycle,
                                           std::uint32_t src) const {
    return at(cycle).intermediate(src);
  }

  [[nodiscard]] TrafficPattern pattern() const { return pattern_; }

 private:
  [[nodiscard]] std::uint32_t destination_with_key(std::uint64_t key,
                                                   std::uint32_t src) const;

  TrafficPattern pattern_;
  std::uint32_t num_nodes_;
  unsigned bits_;
  std::uint64_t seed_;
  std::uint64_t rate_bits_;  // rate as a 53-bit threshold (exact compare)
};

/// Destination generator over a dense id space [0, num_nodes), drawing
/// from one order-dependent mt19937_64 stream. No simulator uses it; the
/// hbbench probe traffic.generator_ns still times it.
class TrafficGenerator {
 public:
  TrafficGenerator(TrafficPattern pattern, std::uint32_t num_nodes,
                   std::uint64_t seed);

  /// Destination for a packet injected at `src` (never returns src).
  [[nodiscard]] std::uint32_t destination(std::uint32_t src);

  [[nodiscard]] TrafficPattern pattern() const { return pattern_; }

 private:
  [[nodiscard]] std::uint32_t permuted(std::uint32_t src) const;

  TrafficPattern pattern_;
  std::uint32_t num_nodes_;
  unsigned bits_;
  std::mt19937_64 rng_;
  std::uniform_int_distribution<std::uint32_t> pick_;
  std::uniform_real_distribution<double> coin_{0.0, 1.0};
};

}  // namespace hbnet

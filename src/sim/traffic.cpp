#include "sim/traffic.hpp"

namespace hbnet {

const char* to_string(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniform:
      return "uniform";
    case TrafficPattern::kBitComplement:
      return "bit-complement";
    case TrafficPattern::kBitReversal:
      return "bit-reversal";
    case TrafficPattern::kShuffle:
      return "shuffle";
    case TrafficPattern::kHotspot:
      return "hotspot";
  }
  return "?";
}

TrafficGenerator::TrafficGenerator(TrafficPattern pattern,
                                   std::uint32_t num_nodes, std::uint64_t seed)
    : pattern_(pattern),
      num_nodes_(num_nodes),
      bits_(0),
      rng_(seed),
      pick_(0, num_nodes - 1) {
  while ((std::uint64_t{1} << bits_) < num_nodes_) ++bits_;
}

std::uint32_t permute_bits(TrafficPattern pattern, unsigned bits,
                           std::uint32_t src) {
  const std::uint32_t mask = bits >= 32 ? ~0u : (1u << bits) - 1;
  switch (pattern) {
    case TrafficPattern::kBitComplement:
      return ~src & mask;
    case TrafficPattern::kBitReversal: {
      std::uint32_t out = 0;
      for (unsigned i = 0; i < bits; ++i) {
        if ((src >> i) & 1u) out |= 1u << (bits - 1 - i);
      }
      return out;
    }
    case TrafficPattern::kShuffle:
      // Zero bits leave nothing to rotate.
      return bits == 0 ? 0 : ((src << 1) | (src >> (bits - 1))) & mask;
    default:
      return src;
  }
}

std::uint32_t TrafficGenerator::permuted(std::uint32_t src) const {
  return permute_bits(pattern_, bits_, src);
}

StatelessTraffic::StatelessTraffic(TrafficPattern pattern,
                                   std::uint32_t num_nodes, std::uint64_t seed,
                                   double rate)
    : pattern_(pattern), num_nodes_(num_nodes), bits_(0), seed_(seed) {
  while ((std::uint64_t{1} << bits_) < num_nodes_) ++bits_;
  // Clamp to [0, 1] and quantize to 53 bits so injects() is a pure integer
  // compare (no float rounding ambiguity in the hot loop).
  const double r = rate < 0.0 ? 0.0 : rate > 1.0 ? 1.0 : rate;
  rate_bits_ = static_cast<std::uint64_t>(r * 9007199254740992.0);  // 2^53
}

std::uint32_t StatelessTraffic::destination_with_key(std::uint64_t key,
                                                     std::uint32_t src) const {
  const auto draw = [key, src](unsigned stream) {
    return traffic_mix(key ^ ((std::uint64_t{src} << 2) | stream));
  };
  std::uint32_t dst;
  switch (pattern_) {
    case TrafficPattern::kUniform:
      dst = static_cast<std::uint32_t>(draw(1) % num_nodes_);
      break;
    case TrafficPattern::kHotspot:
      // Exactly 10% of draws hit node 0 (the serial generator flips a
      // double-precision coin; one in ten is the same load).
      dst = draw(2) % 10 == 0
                ? 0u
                : static_cast<std::uint32_t>(draw(1) % num_nodes_);
      break;
    default:
      dst = permute_bits(pattern_, bits_, src) % num_nodes_;
      break;
  }
  if (dst == src) dst = (dst + 1) % num_nodes_;
  return dst;
}

std::uint32_t TrafficGenerator::destination(std::uint32_t src) {
  std::uint32_t dst;
  switch (pattern_) {
    case TrafficPattern::kUniform:
      dst = pick_(rng_);
      break;
    case TrafficPattern::kHotspot:
      dst = (coin_(rng_) < 0.10) ? 0u : pick_(rng_);
      break;
    default:
      dst = permuted(src) % num_nodes_;
      break;
  }
  if (dst == src) dst = (dst + 1) % num_nodes_;
  return dst;
}

}  // namespace hbnet

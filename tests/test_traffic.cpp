// Traffic generators: pinned bit-permutation destinations, the dst == src
// avoidance rule, seed determinism, and the stateless (counter-based)
// generator's purity, rate quantization, and hotspot load.
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/traffic.hpp"

namespace hbnet {
namespace {

TEST(PermuteBits, PinnedValues) {
  // Bit-complement over 7 bits.
  EXPECT_EQ(permute_bits(TrafficPattern::kBitComplement, 7, 0u), 127u);
  EXPECT_EQ(permute_bits(TrafficPattern::kBitComplement, 7, 5u), 122u);
  // Bit-reversal over 7 bits: 0000001 <-> 1000000, 0000011 <-> 1100000.
  EXPECT_EQ(permute_bits(TrafficPattern::kBitReversal, 7, 1u), 64u);
  EXPECT_EQ(permute_bits(TrafficPattern::kBitReversal, 7, 3u), 96u);
  EXPECT_EQ(permute_bits(TrafficPattern::kBitReversal, 7, 96u), 3u);
  // Shuffle (rotate-left) over 3 bits: 011 -> 110, 100 -> 001, 111 -> 111.
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 3, 3u), 6u);
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 3, 4u), 1u);
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 3, 7u), 7u);
  // The random patterns are the identity permutation.
  EXPECT_EQ(permute_bits(TrafficPattern::kUniform, 7, 42u), 42u);
  EXPECT_EQ(permute_bits(TrafficPattern::kHotspot, 7, 42u), 42u);
}

TEST(PermuteBits, ReversalIsAnInvolution) {
  for (std::uint32_t src = 0; src < 128; ++src) {
    const std::uint32_t once =
        permute_bits(TrafficPattern::kBitReversal, 7, src);
    EXPECT_EQ(permute_bits(TrafficPattern::kBitReversal, 7, once), src);
  }
}

TEST(PermuteBits, ShuffleAtZeroBits) {
  // A one-node network needs zero bits; the rotation must not shift by
  // bits - 1 (wrapped to 2^32 - 1).
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 0, 0u), 0u);
  const StatelessTraffic one_node(TrafficPattern::kShuffle, 1, 3, 1.0);
  EXPECT_EQ(one_node.destination(0, 0), 0u);
}

TEST(PermuteBits, ShuffleAtThirtyTwoBits) {
  // Instances past 2^31 nodes need all 32 bits; the mask must not shift by
  // 32.
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 32, 0x80000001u), 3u);
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 32, 0xffffffffu),
            0xffffffffu);
  EXPECT_EQ(permute_bits(TrafficPattern::kShuffle, 32, 0x40000000u),
            0x80000000u);
}

TEST(TrafficGenerator, BitComplementExactDestinations) {
  // 96 nodes needs 7 bits, so the complement folds mod 96:
  // 0 -> 127 % 96 = 31, 31 -> 96 % 96 = 0, 95 -> 32.
  TrafficGenerator gen(TrafficPattern::kBitComplement, 96, 1);
  EXPECT_EQ(gen.destination(0), 31u);
  EXPECT_EQ(gen.destination(31), 0u);
  EXPECT_EQ(gen.destination(95), 32u);
}

TEST(TrafficGenerator, ShuffleAppliesAvoidanceRule) {
  // Over 3 bits, rotate-left fixes 0 and 7; both must bump to (src+1) % 8.
  TrafficGenerator gen(TrafficPattern::kShuffle, 8, 1);
  EXPECT_EQ(gen.destination(7), 0u);
  EXPECT_EQ(gen.destination(0), 1u);
  EXPECT_EQ(gen.destination(3), 6u);  // not a fixed point: stays 110
}

TEST(TrafficGenerator, NeverReturnsSource) {
  for (const TrafficPattern p :
       {TrafficPattern::kUniform, TrafficPattern::kBitComplement,
        TrafficPattern::kBitReversal, TrafficPattern::kShuffle,
        TrafficPattern::kHotspot}) {
    TrafficGenerator gen(p, 96, 3);
    for (std::uint32_t src = 0; src < 96; ++src) {
      const std::uint32_t dst = gen.destination(src);
      EXPECT_NE(dst, src) << to_string(p);
      EXPECT_LT(dst, 96u) << to_string(p);
    }
  }
}

TEST(TrafficGenerator, SeedDeterminism) {
  TrafficGenerator a(TrafficPattern::kUniform, 64, 7);
  TrafficGenerator b(TrafficPattern::kUniform, 64, 7);
  TrafficGenerator c(TrafficPattern::kUniform, 64, 8);
  bool differs = false;
  for (std::uint32_t i = 0; i < 200; ++i) {
    const std::uint32_t src = i % 64;
    const std::uint32_t da = a.destination(src);
    EXPECT_EQ(da, b.destination(src)) << "same seed diverged at draw " << i;
    differs = differs || da != c.destination(src);
  }
  EXPECT_TRUE(differs) << "different seeds produced identical streams";
}

TEST(StatelessTraffic, IsAPureFunction) {
  const StatelessTraffic a(TrafficPattern::kUniform, 100, 99, 0.5);
  const StatelessTraffic b(TrafficPattern::kUniform, 100, 99, 0.5);
  for (std::uint64_t cycle = 0; cycle < 16; ++cycle) {
    const StatelessTraffic::CycleView view = a.at(cycle);
    for (std::uint32_t src = 0; src < 100; ++src) {
      // Repeated calls, a second instance, and the CycleView all agree.
      EXPECT_EQ(a.injects(cycle, src), a.injects(cycle, src));
      EXPECT_EQ(a.injects(cycle, src), b.injects(cycle, src));
      EXPECT_EQ(a.injects(cycle, src), view.injects(src));
      EXPECT_EQ(a.destination(cycle, src), view.destination(src));
      EXPECT_EQ(a.intermediate(cycle, src), view.intermediate(src));
    }
  }
}

TEST(StatelessTraffic, RateZeroAndOneAreExact) {
  const StatelessTraffic never(TrafficPattern::kUniform, 64, 5, 0.0);
  const StatelessTraffic always(TrafficPattern::kUniform, 64, 5, 1.0);
  for (std::uint64_t cycle = 0; cycle < 32; ++cycle) {
    for (std::uint32_t src = 0; src < 64; ++src) {
      EXPECT_FALSE(never.injects(cycle, src));
      EXPECT_TRUE(always.injects(cycle, src));
    }
  }
}

TEST(StatelessTraffic, DestinationNeverSource) {
  for (const TrafficPattern p :
       {TrafficPattern::kUniform, TrafficPattern::kBitComplement,
        TrafficPattern::kBitReversal, TrafficPattern::kShuffle,
        TrafficPattern::kHotspot}) {
    const StatelessTraffic traffic(p, 96, 3, 0.1);
    for (std::uint64_t cycle = 0; cycle < 20; ++cycle) {
      for (std::uint32_t src = 0; src < 96; ++src) {
        const std::uint32_t dst = traffic.destination(cycle, src);
        EXPECT_NE(dst, src) << to_string(p);
        EXPECT_LT(dst, 96u) << to_string(p);
      }
    }
  }
}

TEST(StatelessTraffic, DeterministicPatternsMatchSerialGenerator) {
  // The bit-permutation patterns ignore the RNG entirely, so the stateless
  // and mt19937-backed generators must agree destination-for-destination.
  for (const TrafficPattern p :
       {TrafficPattern::kBitComplement, TrafficPattern::kBitReversal,
        TrafficPattern::kShuffle}) {
    const StatelessTraffic stateless(p, 96, 17, 0.1);
    TrafficGenerator serial(p, 96, 4242);
    for (std::uint32_t src = 0; src < 96; ++src) {
      EXPECT_EQ(stateless.destination(7, src), serial.destination(src))
          << to_string(p) << " src=" << src;
    }
  }
}

TEST(StatelessTraffic, HotspotLoadsNodeZero) {
  const StatelessTraffic traffic(TrafficPattern::kHotspot, 64, 5, 0.1);
  std::uint64_t to_zero = 0, total = 0;
  for (std::uint64_t cycle = 0; cycle < 400; ++cycle) {
    for (std::uint32_t src = 1; src < 64; ++src) {
      to_zero += traffic.destination(cycle, src) == 0 ? 1 : 0;
      ++total;
    }
  }
  // 10% hotspot draws + the uniform share: 0.1 + 0.9/64 ~ 0.114.
  const double frac = static_cast<double>(to_zero) / total;
  EXPECT_NEAR(frac, 0.114, 0.02);
}

}  // namespace
}  // namespace hbnet

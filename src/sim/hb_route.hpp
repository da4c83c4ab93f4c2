// Implicit per-hop routing for HB(m,n) (the store-and-forward engine's HB
// router, sim/sharded.hpp).
//
// The engine's generic path router materializes every packet's full route
// as a std::vector of node ids -- a heap allocation per packet and
// O(diameter) memory each. But HB routes have closed form: the cube phase is
// LSB-first bit correction of the cube-word difference, and the butterfly
// phase is a minimum covering walk, which plan_covering_walk() returns as
// three monotone runs in a few bytes. HbRouteState carries exactly that --
// the remaining cube diff, the remaining word diff, and the three run
// lengths -- so a packet is a fixed-size POD and each hop is O(1) bit math.
//
// The emitted hop sequence is identical to
// HyperButterfly::route_generators(): cube bits LSB-first, then the greedy
// first-crossing flip discipline of Butterfly::route() over the planned
// walk. Tests replay both against each other exhaustively on small
// instances.
#pragma once

#include <bit>
#include <cstdint>

#include "check/check.hpp"
#include "core/hyper_butterfly.hpp"

namespace hbnet::sim {

/// Remaining route of an in-flight packet, 12 bytes, trivially copyable.
struct HbRouteState {
  std::uint32_t cube_diff = 0;  // cube bits still to flip (LSB first)
  std::uint32_t word_diff = 0;  // butterfly word bits still to fix
  std::uint8_t run[3] = {0, 0, 0};  // steps left in each monotone run
  std::int8_t dir0 = 1;             // direction of run 0 (+1 = g-direction)

  [[nodiscard]] bool done() const {
    return cube_diff == 0 && (run[0] | run[1] | run[2]) == 0;
  }
  [[nodiscard]] unsigned hops_remaining() const {
    return static_cast<unsigned>(std::popcount(cube_diff)) + run[0] + run[1] +
           run[2];
  }
};

/// One hop of an implicit route: the next vertex and the generator taken,
/// as an index into HyperButterfly::generators() order (h_0..h_{m-1}, g, f,
/// g^-1, f^-1) -- the sharded engine's per-link telemetry key.
struct HbHop {
  HbNode next{};
  std::uint8_t gen = 0;
};

/// Stateless route planner/advancer for one HB(m,n) instance. Methods are
/// const and thread-safe; all mutable route state lives in HbRouteState.
class HbImplicitRouter {
 public:
  explicit HbImplicitRouter(const HyperButterfly& hb)
      : m_(hb.cube_dimension()), n_(hb.butterfly_dimension()) {}

  /// Plans src -> dst. O(n) once per packet (vs O(1) per hop after).
  [[nodiscard]] HbRouteState plan(HbNode src, HbNode dst) const;

  /// Advances one hop from `cur` (which must match the state's progress);
  /// updates `st` in place. Precondition: !st.done().
  ///
  /// Defined here (and division-free: the level wraps are compares, not
  /// modulo) because the sharded engine executes this once per packet move
  /// -- it is the single hottest function in the library.
  [[nodiscard]] HbHop next_hop(HbNode cur, HbRouteState& st) const {
    HBNET_DCHECK_MSG(!st.done(), "next_hop past end of route");
    if (st.cube_diff != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(st.cube_diff));
      st.cube_diff &= st.cube_diff - 1;
      return {{cur.cube ^ (CubeWord{1} << bit), cur.bfly},
              static_cast<std::uint8_t>(bit)};
    }
    unsigned i = 0;
    while (st.run[i] == 0) ++i;
    --st.run[i];
    const int dir = i == 1 ? -int{st.dir0} : int{st.dir0};
    const std::uint32_t lvl = cur.bfly.level;
    const std::uint32_t down = lvl == 0 ? n_ - 1 : lvl - 1;
    // Same greedy discipline as Butterfly::route(): an upward step crosses
    // cycle edge cur.level, a downward step crosses (cur.level - 1) mod n;
    // take the flipping generator on the first crossing of a required edge.
    const std::uint32_t edge = dir > 0 ? lvl : down;
    const bool flip = (st.word_diff >> edge) & 1;
    if (flip) st.word_diff ^= 1u << edge;
    const std::uint32_t word =
        flip ? cur.bfly.word ^ (1u << edge) : cur.bfly.word;
    const std::uint32_t level =
        dir > 0 ? (lvl + 1 == n_ ? 0 : lvl + 1) : down;
    // Generator index: g = m, f = m+1, g^-1 = m+2, f^-1 = m+3.
    const unsigned gen = m_ + (dir > 0 ? 0u : 2u) + (flip ? 1u : 0u);
    return {{cur.cube, {word, level}}, static_cast<std::uint8_t>(gen)};
  }

 private:
  unsigned m_, n_;
};

}  // namespace hbnet::sim

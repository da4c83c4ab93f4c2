// The store-and-forward engine's HB packet (sim/sharded.cpp) and the
// helpers that plan and step its packed route. They live in a header only
// so that tests can step the packed form beside HbImplicitRouter; nothing
// else in the library uses them.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

#include "check/check.hpp"
#include "core/hyper_butterfly.hpp"
#include "topology/butterfly.hpp"

namespace hbnet::detail {

/// A packet on an HB implicit route: one 24-byte segment slot, no owned
/// memory. The current node is stored pre-split as wc = (cube << n) | word
/// plus the level, so the sweep derives its dense id with one multiply and
/// never divides. The rest of the route (an HbRouteState) is packed:
///
///   diff   bits 27..31 level, bits n..n+m-1 cube bits still to flip,
///          bits 0..n-1 word bits still to fix (m + n <= 26 < 27)
///   runs   steps left in the walk's three monotone runs, 5 bits each
///          (each run is at most the walk length, <= floor(3n/2) <= 30)
///   flags  the engine's bits plus kHbWalkDown, the direction of run 0
///
/// The cube bits sit at the same positions in `diff` and `wc`, so a cube
/// hop XORs one bit into both.
struct HbPacket {
  std::uint32_t wc = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t injected_at = 0;
  std::uint32_t diff = 0;
  std::uint16_t runs = 0;
  std::uint8_t hops = 0;  // a Valiant route takes at most 2 * 36 hops
  std::uint8_t flags = 0;
};
static_assert(std::is_trivially_copyable_v<HbPacket> &&
                  sizeof(HbPacket) == 24,
              "segment slots should stay compact");

/// flags bit owned by the packed route: run 0 of the butterfly walk goes
/// down (g^-1 / f^-1). Bits 0 and 1 are the engine's.
inline constexpr std::uint8_t kHbWalkDown = 4;

/// Plans and steps HbPacket routes on one HB(m,n): the packed twin of
/// HbImplicitRouter. A cube hop flips the lowest cube bit in place; a
/// butterfly hop unpacks a BflyWalk, takes one Butterfly::step and packs
/// the result back, so both walk the same generators.
class HbPacketRoute {
 public:
  static constexpr unsigned kLevelShift = 27;

  explicit HbPacketRoute(const HyperButterfly& hb)
      : router_(hb),
        bfly_(hb.butterfly()),
        m_(hb.cube_dimension()),
        n_(hb.butterfly_dimension()),
        word_mask_((std::uint32_t{1} << n_) - 1),
        cube_mask_(((std::uint32_t{1} << m_) - 1) << n_) {
    // A native route is at most diameter_formula() hops, a Valiant one two
    // such legs.
    HBNET_CHECK_MSG(m_ + n_ <= kLevelShift && 2 * hb.diameter_formula() <= 255,
                    "HbPacketRoute: HB(m,n) too large for the packed packet");
  }

  /// Dense node id: one multiply-add.
  [[nodiscard]] std::uint32_t node(const HbPacket& p) const {
    return p.wc * n_ + (p.diff >> kLevelShift);
  }
  [[nodiscard]] HbNode position(const HbPacket& p) const {
    return {static_cast<CubeWord>(p.wc >> n_),
            {p.wc & word_mask_, p.diff >> kLevelShift}};
  }
  /// Moves `p` to node `id` and clears its route.
  void place(HbPacket& p, std::uint32_t id) const {
    p.wc = id / n_;
    p.diff = (id % n_) << kLevelShift;
    p.runs = 0;
  }

  /// Plans the route from where `p` is to `dst`, replacing what is left.
  void plan(HbPacket& p, HbNode dst) const {
    const HbRouteState st = router_.plan(position(p), dst);
    const BflyWalk& w = st.walk;
    HBNET_CHECK_MSG((w.run[0] | w.run[1] | w.run[2]) < 32,
                    "HbPacketRoute: walk run exceeds 5 bits");
    p.diff = (p.diff & ~kRouteMask) | (st.cube_diff << n_) | w.word_diff;
    p.runs = pack_runs(w);
    p.flags = static_cast<std::uint8_t>(
        (p.flags & ~kHbWalkDown) | (w.dir0 < 0 ? kHbWalkDown : 0));
  }

  /// The route still to walk, unpacked.
  [[nodiscard]] HbRouteState route(const HbPacket& p) const {
    return {(p.diff & cube_mask_) >> n_, walk(p)};
  }
  [[nodiscard]] bool done(const HbPacket& p) const {
    return p.runs == 0 && (p.diff & cube_mask_) == 0;
  }

  /// Takes the next hop of `p`'s route, moving it, and returns the
  /// generator byte. Precondition: !done(p).
  std::uint8_t step(HbPacket& p) const {
    const std::uint32_t cube = p.diff & cube_mask_;
    if (cube != 0) {
      const std::uint32_t low = cube & (0u - cube);
      p.diff ^= low;
      p.wc ^= low;
      return static_cast<std::uint8_t>(std::countr_zero(low) - n_);
    }
    BflyNode cur{p.wc & word_mask_, p.diff >> kLevelShift};
    BflyWalk w = walk(p);
    const BflyGen gen = bfly_.step(cur, w);
    p.wc = (p.wc & ~word_mask_) | cur.word;
    p.diff = cur.level << kLevelShift | w.word_diff;
    p.runs = pack_runs(w);
    return static_cast<std::uint8_t>(m_ + static_cast<unsigned>(gen));
  }

 private:
  static constexpr std::uint32_t kRouteMask =
      (std::uint32_t{1} << kLevelShift) - 1;

  [[nodiscard]] static std::uint16_t pack_runs(const BflyWalk& w) {
    return static_cast<std::uint16_t>(w.run[0] | w.run[1] << 5 |
                                      w.run[2] << 10);
  }
  [[nodiscard]] BflyWalk walk(const HbPacket& p) const {
    return {p.diff & word_mask_,
            {static_cast<std::uint8_t>(p.runs & 31),
             static_cast<std::uint8_t>(p.runs >> 5 & 31),
             static_cast<std::uint8_t>(p.runs >> 10)},
            static_cast<std::int8_t>((p.flags & kHbWalkDown) != 0 ? -1 : 1)};
  }

  HbImplicitRouter router_;
  Butterfly bfly_;
  unsigned m_, n_;
  std::uint32_t word_mask_, cube_mask_;
};

}  // namespace hbnet::detail

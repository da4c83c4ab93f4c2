// Fault-tolerant routing in HB(m,n) (Remark 10 of the paper).
//
// Because HB(m,n) has m+4 internally vertex-disjoint paths between every
// vertex pair (Theorem 5) and is (m+4)-regular, it tolerates any m+3 node
// faults: at least one of the constructed disjoint paths is fault free.
// route_around_faults() returns the shortest fault-free member of the
// Theorem-5 family; this is the paper's "optimal routing scheme in the
// presence of maximal number of allowable faults". A BFS reference
// (hb_bfs_path with faults) is available for cross-checking optimality and
// for fault sets beyond the guarantee.
//
// Members are inspected by (length, construction index): the shortest
// first, and among equally long members the one HyperButterfly::
// disjoint_paths lists first. The family from u to v is the left translate
// by u of the family from the identity e to the relative position u^-1·v
// (see core/disjoint_paths.cpp), and translation keeps generator labels. So
// HbFaultPlanner stores each family once, as generator bytes, and replays
// it from any source: walking the bytes from u visits exactly the translate.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "core/routing.hpp"

namespace hbnet {

namespace obs {
class Sink;
}

/// Statistics of a fault-routing attempt.
struct FaultRouteResult {
  std::vector<HbNode> path;      // empty when no path was found
  unsigned paths_tried = 0;      // disjoint paths inspected
  bool used_fallback = false;    // true if BFS fallback produced the path
  [[nodiscard]] bool ok() const { return !path.empty(); }
};

/// The Theorem-5 selection loop over families memoized by relative position.
///
/// A family is stored as m+4 members, each a sequence of generator bytes
/// (HyperButterfly::apply) closed by kEnd, in (length, construction index)
/// order. The planner fills one flat byte
/// arena lazily: the first route to a relative position runs the Theorem-5
/// construction (unit-capacity max flow on the B_n layer) once, and every
/// later route from any source replays the bytes. Nothing is allocated
/// before the first planned route. Results never depend on what the memo
/// already holds. One planner must not serve concurrent calls.
class HbFaultPlanner {
 public:
  static constexpr std::uint8_t kEnd = 0xff;

  /// Outcome of select(): the chosen member's generator bytes (walk them
  /// from u; null when u == v) and the number of members inspected.
  struct Choice {
    bool found = false;
    const std::uint8_t* member = nullptr;
    unsigned paths_tried = 0;
  };

  explicit HbFaultPlanner(const HyperButterfly& hb) : hb_(&hb) {}

  /// Appends the family from the identity to r != e to `out`, in the
  /// stored form described above.
  static void plan(const HyperButterfly& hb, HbNode r,
                   std::vector<std::uint8_t>& out);

  /// The family from the identity to r != e, planned on first use.
  /// Valid until the next call that plans a new relative position.
  [[nodiscard]] const std::uint8_t* family(HbNode r);

  /// Selects the member for u -> v around the nodes marked in `faulty`
  /// (indexed by dense id; may be shorter than num_nodes(), unmarked means
  /// healthy), never leaving u towards a node whose id is in
  /// `banned_first`. The member pointer is valid until the next call that
  /// plans a new relative position.
  [[nodiscard]] Choice choose(HbNode u, HbNode v,
                              const std::vector<char>& faulty,
                              const std::vector<std::uint32_t>& banned_first);

  /// choose() as a node path. Family only: there is no BFS fallback, and
  /// used_fallback stays false.
  [[nodiscard]] FaultRouteResult route(
      HbNode u, HbNode v, const std::vector<char>& faulty,
      const std::vector<std::uint32_t>& banned_first = {});

  /// The one selection loop. A faulty endpoint fails with no member tried;
  /// u == v succeeds with the empty walk. Otherwise the members of
  /// family_of(u^-1·v) are walked from u in stored order, and the first one
  /// whose first hop x has !banned(x) and whose internal nodes y all have
  /// !faulty(y) is chosen.
  template <class Faulty, class Banned, class FamilyOf>
  static Choice select(const HyperButterfly& hb, HbNode u, HbNode v,
                       const Faulty& faulty, const Banned& banned,
                       FamilyOf&& family_of) {
    Choice c;
    if (faulty(u) || faulty(v)) return c;
    if (u == v) {
      c.found = true;
      return c;
    }
    const std::uint8_t* p = family_of(hb.relative(u, v));
    for (unsigned k = 0; k < hb.degree(); ++k) {
      ++c.paths_tried;
      const std::uint8_t* member = p;
      HbNode x = hb.apply(u, *p);
      bool clean = !banned(x);
      // x is internal while another generator follows it.
      while (clean && p[1] != kEnd) {
        if (faulty(x)) {
          clean = false;
        } else {
          x = hb.apply(x, *++p);
        }
      }
      if (clean) {
        c.found = true;
        c.member = member;
        return c;
      }
      while (*p != kEnd) ++p;
      ++p;
    }
    return c;
  }

  /// Calls visit(x) for every node after u on the walk of `member`.
  template <class Visit>
  static void walk(const HyperButterfly& hb, HbNode u,
                   const std::uint8_t* member, Visit&& visit) {
    if (member == nullptr) return;
    for (; *member != kEnd; ++member) {
      u = hb.apply(u, *member);
      visit(u);
    }
  }

 private:
  static constexpr std::uint32_t kUnplanned = ~std::uint32_t{0};

  const HyperButterfly* hb_;
  std::vector<std::uint32_t> offset_;  // arena offset per relative position
  std::vector<std::uint8_t> arena_;
};

/// Routes u -> v avoiding `faults` using the Theorem-5 disjoint-path family;
/// picks the shortest fault-free member. If every family member is
/// blocked (only possible when |faults| > m+3 or endpoints are faulty) and
/// `bfs_fallback` is set, falls back to BFS on the implicit fault-free graph.
/// A non-null `sink` accumulates attempt/paths-tried/fallback counters and
/// emits one instant trace event per routing decision.
[[nodiscard]] FaultRouteResult route_around_faults(const HyperButterfly& hb,
                                                   HbNode u, HbNode v,
                                                   const HbFaultSet& faults,
                                                   bool bfs_fallback = true,
                                                   obs::Sink* sink = nullptr);

/// Like route_around_faults, but additionally refuses any family member whose
/// first hop is a node in `banned_first` — the online wormhole router uses
/// this to avoid faulted *links* out of u that are not node faults. Because
/// the Theorem-5 family is internally vertex-disjoint, at most one member
/// leaves u through any given first edge, so each banned link costs at most
/// one candidate and the m+4-wide family still guarantees a survivor while
/// |node faults| + |banned links| <= m+3. Family-only: the BFS reference
/// cannot honor per-edge bans, so there is no fallback.
[[nodiscard]] FaultRouteResult route_around_faults(
    const HyperButterfly& hb, HbNode u, HbNode v, const HbFaultSet& faults,
    const std::vector<HbNode>& banned_first, obs::Sink* sink = nullptr);

}  // namespace hbnet

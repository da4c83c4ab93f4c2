// The hyper-butterfly network HB(m,n) -- the paper's primary contribution.
//
// HB(m,n) is the product of the hypercube H_m and the wrapped butterfly B_n
// (Definition 3). A vertex carries a hypercube-part label (m bits) and a
// butterfly-part label (word, level); the m+4 generators are the m hypercube
// bit flips h_i plus the four butterfly generators g, f, g^-1, f^-1
// (Remark 3 / Theorem 1). Headline properties implemented and tested here
// and in the sibling core/ files:
//
//   * regular Cayley graph of degree m+4 with n*2^(m+n) vertices and
//     (m+4)*n*2^(m+n-1) edges (Theorems 1-2),
//   * dist((h,b),(h',b')) = hamming(h,h') + dist_B(b,b'), giving trivially
//     optimal two-phase routing (Section 3) and diameter m + ceil(3n/2)
//     (Theorem 3; the butterfly term is measured in tests),
//   * m+4 internally vertex-disjoint paths between any two vertices
//     (Theorem 5) -> maximal fault tolerance (Corollary 1),
//   * fault-tolerant routing with up to m+3 node faults (Remark 10),
//   * embeddings (Section 4) in core/embeddings.hpp,
//   * broadcast (the paper's announced future work) in core/broadcast.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/cayley.hpp"
#include "graph/graph.hpp"
#include "topology/butterfly.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {

/// A hyper-butterfly vertex: hypercube part and butterfly part.
struct HbNode {
  CubeWord cube = 0;
  BflyNode bfly{};
  friend bool operator==(const HbNode&, const HbNode&) = default;
};

/// Remaining Section-3 route of a packet, 12 bytes, trivially copyable:
/// the cube bits still to flip (LSB first), then the butterfly walk.
struct HbRouteState {
  std::uint32_t cube_diff = 0;
  BflyWalk walk;

  [[nodiscard]] bool done() const { return cube_diff == 0 && walk.done(); }
  [[nodiscard]] unsigned hops_remaining() const {
    return static_cast<unsigned>(std::popcount(cube_diff)) + walk.length();
  }
};

static_assert(std::is_trivially_copyable_v<HbRouteState> &&
                  sizeof(HbRouteState) == 12,
              "HbRouteState is the per-packet route footprint");

/// One hop of a route: the next vertex and the generator byte taken.
struct HbHop {
  HbNode next{};
  std::uint8_t gen = 0;
};

/// Dense 64-bit index of an HB vertex (for sets/maps on large instances).
using HbIndex = std::uint64_t;

class HyperButterfly {
 public:
  /// Constructs HB(m,n); m >= 1, n in [3, 20], m + n <= 26.
  HyperButterfly(unsigned m, unsigned n);

  [[nodiscard]] unsigned cube_dimension() const { return m_; }
  [[nodiscard]] unsigned butterfly_dimension() const { return n_; }
  [[nodiscard]] const Hypercube& hypercube() const { return cube_; }
  [[nodiscard]] const Butterfly& butterfly() const { return bfly_; }

  /// n * 2^(m+n) vertices (Theorem 2).
  [[nodiscard]] HbIndex num_nodes() const {
    return static_cast<HbIndex>(n_) << (m_ + n_);
  }
  /// (m+4) * n * 2^(m+n-1) edges (Theorem 2).
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(m_ + 4) * num_nodes() / 2;
  }
  /// Degree of every vertex: m + 4.
  [[nodiscard]] unsigned degree() const { return m_ + 4; }

  /// Theorem 3: m + ceil(3n/2). See EXPERIMENTS.md for the measured value.
  [[nodiscard]] unsigned diameter_formula() const {
    return m_ + (3 * n_ + 1) / 2;
  }

  /// Applies generator byte `gen`: 0..m-1 flip cube bit h_i, m..m+3 are
  /// g, f, g^-1, f^-1. This is the order of neighbors() and of every
  /// generator word in the library.
  [[nodiscard]] HbNode apply(HbNode v, std::uint8_t gen) const {
    if (gen < m_) {
      v.cube ^= CubeWord{1} << gen;
    } else {
      v.bfly = bfly_.apply(v.bfly, static_cast<BflyGen>(gen - m_));
    }
    return v;
  }

  /// All m+4 neighbors, in generator order.
  [[nodiscard]] std::vector<HbNode> neighbors(HbNode v) const;

  /// Exact shortest-path distance (Remark 8): cube Hamming distance plus
  /// butterfly covering-walk distance.
  [[nodiscard]] unsigned distance(HbNode u, HbNode v) const;

  /// Optimal two-phase route (Section 3) as the full vertex sequence
  /// [u, ..., v]: route_generators(u, v) replayed through apply().
  [[nodiscard]] std::vector<HbNode> route(HbNode u, HbNode v) const;

  /// The Section-3 route as generator bytes, walked by HbImplicitRouter:
  /// hypercube phase (cube bits LSB-first), then the butterfly phase
  /// (Butterfly::step). Throws std::logic_error if the walk misses v.
  [[nodiscard]] std::vector<std::uint8_t> route_generators(HbNode u,
                                                           HbNode v) const;
  /// The same bytes appended to `out`.
  void route_generators(HbNode u, HbNode v,
                        std::vector<std::uint8_t>& out) const;

  /// Left translation by u, x -> u·x (Theorem 1): (h, (w, l)) maps to
  /// (h_u ^ h, (w_u ^ rotl_n(w, l_u), (l + l_u) mod n)). It is an
  /// automorphism that keeps every generator label (x·s maps to (u·x)·s),
  /// and it sends the identity (0, (0, 0)) to u.
  [[nodiscard]] HbNode translate(HbNode u, HbNode x) const {
    const std::uint32_t lu = u.bfly.level;
    const std::uint32_t rot =
        lu == 0 ? x.bfly.word
                : ((x.bfly.word << lu) | (x.bfly.word >> (n_ - lu))) &
                      ((1u << n_) - 1);
    return {u.cube ^ x.cube,
            {u.bfly.word ^ rot, (x.bfly.level + lu) % n_}};
  }
  /// The relative position u^-1·v: the node whose translate by u is v.
  [[nodiscard]] HbNode relative(HbNode u, HbNode v) const {
    const std::uint32_t lu = u.bfly.level;
    const std::uint32_t w = u.bfly.word ^ v.bfly.word;
    const std::uint32_t rot =
        lu == 0 ? w : ((w >> lu) | (w << (n_ - lu))) & ((1u << n_) - 1);
    return {u.cube ^ v.cube, {rot, (v.bfly.level + n_ - lu) % n_}};
  }

  /// Theorem 5: m+4 internally vertex-disjoint u-v paths (u != v), listed
  /// in construction order. Defined as the left translate by u of the
  /// family from the identity to u^-1·v, so families of pairs with the same
  /// relative position agree generator by generator. Implemented in
  /// core/disjoint_paths.cpp; see that file for the construction and its
  /// degenerate-case handling.
  [[nodiscard]] std::vector<std::vector<HbNode>> disjoint_paths(
      HbNode u, HbNode v) const;

  /// Dense index: ((cube << n) | word) * n + level.
  [[nodiscard]] HbIndex index_of(HbNode v) const {
    return ((static_cast<HbIndex>(v.cube) << n_) | v.bfly.word) * n_ +
           v.bfly.level;
  }
  [[nodiscard]] HbNode node_at(HbIndex id) const {
    auto level = static_cast<std::uint32_t>(id % n_);
    HbIndex wc = id / n_;
    return {static_cast<CubeWord>(wc >> n_),
            {static_cast<std::uint32_t>(wc & ((HbIndex{1} << n_) - 1)), level}};
  }
  /// apply() on dense indices: the node generator `gen` leads to from `id`.
  [[nodiscard]] HbIndex neighbor(HbIndex id, std::uint8_t gen) const {
    return index_of(apply(node_at(id), gen));
  }
  /// True iff the vertex is valid for this instance.
  [[nodiscard]] bool contains(HbNode v) const {
    return v.cube < (CubeWord{1} << m_) && v.bfly.word < (1u << n_) &&
           v.bfly.level < n_;
  }

  /// Cayley-graph view (Theorem 1).
  [[nodiscard]] CayleySpec cayley_spec() const;

  /// Materialized CSR graph. Throws if num_nodes() exceeds 2^31 (use the
  /// implicit interface for larger instances).
  [[nodiscard]] Graph to_graph() const;

  /// Materialized wrapped butterfly B_n of this instance (one layer),
  /// indexed by Butterfly::index_of. Used by the Theorem-5 construction.
  [[nodiscard]] const Graph& butterfly_graph() const;

 private:
  unsigned m_, n_;
  Hypercube cube_;
  Butterfly bfly_;
  mutable Graph bfly_graph_;       // lazily materialized
  mutable bool bfly_graph_ready_ = false;
};

/// Stateless Section-3 route planner/advancer for one HB(m,n) instance.
/// Methods are const and thread-safe; all route state lives in
/// HbRouteState. The sharded engine plans once per packet and calls
/// next_hop() once per packet move, so both are inline and plan() makes a
/// single out-of-line call, to plan_covering_walk().
class HbImplicitRouter {
 public:
  explicit HbImplicitRouter(const HyperButterfly& hb)
      : m_(hb.cube_dimension()), bfly_(hb.butterfly()) {}

  /// Plans src -> dst: O(n) once per packet, O(1) per hop after.
  [[nodiscard]] HbRouteState plan(HbNode src, HbNode dst) const {
    return {src.cube ^ dst.cube, bfly_.walk(src.bfly, dst.bfly)};
  }

  /// Advances one hop from `cur` (which must match the state's progress)
  /// and updates `st` in place. Precondition: !st.done().
  [[nodiscard]] HbHop next_hop(HbNode cur, HbRouteState& st) const {
    if (st.cube_diff != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(st.cube_diff));
      st.cube_diff &= st.cube_diff - 1;
      return {{cur.cube ^ (CubeWord{1} << bit), cur.bfly},
              static_cast<std::uint8_t>(bit)};
    }
    const BflyGen gen = bfly_.step(cur.bfly, st.walk);
    return {cur, static_cast<std::uint8_t>(m_ + static_cast<unsigned>(gen))};
  }

 private:
  unsigned m_;
  Butterfly bfly_;
};

/// Butterfly vertex sequences, one per path.
using BflyPaths = std::vector<std::vector<BflyNode>>;

/// Q_1..Q_4 of the Theorem-5 construction: four internally disjoint B_n
/// paths from (0, 0) to b != (0, 0), by unit-capacity max flow on
/// hb.butterfly_graph(); when b is adjacent to (0, 0) the direct edge is
/// Q_1. They depend on b alone, so HbFaultPlanner plans them once per
/// butterfly position. Implemented in core/disjoint_paths.cpp.
[[nodiscard]] BflyPaths theorem5_butterfly_paths(const HyperButterfly& hb,
                                                 BflyNode b);

/// The Theorem-5 family from the identity e to r != e, in construction
/// order, built on q = theorem5_butterfly_paths(hb, r.bfly) (q is not read,
/// and may be empty, when r.bfly == (0, 0)). disjoint_paths(u, v) is the
/// translate by u of theorem5_family(hb, u^-1·v, ...).
[[nodiscard]] std::vector<std::vector<HbNode>> theorem5_family(
    const HyperButterfly& hb, HbNode r, const BflyPaths& q);

/// Result of sweeping the Theorem-5 construction over vertex pairs.
struct DisjointPathsAudit {
  bool ok = true;
  std::uint64_t pairs_checked = 0;  // all ordered pairs, N(N-1)
  std::string error;  // lowest-target violation "pair (0 -> v): ..." when
                      // !ok, else empty
};

/// Verifies Theorem 5 operationally for every ordered pair (u, v) of
/// distinct vertices, modulo translation: the family of (u, v) is the
/// translate by u of the family of (e, u^-1·v), and left translation is a
/// label-preserving automorphism, so it suffices to construct the m+4
/// paths from e to each of the N-1 other vertices and validate them
/// against the materialized graph (count, endpoints, edges, internal
/// disjointness). pairs_checked still counts all N(N-1) ordered pairs that
/// this covers. The sweep runs on the hbnet::par pool (`threads`;
/// 0 = par::default_threads()); the reported violation, if any, is the one
/// with the lowest target index, so the outcome is thread-count
/// independent. Implemented in core/disjoint_paths.cpp.
[[nodiscard]] DisjointPathsAudit audit_disjoint_paths(const HyperButterfly& hb,
                                                      unsigned threads = 0);

}  // namespace hbnet

// Implicit hyper-butterfly adjacency: HB(m,n) as an AdjacencyProvider whose
// neighborhoods are computed arithmetically from the Cayley generator set
// (m hypercube bit flips plus g, f, g^-1, f^-1), never materialized.
//
// Vertex ids use the same dense index as HyperButterfly::index_of --
// ((cube << n) | word) * n + level -- so results (kappa, BFS distances,
// sweep checkpoint positions) are directly comparable with the CSR path, and
// the orbit reduction below (cube permutations and the level reflection)
// applies to both adjacency modes. Memory per instance: O(1); HB(5,4)
// needs 2048 * 9 / 2 = 9216 CSR edge slots materialized, zero here.
#pragma once

#include <cstdint>
#include <string>

#include "graph/adjacency.hpp"

namespace hbnet {

/// AdjacencyProvider for HB(m,n) backed by generator arithmetic only.
/// Same parameter domain as HyperButterfly (m >= 1, n in [3, 20],
/// m + n <= 26); every instance in that domain fits NodeId.
class HbImplicitAdjacency final : public AdjacencyProvider {
 public:
  HbImplicitAdjacency(unsigned m, unsigned n);

  [[nodiscard]] unsigned cube_dimension() const { return m_; }
  [[nodiscard]] unsigned butterfly_dimension() const { return n_; }

  [[nodiscard]] NodeId num_nodes() const override {
    return static_cast<NodeId>(n_) << (m_ + n_);
  }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return static_cast<std::uint64_t>(m_ + 4) * num_nodes() / 2;
  }
  [[nodiscard]] std::uint32_t degree(NodeId /*v*/) const override {
    return m_ + 4;
  }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> degree_range()
      const override {
    return {m_ + 4, m_ + 4};
  }

  /// Writes the m+4 neighbors of `v` into `scratch`, sorted ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId v, NodeId* scratch) const override;

  /// Mode-tagged digest: differs from the CSR fingerprint of the same
  /// instance by design, so a sweep checkpoint records which adjacency mode
  /// produced it and cross-mode resumes restart cleanly.
  [[nodiscard]] std::uint64_t fingerprint() const override;

  [[nodiscard]] std::string describe() const override;

 private:
  unsigned m_, n_;
};

/// Orbit representative of `v` under S_m x <sigma>, a subgroup of the
/// automorphisms of HB(m,n) that fix vertex 0 = (0, (0, 0)):
///  * every permutation pi of the m hypercube coordinates maps
///    (c, w, l) -> (pi(c), w, l);
///  * the butterfly level reflection sigma maps (c, w, l) ->
///    (c, reverse_n(w), -l mod n), where reverse_n moves word bit k to bit
///    n-1-k. It swaps g with g^-1 and f with f^-1, so it maps every edge to
///    an edge, and it commutes with every pi.
/// So kappa(0, v) == kappa(0, rep(v)). The representative is the minimum
/// index in the orbit: the cube part becomes the low-bits mask of the same
/// popcount, and the butterfly part the smaller of (w, l) and sigma(w, l).
/// The reduction stays exact when the sweep solves on a k-certificate C
/// (SweepOptions::sparsify): C need not be sigma-invariant, but it keeps
/// kappa_C(0, t) == min(k, kappa_G(0, t)) == kappa_C(0, sigma(t)).
/// Feed this to SweepOptions::orbit_rep: it shrinks the single-source
/// target set by about 2^(m+1) / (m+1) (HB(5,6): 12,278 non-neighbors of
/// vertex 0 -> 1,196 targets).
[[nodiscard]] NodeId hb_cube_orbit_representative(unsigned m, unsigned n,
                                                  NodeId v);

}  // namespace hbnet

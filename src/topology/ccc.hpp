// Cube-connected cycles CCC(n) -- the third classical bounded-degree
// network of the paper's context (with the butterfly and de Bruijn
// families). Included as an extended baseline: degree 3, n*2^n vertices,
// diameter 2n + floor(n/2) - 2 for n >= 4.
//
// A vertex is (word w, position p): cycle edges change p by +-1 (mod n),
// the single cube edge flips bit p of w. Routing therefore reduces to a
// minimum walk on the position cycle Z_n that *visits* every position
// whose bit differs (one extra step per flip), solved exactly in O(n) by
// plan_visiting_walk (topology/butterfly.hpp): the butterfly's covering-walk
// kernel with the right extreme of the lifted interval counted as visited.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/cayley.hpp"
#include "graph/graph.hpp"

namespace hbnet {

struct CccNode {
  std::uint32_t word = 0;
  std::uint32_t pos = 0;
  friend bool operator==(const CccNode&, const CccNode&) = default;
};

class CubeConnectedCycles {
 public:
  /// CCC(n), n in [3, 26].
  explicit CubeConnectedCycles(unsigned n);

  [[nodiscard]] unsigned dimension() const { return n_; }
  [[nodiscard]] NodeId num_nodes() const { return n_ << n_; }
  [[nodiscard]] std::uint64_t num_edges() const {
    return static_cast<std::uint64_t>(3) * num_nodes() / 2;
  }
  [[nodiscard]] static constexpr unsigned degree() { return 3; }

  /// Classical diameter formula (n >= 4); tests pin small n by BFS.
  [[nodiscard]] unsigned diameter_formula() const {
    return 2 * n_ + n_ / 2 - 2;
  }

  /// The three neighbors: cycle forward, cycle backward, cube.
  [[nodiscard]] std::vector<CccNode> neighbors(CccNode v) const;

  /// Exact shortest-path distance.
  [[nodiscard]] unsigned distance(CccNode u, CccNode v) const;

  /// One optimal route as the full vertex sequence [u, ..., v].
  [[nodiscard]] std::vector<CccNode> route_nodes(CccNode u, CccNode v) const;

  [[nodiscard]] NodeId index_of(CccNode v) const {
    return static_cast<NodeId>(v.word) * n_ + v.pos;
  }
  [[nodiscard]] CccNode node_at(NodeId id) const {
    return {static_cast<std::uint32_t>(id / n_),
            static_cast<std::uint32_t>(id % n_)};
  }

  [[nodiscard]] CayleySpec cayley_spec() const;
  [[nodiscard]] Graph to_graph() const;

 private:
  unsigned n_;
};

}  // namespace hbnet

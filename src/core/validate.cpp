#include "core/validate.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "core/hyper_butterfly.hpp"

namespace hbnet::check {
namespace {

std::string at_node(const char* what, std::uint64_t v) {
  return std::string(what) + " at node " + std::to_string(v);
}

}  // namespace

std::string validate(const HyperButterfly& hb) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  const HbIndex nodes = hb.num_nodes();
  if (hb.degree() != m + 4) {
    return "degree() != m+4 (Theorem 1)";
  }
  if (nodes != (static_cast<HbIndex>(n) << (m + n))) {
    return "num_nodes() != n*2^(m+n) (Theorem 2)";
  }
  if (hb.num_edges() != static_cast<std::uint64_t>(m + 4) * nodes / 2) {
    return "num_edges() != (m+4)*n*2^(m+n-1) (Theorem 2)";
  }
  // Bounded vertex sample: stride chosen so at most ~256 vertices are
  // inspected however large the instance is. Stride 1 covers small
  // instances exhaustively.
  const HbIndex stride = std::max<HbIndex>(1, nodes / 256);
  for (HbIndex id = 0; id < nodes; id += stride) {
    const HbNode v = hb.node_at(id);
    if (!hb.contains(v)) return at_node("node_at produced invalid vertex", id);
    if (hb.index_of(v) != id) {
      return at_node("index_of(node_at(id)) != id", id);
    }
    const std::vector<HbNode> nbrs = hb.neighbors(v);
    if (nbrs.size() != m + 4) {
      return at_node("neighbor count != m+4 (Theorem 1)", id);
    }
    for (std::uint8_t g = 0; g < m + 4; ++g) {
      const HbNode w = hb.apply(v, g);
      if (!(w == nbrs[g])) {
        return at_node("neighbors() not in generator-byte order", id);
      }
      if (!hb.contains(w)) {
        return at_node("neighbor outside the vertex set", id);
      }
      if (w == v) return at_node("self-loop generator image", id);
      for (std::uint8_t j = 0; j < g; ++j) {
        if (nbrs[j] == w) {
          return at_node("duplicate neighbor (generators not distinct)", id);
        }
      }
      // Undirectedness: every generator's inverse is a generator, so v must
      // appear among each neighbor's neighbors.
      const std::vector<HbNode> back = hb.neighbors(w);
      if (std::find(back.begin(), back.end(), v) == back.end()) {
        return at_node("neighbor does not list the vertex back", id);
      }
    }
  }
  return {};
}

}  // namespace hbnet::check

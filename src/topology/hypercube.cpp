#include "topology/hypercube.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace hbnet {

Hypercube::Hypercube(unsigned m) : m_(m) {
  if (m < 1 || m > 26) {
    throw std::invalid_argument("Hypercube: dimension must be in [1,26], got " +
                                std::to_string(m));
  }
}

std::vector<CubeWord> Hypercube::neighbors(CubeWord u) const {
  std::vector<CubeWord> out;
  out.reserve(m_);
  for (unsigned i = 0; i < m_; ++i) out.push_back(u ^ (CubeWord{1} << i));
  return out;
}

std::vector<CubeWord> Hypercube::route(CubeWord u, CubeWord v) const {
  std::vector<CubeWord> path{u};
  CubeWord cur = u;
  CubeWord diff = u ^ v;
  while (diff != 0) {
    unsigned bit = static_cast<unsigned>(std::countr_zero(diff));
    cur ^= CubeWord{1} << bit;
    diff &= diff - 1;
    path.push_back(cur);
  }
  return path;
}

std::vector<std::vector<CubeWord>> Hypercube::disjoint_paths(CubeWord u,
                                                             CubeWord v) const {
  if (u == v) {
    throw std::invalid_argument("Hypercube::disjoint_paths: u == v");
  }
  const CubeWord diff = u ^ v;
  std::vector<unsigned> d;  // differing bit positions
  std::vector<unsigned> same;
  for (unsigned i = 0; i < m_; ++i) {
    if (diff & (CubeWord{1} << i)) {
      d.push_back(i);
    } else {
      same.push_back(i);
    }
  }
  const std::size_t k = d.size();
  std::vector<std::vector<CubeWord>> paths;
  paths.reserve(m_);
  // k "rotation" paths: path i corrects differing bits in the cyclically
  // rotated order d[i], d[i+1], ..., d[i+k-1]. Classic Saad-Schultz family:
  // interiors are pairwise distinct because the set of corrected bits after
  // j steps of rotation i is a cyclic interval of d starting at i, and
  // distinct (start, length) intervals with 0 < length < k give distinct
  // vertices.
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<CubeWord> p{u};
    CubeWord cur = u;
    for (std::size_t j = 0; j < k; ++j) {
      cur ^= CubeWord{1} << d[(i + j) % k];
      p.push_back(cur);
    }
    paths.push_back(std::move(p));
  }
  // m-k "detour" paths through the non-differing bits: flip bit s, correct
  // all differing bits in fixed order, flip s back. All interior vertices
  // have bit s wrong, so they cannot collide with the rotation paths nor
  // with detour paths of another s.
  for (unsigned s : same) {
    std::vector<CubeWord> p{u};
    CubeWord cur = u ^ (CubeWord{1} << s);
    p.push_back(cur);
    for (unsigned bit : d) {
      cur ^= CubeWord{1} << bit;
      p.push_back(cur);
    }
    cur ^= CubeWord{1} << s;
    p.push_back(cur);
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<CubeWord> Hypercube::even_cycle(std::uint64_t k) const {
  if (k < 4 || k % 2 != 0 || k > (std::uint64_t{1} << m_)) {
    throw std::invalid_argument("Hypercube::even_cycle: invalid length");
  }
  // Take a Gray path of l = k/2 vertices in the (m-1)-subcube and pair it
  // with its shifted copy: v0.0 ... v(l-1).0, v(l-1).1 ... v0.1.
  const std::uint64_t l = k / 2;
  std::vector<CubeWord> cycle;
  cycle.reserve(k);
  const CubeWord top = CubeWord{1} << (m_ - 1);
  for (std::uint64_t i = 0; i < l; ++i) cycle.push_back(gray(i));
  for (std::uint64_t i = l; i-- > 0;) cycle.push_back(gray(i) | top);
  return cycle;
}

CayleySpec Hypercube::cayley_spec() const {
  CayleySpec spec;
  spec.num_nodes = num_nodes();
  for (unsigned i = 0; i < m_; ++i) {
    std::string name = "h";
    name += std::to_string(i);
    spec.generators.push_back({std::move(name), [i](NodeId v) -> NodeId {
                                 return v ^ (NodeId{1} << i);
                               }});
  }
  return spec;
}

Graph Hypercube::to_graph() const { return materialize(cayley_spec()); }

}  // namespace hbnet

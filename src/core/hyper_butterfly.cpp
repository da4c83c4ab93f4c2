#include "core/hyper_butterfly.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"

namespace hbnet {

HyperButterfly::HyperButterfly(unsigned m, unsigned n)
    : m_(m), n_(n), cube_(m == 0 ? 1 : m), bfly_(n) {
  if (m < 1 || n < 3 || n > 20 || m + n > 26) {
    throw std::invalid_argument(
        "HyperButterfly: need m >= 1, n in [3, 20], m + n <= 26 (got m=" +
        std::to_string(m) + ", n=" + std::to_string(n) + ")");
  }
  // Theorem 1-2 structural invariants, verified on a bounded vertex sample
  // (checked builds only; see core/validate.hpp).
  HBNET_DCHECK_OK(check::validate(*this));
}

std::vector<HbNode> HyperButterfly::neighbors(HbNode v) const {
  std::vector<HbNode> out;
  out.reserve(degree());
  for (std::uint8_t g = 0; g < degree(); ++g) out.push_back(apply(v, g));
  return out;
}

unsigned HyperButterfly::distance(HbNode u, HbNode v) const {
  return Hypercube::distance(u.cube, v.cube) + bfly_.distance(u.bfly, v.bfly);
}

std::vector<HbNode> HyperButterfly::route(HbNode u, HbNode v) const {
  const std::vector<std::uint8_t> gens = route_generators(u, v);
  std::vector<HbNode> path;
  path.reserve(gens.size() + 1);
  path.push_back(u);
  for (const std::uint8_t g : gens) path.push_back(apply(path.back(), g));
  return path;
}

std::vector<std::uint8_t> HyperButterfly::route_generators(HbNode u,
                                                          HbNode v) const {
  std::vector<std::uint8_t> gens;
  route_generators(u, v, gens);
  return gens;
}

void HyperButterfly::route_generators(HbNode u, HbNode v,
                                      std::vector<std::uint8_t>& out) const {
  const HbImplicitRouter router(*this);
  HbRouteState st = router.plan(u, v);
  HbNode cur = u;
  while (!st.done()) {
    const HbHop hop = router.next_hop(cur, st);
    out.push_back(hop.gen);
    cur = hop.next;
  }
  if (!(cur == v)) {
    throw std::logic_error(
        "HyperButterfly::route_generators: internal routing error");
  }
}

CayleySpec HyperButterfly::cayley_spec() const {
  if (num_nodes() > (HbIndex{1} << 31)) {
    throw std::length_error(
        "HyperButterfly::cayley_spec: instance too large to materialize");
  }
  CayleySpec spec;
  spec.num_nodes = static_cast<NodeId>(num_nodes());
  for (std::uint8_t g = 0; g < degree(); ++g) {
    std::string name;
    if (g < m_) {
      name = "h";
      name += std::to_string(g);
    } else {
      name = to_string(static_cast<BflyGen>(g - m_));
    }
    spec.generators.push_back(
        {std::move(name), [this, g](NodeId id) -> NodeId {
           return static_cast<NodeId>(neighbor(id, g));
         }});
  }
  return spec;
}

Graph HyperButterfly::to_graph() const { return materialize(cayley_spec()); }

const Graph& HyperButterfly::butterfly_graph() const {
  if (!bfly_graph_ready_) {
    bfly_graph_ = bfly_.to_graph();
    bfly_graph_ready_ = true;
  }
  return bfly_graph_;
}

}  // namespace hbnet

#include "topology/ccc.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "topology/butterfly.hpp"

namespace hbnet {

CubeConnectedCycles::CubeConnectedCycles(unsigned n) : n_(n) {
  if (n < 3 || n > 26) {
    throw std::invalid_argument("CubeConnectedCycles: n in [3,26], got " +
                                std::to_string(n));
  }
}

std::vector<CccNode> CubeConnectedCycles::neighbors(CccNode v) const {
  return {{v.word, (v.pos + 1) % n_},
          {v.word, (v.pos + n_ - 1) % n_},
          {v.word ^ (1u << v.pos), v.pos}};
}

unsigned CubeConnectedCycles::distance(CccNode u, CccNode v) const {
  const std::uint32_t diff = u.word ^ v.word;
  return plan_visiting_walk(n_, u.pos, v.pos, diff).length() +
         static_cast<unsigned>(std::popcount(diff));
}

std::vector<CccNode> CubeConnectedCycles::route_nodes(CccNode u,
                                                      CccNode v) const {
  std::vector<CccNode> path{u};
  CccNode cur = u;
  std::uint32_t remaining = u.word ^ v.word;
  auto flip_if_needed = [&]() {
    if ((remaining >> cur.pos) & 1u) {
      remaining ^= 1u << cur.pos;
      cur.word ^= 1u << cur.pos;
      path.push_back(cur);
    }
  };
  flip_if_needed();
  const CoveringWalkPlan plan =
      plan_visiting_walk(n_, u.pos, v.pos, u.word ^ v.word);
  for (unsigned i = 0; i < 3; ++i) {
    for (unsigned k = 0; k < plan.run(i); ++k) {
      cur.pos = plan.dir(i) > 0 ? (cur.pos + 1) % n_ : (cur.pos + n_ - 1) % n_;
      path.push_back(cur);
      flip_if_needed();
    }
  }
  return path;
}

CayleySpec CubeConnectedCycles::cayley_spec() const {
  CayleySpec spec;
  spec.num_nodes = num_nodes();
  auto lift = [this](auto&& f) {
    return [this, f](NodeId id) -> NodeId { return index_of(f(node_at(id))); };
  };
  spec.generators.push_back({"cycle+", lift([this](CccNode v) -> CccNode {
                               return {v.word, (v.pos + 1) % n_};
                             })});
  spec.generators.push_back({"cycle-", lift([this](CccNode v) -> CccNode {
                               return {v.word, (v.pos + n_ - 1) % n_};
                             })});
  spec.generators.push_back({"cube", lift([](CccNode v) -> CccNode {
                               return {v.word ^ (1u << v.pos), v.pos};
                             })});
  return spec;
}

Graph CubeConnectedCycles::to_graph() const {
  return materialize(cayley_spec());
}

}  // namespace hbnet

#include "sim/topology.hpp"

#include <bit>
#include <stdexcept>

#include "topology/ccc.hpp"

namespace hbnet {

std::vector<std::uint32_t> SimTopology::walk(
    std::uint32_t src, const std::vector<std::uint8_t>& word) const {
  std::vector<std::uint32_t> out;
  out.reserve(word.size() + 1);
  out.push_back(src);
  for (const std::uint8_t port : word) {
    out.push_back(neighbor(out.back(), port));
  }
  return out;
}

std::vector<std::uint32_t> SimTopology::route(std::uint32_t src,
                                              std::uint32_t dst) const {
  std::vector<std::uint8_t> word;
  route_word(src, dst, word);
  return walk(src, word);
}

SimFaultRoute SimTopology::route_avoiding(
    std::uint32_t src, std::uint32_t dst, const std::vector<char>& faulty,
    const std::vector<std::uint32_t>& banned_first_hops) const {
  std::vector<std::uint8_t> word;
  SimFaultRoute r;
  r.status = route_avoiding_word(src, dst, faulty, banned_first_hops, word);
  if (r.ok()) r.path = walk(src, word);
  return r;
}

std::vector<std::uint32_t> SimTopology::neighbors(std::uint32_t v) const {
  std::vector<std::uint32_t> out;
  out.reserve(degree_hint());
  for (unsigned port = 0; port < degree_hint(); ++port) {
    out.push_back(neighbor(v, port));
  }
  return out;
}

namespace {

/// Appends the ports of `path`, a walk of `net`'s nodes on `topo`, each hop
/// on the lowest port that reaches its next node. Throws std::logic_error
/// on a hop that is not an edge.
template <class Net, class Node>
void append_ports(const SimTopology& topo, const Net& net,
                  const std::vector<Node>& path,
                  std::vector<std::uint8_t>& out) {
  const unsigned degree = topo.degree_hint();
  for (std::size_t h = 1; h < path.size(); ++h) {
    const auto cur = static_cast<std::uint32_t>(net.index_of(path[h - 1]));
    const auto next = static_cast<std::uint32_t>(net.index_of(path[h]));
    unsigned port = 0;
    while (port < degree && topo.neighbor(cur, port) != next) ++port;
    if (port == degree) {
      throw std::logic_error(topo.name() + ": route hop is not an edge");
    }
    out.push_back(static_cast<std::uint8_t>(port));
  }
}

class HypercubeSim final : public SimTopology {
 public:
  explicit HypercubeSim(unsigned m) : cube_(m) {}
  [[nodiscard]] std::string name() const override {
    return "H(" + std::to_string(cube_.dimension()) + ")";
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return cube_.num_nodes();
  }
  [[nodiscard]] unsigned degree_hint() const override {
    return cube_.degree();
  }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    return v ^ (std::uint32_t{1} << port);
  }
  /// Greedy bit correction, LSB first.
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    for (std::uint32_t diff = src ^ dst; diff != 0; diff &= diff - 1) {
      out.push_back(static_cast<std::uint8_t>(std::countr_zero(diff)));
    }
  }

 private:
  Hypercube cube_;
};

class ButterflySim final : public SimTopology {
 public:
  explicit ButterflySim(unsigned n) : bfly_(n) {}
  [[nodiscard]] std::string name() const override {
    return "B(" + std::to_string(bfly_.dimension()) + ")";
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return bfly_.num_nodes();
  }
  [[nodiscard]] unsigned degree_hint() const override { return 4; }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    return bfly_.index_of(
        bfly_.apply(bfly_.node_at(v), static_cast<BflyGen>(port)));
  }
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    BflyNode cur = bfly_.node_at(src);
    BflyWalk w = bfly_.walk(cur, bfly_.node_at(dst));
    while (!w.done()) {
      out.push_back(static_cast<std::uint8_t>(bfly_.step(cur, w)));
    }
  }

 private:
  Butterfly bfly_;
};

/// Ports: 0 = cycle forward, 1 = cycle backward, 2 = cube edge.
class CccSim final : public SimTopology {
 public:
  explicit CccSim(unsigned n) : ccc_(n) {}
  [[nodiscard]] std::string name() const override {
    return "CCC(" + std::to_string(ccc_.dimension()) + ")";
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return ccc_.num_nodes();
  }
  [[nodiscard]] unsigned degree_hint() const override { return 3; }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    const CccNode x = ccc_.node_at(v);
    const unsigned n = ccc_.dimension();
    return static_cast<std::uint32_t>(ccc_.index_of(
        port == 2 ? CccNode{x.word ^ (1u << x.pos), x.pos}
                  : CccNode{x.word, (x.pos + (port == 0 ? 1 : n - 1)) % n}));
  }
  /// The exact visiting walk of CubeConnectedCycles::route_nodes.
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    append_ports(*this, ccc_,
                 ccc_.route_nodes(ccc_.node_at(src), ccc_.node_at(dst)), out);
  }

 private:
  CubeConnectedCycles ccc_;
};

/// Ports 0..m-1 flip a cube bit; m..m+3 shift the de Bruijn word: left in
/// 0, left in 1, right in 0, right in 1.
class HyperDeBruijnSim final : public SimTopology {
 public:
  HyperDeBruijnSim(unsigned m, unsigned n) : hd_(m, n) {}
  [[nodiscard]] std::string name() const override {
    return "HD(" + std::to_string(hd_.cube_dimension()) + "," +
           std::to_string(hd_.db_dimension()) + ")";
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return hd_.num_nodes();
  }
  [[nodiscard]] unsigned degree_hint() const override {
    return hd_.max_degree();
  }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    const unsigned m = hd_.cube_dimension(), n = hd_.db_dimension();
    const std::uint32_t shift = port - m, bit = shift & 1u;
    HdNode x = hd_.node_at(v);
    if (port < m) {
      x.cube ^= 1u << port;
    } else {
      x.db = shift < 2 ? ((x.db << 1) | bit) & ((1u << n) - 1)
                       : (x.db >> 1) | (bit << (n - 1));
    }
    return static_cast<std::uint32_t>(hd_.index_of(x));
  }
  /// HyperDeBruijn::route: the cube phase, then de Bruijn shifts.
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    append_ports(*this, hd_, hd_.route(hd_.node_at(src), hd_.node_at(dst)),
                 out);
  }

 private:
  HyperDeBruijn hd_;
};

class HyperButterflySim final : public SimTopology {
 public:
  HyperButterflySim(unsigned m, unsigned n) : hb_(m, n) {
    if (hb_.num_nodes() > (HbIndex{1} << 31)) {
      throw std::length_error("HyperButterflySim: instance too large");
    }
  }
  [[nodiscard]] std::string name() const override {
    return "HB(" + std::to_string(hb_.cube_dimension()) + "," +
           std::to_string(hb_.butterfly_dimension()) + ")";
  }
  [[nodiscard]] std::uint32_t num_nodes() const override {
    return static_cast<std::uint32_t>(hb_.num_nodes());
  }
  [[nodiscard]] unsigned degree_hint() const override { return hb_.degree(); }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    return static_cast<std::uint32_t>(
        hb_.neighbor(v, static_cast<std::uint8_t>(port)));
  }
  /// The Section-3 route, walked in closed form by HbImplicitRouter.
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    hb_.route_generators(hb_.node_at(src), hb_.node_at(dst), out);
  }
  /// The Theorem-5 family through the adapter's memoized planner. Left
  /// translation keeps generator labels, so the chosen member's stored
  /// bytes are the route from src; they are copied at once, because the
  /// next newly planned position may move the planner's arena.
  FaultRouteStatus route_avoiding_word(
      std::uint32_t src, std::uint32_t dst, const std::vector<char>& faulty,
      const std::vector<std::uint32_t>& banned_first_hops,
      std::vector<std::uint8_t>& out) const override {
    const HbFaultPlanner::Choice c = planner_.choose(
        hb_.node_at(src), hb_.node_at(dst), faulty, banned_first_hops);
    if (!c.found) return FaultRouteStatus::kNoPath;
    for (auto* p = c.member; p != nullptr && *p != HbFaultPlanner::kEnd; ++p) {
      out.push_back(*p);
    }
    return FaultRouteStatus::kOk;
  }

 private:
  HyperButterfly hb_;
  mutable HbFaultPlanner planner_{hb_};
};

}  // namespace

std::unique_ptr<SimTopology> make_hypercube_sim(unsigned m) {
  return std::make_unique<HypercubeSim>(m);
}
std::unique_ptr<SimTopology> make_butterfly_sim(unsigned n) {
  return std::make_unique<ButterflySim>(n);
}
std::unique_ptr<SimTopology> make_ccc_sim(unsigned n) {
  return std::make_unique<CccSim>(n);
}
std::unique_ptr<SimTopology> make_hyper_debruijn_sim(unsigned m, unsigned n) {
  return std::make_unique<HyperDeBruijnSim>(m, n);
}
std::unique_ptr<SimTopology> make_hyper_butterfly_sim(unsigned m, unsigned n) {
  return std::make_unique<HyperButterflySim>(m, n);
}

}  // namespace hbnet

#include "sim/topology.hpp"

#include <stdexcept>

#include "topology/ccc.hpp"

namespace hbnet {
namespace {

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
  [[nodiscard]] std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const override {
    return cube_.route(src, dst);
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
  [[nodiscard]] std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const override {
    std::vector<std::uint32_t> out;
    for (BflyNode v : bfly_.route_nodes(bfly_.node_at(src),
                                        bfly_.node_at(dst))) {
      out.push_back(bfly_.index_of(v));
    }
    return out;
  }

 private:
  Butterfly bfly_;
};

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
  [[nodiscard]] std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const override {
    std::vector<std::uint32_t> out;
    for (CccNode v :
         ccc_.route_nodes(ccc_.node_at(src), ccc_.node_at(dst))) {
      out.push_back(ccc_.index_of(v));
    }
    return out;
  }

 private:
  CubeConnectedCycles ccc_;
};

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
  [[nodiscard]] std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const override {
    std::vector<std::uint32_t> out;
    std::vector<HdNode> path = hd_.route(hd_.node_at(src), hd_.node_at(dst));
    for (const HdNode& v : path) out.push_back(hd_.index_of(v));
    // The de Bruijn phase may produce a walk that revisits vertices; the
    // simulator only needs consecutive adjacency, which holds.
    return out;
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
  /// The Section-3 route walked in closed form by HbImplicitRouter: the
  /// same node sequence as HyperButterfly::route on every pair (tested).
  [[nodiscard]] std::vector<std::uint32_t> route(
      std::uint32_t src, std::uint32_t dst) const override {
    const HbImplicitRouter router(hb_);
    HbNode cur = hb_.node_at(src);
    HbRouteState st = router.plan(cur, hb_.node_at(dst));
    std::vector<std::uint32_t> out;
    out.reserve(st.hops_remaining() + 1);
    out.push_back(src);
    while (!st.done()) {
      cur = router.next_hop(cur, st).next;
      out.push_back(static_cast<std::uint32_t>(hb_.index_of(cur)));
    }
    return out;
  }
  [[nodiscard]] std::vector<std::uint32_t> neighbors(
      std::uint32_t v) const override {
    std::vector<std::uint32_t> out;
    for (const HbNode& w : hb_.neighbors(hb_.node_at(v))) {
      out.push_back(static_cast<std::uint32_t>(hb_.index_of(w)));
    }
    return out;
  }
  using SimTopology::route_avoiding;
  /// The Theorem-5 family through the adapter's memoized planner.
  [[nodiscard]] SimFaultRoute route_avoiding(
      std::uint32_t src, std::uint32_t dst, const std::vector<char>& faulty,
      const std::vector<std::uint32_t>& banned_first_hops) const override {
    const FaultRouteResult r = planner_.route(
        hb_.node_at(src), hb_.node_at(dst), faulty, banned_first_hops);
    SimFaultRoute out;
    out.status = r.ok() ? FaultRouteStatus::kOk : FaultRouteStatus::kNoPath;
    out.path.reserve(r.path.size());
    for (const HbNode& v : r.path) {
      out.path.push_back(static_cast<std::uint32_t>(hb_.index_of(v)));
    }
    return out;
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

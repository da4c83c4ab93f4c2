// Simulator-facing topology adapters.
//
// The packet simulator (sim/simulator.hpp) is topology agnostic: it source-
// routes packets over any SimTopology. Adapters wrap the four networks the
// paper compares (hypercube, wrapped butterfly, hyper-deBruijn,
// hyper-butterfly) and expose each network's *own* routing algorithm -- not
// BFS -- so the simulation exercises the algorithms the paper describes.
//
// A route is a port word: one output-port byte per hop, walked from the
// source with neighbor(). Ports follow each network's generator order --
// the generator byte on HB, the dimension on H_m, the BflyGen on B_n, the
// (cycle+, cycle-, cube) links on CCC, and on HD the m cube flips then the
// four de Bruijn shifts. Each adapter implements its route algorithm once,
// as route_word; route(), route_avoiding() and neighbors() expand words.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_routing.hpp"
#include "core/hyper_butterfly.hpp"
#include "topology/butterfly.hpp"
#include "topology/debruijn.hpp"
#include "topology/hyper_debruijn.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {

/// Outcome of a SimTopology::route_avoiding request. The simulators must
/// distinguish "dropped by design: the faults really cut off this pair"
/// (kNoPath) from "misconfigured run: the adapter has no fault-tolerant
/// algorithm at all" (kUnsupported) — the two outcomes are counted under
/// distinct metrics (sim.dropped_unroutable vs sim.dropped_unsupported).
enum class FaultRouteStatus {
  kOk,           // a path on the fault-free subnetwork was found
  kNoPath,       // the adapter has fault routing, but no route survives
  kUnsupported,  // the adapter has no fault-tolerant algorithm
};

/// Result of SimTopology::route_avoiding.
struct SimFaultRoute {
  FaultRouteStatus status = FaultRouteStatus::kUnsupported;
  std::vector<std::uint32_t> path;  // non-empty iff status == kOk
  [[nodiscard]] bool ok() const { return status == FaultRouteStatus::kOk; }
};

/// Abstract network as seen by the simulator. Node ids are dense.
class SimTopology {
 public:
  virtual ~SimTopology() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::uint32_t num_nodes() const = 0;
  /// Number of output ports of every node; ports are [0, degree_hint()).
  [[nodiscard]] virtual unsigned degree_hint() const = 0;
  /// The node that output port `port` of `v` leads to. On HD a port may be
  /// a self loop or share its neighbor with a lower port; route words never
  /// use such a port.
  [[nodiscard]] virtual std::uint32_t neighbor(std::uint32_t v,
                                               unsigned port) const = 0;
  /// Appends the route src -> dst of the network's own algorithm to `out`
  /// as output ports (nothing when src == dst). Each hop uses the lowest
  /// port that reaches its next node.
  virtual void route_word(std::uint32_t src, std::uint32_t dst,
                          std::vector<std::uint8_t>& out) const = 0;
  /// Appends a route src -> dst to `out` that avoids every node marked in
  /// `faulty` (indexed by node id; may be shorter than num_nodes() --
  /// unmarked means healthy) and never leaves src through an edge src -> b
  /// for b in `banned_first_hops` (faulted outgoing *links* an online
  /// router has discovered). Appends nothing unless it returns kOk.
  /// Default: kUnsupported.
  virtual FaultRouteStatus route_avoiding_word(
      std::uint32_t /*src*/, std::uint32_t /*dst*/,
      const std::vector<char>& /*faulty*/,
      const std::vector<std::uint32_t>& /*banned_first_hops*/,
      std::vector<std::uint8_t>& /*out*/) const {
    return FaultRouteStatus::kUnsupported;
  }

  /// route_word expanded to the node sequence src, ..., dst.
  [[nodiscard]] std::vector<std::uint32_t> route(std::uint32_t src,
                                                 std::uint32_t dst) const;
  /// route_avoiding_word expanded to its node sequence.
  [[nodiscard]] SimFaultRoute route_avoiding(
      std::uint32_t src, std::uint32_t dst, const std::vector<char>& faulty,
      const std::vector<std::uint32_t>& banned_first_hops = {}) const;
  /// neighbor(v, port) for every port, in port order.
  [[nodiscard]] std::vector<std::uint32_t> neighbors(std::uint32_t v) const;

 private:
  [[nodiscard]] std::vector<std::uint32_t> walk(
      std::uint32_t src, const std::vector<std::uint8_t>& word) const;
};

/// Hypercube H_m with greedy bit-correction routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_hypercube_sim(unsigned m);

/// Wrapped butterfly B_n with exact covering-walk routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_butterfly_sim(unsigned n);

/// Cube-connected cycles CCC(n) with exact visiting-walk routing
/// (extended baseline, degree 3).
[[nodiscard]] std::unique_ptr<SimTopology> make_ccc_sim(unsigned n);

/// Hyper-deBruijn HD(m,n) with dimension-ordered cube+shift routing.
[[nodiscard]] std::unique_ptr<SimTopology> make_hyper_debruijn_sim(unsigned m,
                                                                   unsigned n);

/// Hyper-butterfly HB(m,n) with the paper's two-phase optimal routing and
/// Theorem-5-based fault-tolerant routing. route_avoiding_word plans each
/// relative position once into the adapter's HbFaultPlanner (and the first
/// call materializes the butterfly layer graph), so one adapter must not
/// serve concurrent route_avoiding_word calls; campaigns keep one adapter
/// per pool worker.
[[nodiscard]] std::unique_ptr<SimTopology> make_hyper_butterfly_sim(
    unsigned m, unsigned n);

}  // namespace hbnet

// Synchronous store-and-forward packet simulator over any SimTopology.
//
// Model (deliberately simple and deterministic -- the paper's claims are
// about path structure, not microarchitecture):
//  * packets are source routed at injection with the topology's own
//    algorithm (kNative), or through a random intermediate (kValiant), as
//    port words (SimTopology::route_word);
//  * every node forwards at most `service_rate` packets per cycle from its
//    FIFO (the router bottleneck); buffers are unbounded, so contention
//    shows up as queueing latency rather than drops;
//  * injection is Bernoulli(rate) per node per cycle, drawn from the
//    counter-based StatelessTraffic, so a run is a pure function of
//    (topology, config, faults).
//
// Fault rule, shared by both entry points below:
//  * a static mask is the fault set at cycle 0; a FaultEvent applies at the
//    top of its cycle, and the packets queued at the dying node are lost
//    and counted as drops; dead nodes neither send nor receive traffic;
//  * while the fault set is non-empty, injection plans with
//    SimTopology::route_avoiding_word (the Theorem-5 family on HB),
//    otherwise with the native or Valiant route; a packet whose next hop
//    has died re-plans from where it is the same way;
//  * a failed plan drops the packet, counted under sim.dropped_unroutable
//    (the faults cut the pair off) or sim.dropped_unsupported (the
//    topology has no fault routing).
// Both entry points run the one store-and-forward engine (sim/sharded.hpp)
// as one shard on the calling thread, and every run checks conservation:
// created = delivered + dropped + in flight.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/sink.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbnet {

namespace obs {
class ProgressBoard;
}

/// How packets are source-routed at injection.
enum class RoutingMode {
  kNative,   // the topology's own (usually minimal) algorithm
  kValiant,  // two-phase randomized: route to a random intermediate first
             // (classic load balancing for adversarial permutations)
};

/// warmup + measure + drain must stay below 2^32 cycles and service_rate
/// in [1, 255]; anything else fails an HBNET_CHECK.
struct SimConfig {
  double injection_rate = 0.05;  // packets/node/cycle
  std::uint64_t warmup_cycles = 200;
  std::uint64_t measure_cycles = 1000;
  std::uint64_t drain_cycles = 4000;  // extra cycles to flush in-flight load
  unsigned service_rate = 1;          // packets a node may forward per cycle
  std::uint64_t seed = 42;
  TrafficPattern pattern = TrafficPattern::kUniform;
  RoutingMode routing = RoutingMode::kNative;
};

/// Runs the simulation on `topo` with optional static node faults.
/// `faulty` may be empty (no faults) or sized exactly num_nodes(); any
/// other size is a caller bug and fails an HBNET_CHECK (process abort).
///
/// A non-null `sink` collects per-link traversal counts, per-node queue
/// occupancy integrals, injection/delivery time series, counters, the
/// latency histogram, and (when tracing is enabled on the sink) packet
/// lifetime spans plus node_death instants. A null sink adds no per-packet
/// work.
///
/// A non-null `progress` receives live sim.cycle / sim.in_flight_packets /
/// sim.delivered / sim.keepers slot updates each cycle, plus the packet
/// store's sim.exchange_segments / sim.exchange_peak_moves (relaxed atomic
/// stores on a dedicated channel; results are unaffected).
[[nodiscard]] SimStats run_simulation(const SimTopology& topo,
                                      const SimConfig& config,
                                      const std::vector<char>& faulty = {},
                                      obs::Sink* sink = nullptr,
                                      obs::ProgressBoard* progress = nullptr);

/// A node failure occurring *during* the run.
struct FaultEvent {
  std::uint64_t cycle;    // when the node dies
  std::uint32_t node;
};

/// Dynamic-fault run: nodes die mid-simulation under the fault rule above.
/// Measures how the Theorem-5 machinery behaves online rather than only at
/// injection time. Events past the end of the run never apply. Every
/// event's node must be < topo.num_nodes(); an out-of-range node is a
/// caller bug and fails an HBNET_CHECK (process abort).
[[nodiscard]] SimStats run_simulation_with_fault_events(
    const SimTopology& topo, const SimConfig& config,
    std::vector<FaultEvent> events, obs::Sink* sink = nullptr,
    obs::ProgressBoard* progress = nullptr);

}  // namespace hbnet

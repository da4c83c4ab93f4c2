// Flit-level wormhole simulator with virtual channels.
//
// The store-and-forward model (sim/simulator.hpp) abstracts switching; this
// module models what a VLSI router of the paper's era actually did:
// packets travel as worms of flits, a head flit allocates one virtual
// channel (VC) per hop and the body follows through bounded flit buffers,
// so a blocked head stalls a chain of channels -- the mechanism that makes
// wormhole networks deadlock-prone exactly when the channel dependency
// graph (analysis/deadlock.hpp) is cyclic.
//
// Traffic is the store-and-forward engine's counter-based StatelessTraffic,
// keyed by config.seed ^ 0x9e3779b97f4a7c15 with the same endpoint rules:
// at equal seed, rate, pattern, warm-up and measure window (and static node
// mask) run_wormhole and run_simulation count the same injected packets.
//
// Channel c is output port c % degree_hint() of node c / degree_hint(). The
// channel and VC tables are built once before cycle 0, and every cycle
// advances the non-empty channels in ascending (node, port) order. A
// packet's native route (SimTopology::route_word) is planned, and its VC
// classes computed, when its head starts to stream from its source queue.
//
// VC allocation policies (classes are computed per hop from the ring
// structure of the level/position coordinate, `ring_arity`):
//
//  * kAnyFree -- grab any free VC; no protection. The level-ring CDG cycles
//    materialize as real deadlocks under pressure (tests demonstrate it).
//  * kDateline -- the classical 2-class ring dateline (bump the class after
//    crossing the wrap edge). Sufficient for *monotone* ring routes -- but
//    the exact covering-walk routes of the butterfly/CCC/HB reverse
//    direction up to twice, and two opposite-direction packets can block
//    each other within one class: measurably INSUFFICIENT here (a finding
//    the tests pin down deliberately).
//  * kSegmentDateline -- 6 classes: class = 2 * (monotone-segment index) +
//    (crossed-wrap-within-segment). An optimal covering walk has at most 3
//    monotone segments and each spans at most n offsets, so it crosses the
//    wrap at most once per segment; within a class every packet moves in
//    one direction without wrap, making each class's dependency subgraph
//    acyclic and the whole scheme deadlock free. Needs >= 6 VCs.
//  * kFaultAdaptive -- the 6 segment-dateline classes plus one reserved
//    *escape* class (Duato-style): a packet whose next hop is blocked by a
//    static node/link fault re-plans the rest of its route online via the
//    Theorem-5 disjoint-path alternatives
//    (SimTopology::route_avoiding_word) and runs the replanned suffix
//    entirely in the escape class, which routes minimally on the
//    fault-free subnetwork. Needs >= 7 VCs. Required whenever a fault set
//    is passed to run_wormhole.
//
// The minimum VC count for any policy is vc_classes(policy);
// validate_wormhole_config derives its diagnostic from that function, so
// policy minimums cannot drift out of sync with the implementation.
//
// Deadlock is detected operationally: if flits are in flight and nothing
// moves for `deadlock_patience` cycles, the run aborts and reports it.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/stats.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbnet {

namespace obs {
class ProgressBoard;
}

enum class VcPolicy { kAnyFree, kDateline, kSegmentDateline, kFaultAdaptive };

/// Number of VC classes a policy distinguishes. This is also the minimum
/// `vcs` the policy runs with (validate_wormhole_config enforces it).
[[nodiscard]] constexpr unsigned vc_classes(VcPolicy policy) {
  switch (policy) {
    case VcPolicy::kAnyFree:
      return 1;
    case VcPolicy::kDateline:
      return 2;
    case VcPolicy::kSegmentDateline:
      return 6;
    case VcPolicy::kFaultAdaptive:
      return 7;  // 6 segment-dateline classes + 1 reserved escape class
  }
  return 1;
}

/// The CLI spelling of a policy ("any" / "dateline" / "segment" /
/// "adaptive").
[[nodiscard]] const char* vc_policy_name(VcPolicy policy);

/// Static fault set for the wormhole datapath. `nodes` is a per-node mask
/// (empty, or exactly num_nodes() entries); `links` is a list of *directed*
/// faulted channels (u, v) -- a link fault kills one direction only. Faults
/// require VcPolicy::kFaultAdaptive (the online re-planner needs the
/// reserved escape class to stay deadlock free).
struct WormholeFaults {
  std::vector<char> nodes;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  [[nodiscard]] bool any() const { return !nodes.empty() || !links.empty(); }
};

/// warmup + measure + drain must stay below 2^32 cycles (VC records stamp
/// cycles in 32 bits); validate_wormhole_config rejects anything larger,
/// including a sum that wraps 64 bits.
struct WormholeConfig {
  unsigned vcs = 2;                 // virtual channels per physical channel
                                    // (1 .. 64)
  unsigned buffer_depth = 4;        // flits per VC buffer (1 .. 65535)
  unsigned flits_per_packet = 4;    // head + body + tail
  double injection_rate = 0.02;     // packets/node/cycle
  std::uint64_t warmup_cycles = 100;
  std::uint64_t measure_cycles = 400;
  std::uint64_t drain_cycles = 20000;
  std::uint64_t deadlock_patience = 2000;  // stall cycles before declaring
  std::uint64_t seed = 42;
  TrafficPattern pattern = TrafficPattern::kUniform;
  VcPolicy policy = VcPolicy::kSegmentDateline;
  unsigned misroute_limit = 32;  // online re-plans per packet before it is
                                 // declared unroutable and killed
};

struct WormholeStats {
  SimStats packets;          // latency = head injection .. tail delivery
  bool deadlocked = false;   // aborted by the stall detector
  std::uint64_t cycles = 0;  // cycles actually simulated
  std::uint64_t misroutes = 0;    // online re-plans around discovered faults
  std::uint64_t escape_hops = 0;  // hops assigned to the escape VC class
  std::uint64_t unroutable = 0;   // worms killed: no fault-free route left
  // Packet records the run allocated: the peak of the pool of records of
  // packets queued at their sources plus the peak of the pool of slots of
  // packets in the network. The two peaks may fall in different cycles, so
  // this bounds the records held at once from above. Each record is reused
  // once its packet moves on (a slot once its packet is delivered, or
  // killed and drained), so below saturation this follows the peak load,
  // not the length of the run; past saturation the source queues, and so
  // the queued records, grow with the run.
  std::uint64_t packet_slots = 0;
  // Records still taken when the run ended: packets queued or in flight,
  // and killed worms whose buffered flits had not drained yet.
  std::uint64_t packet_slots_held = 0;
};

/// Validates a WormholeConfig: empty string when runnable, otherwise a
/// diagnostic. It checks the record widths (vcs, flits, buffer depth), the
/// 2^32-cycle horizon, and the VC count against the policy. The VC-count
/// diagnostic names the minimum for the chosen policy (derived from
/// vc_classes(policy), so the message can never disagree with the
/// enforcement). Guards the classic footgun:
/// WormholeConfig{} defaults to vcs = 2, which the default kSegmentDateline
/// policy (6 classes) rejects -- callers sweeping policies must bump vcs
/// accordingly (the campaign engine defaults its wormhole config to
/// vcs = vc_classes(kFaultAdaptive) for this reason). run_wormhole and
/// campaign::enumerate_trials both throw std::invalid_argument with this
/// message on a non-empty result.
[[nodiscard]] std::string validate_wormhole_config(
    const WormholeConfig& config);

/// Runs the wormhole simulation. `ring_arity` is the modulus of the
/// level/position coordinate in the node indexing (node id % arity), used
/// to detect ring direction and wrap hops for the dateline policies; pass
/// 0 for topologies without a ring coordinate (all hops stay class 0).
///
/// A non-null `faults` with any() == true injects static faults into the
/// datapath: faulty sources never inject, packets to faulty destinations
/// are skipped uncounted (as in the store-and-forward engine), and a
/// head flit whose next hop is faulted re-plans online through
/// topo.route_avoiding_word, escalating the replanned suffix to the escape
/// VC class. Requires config.policy == VcPolicy::kFaultAdaptive (throws
/// std::invalid_argument otherwise) and, for the node mask, exactly
/// num_nodes() entries. Worms with no surviving route (or past
/// config.misroute_limit re-plans) are killed in place and counted in
/// WormholeStats::unroutable; their buffered flits drain so the network
/// cannot false-deadlock on them.
///
/// When `sink` is non-null the run additionally reports per-link/per-VC
/// utilization (sink->links()), injection/delivery time series, counters
/// and the latency histogram (sink->metrics()), and -- if the sink has
/// tracing enabled -- Chrome-trace packet lifetime spans plus an in-flight
/// flit counter track. A null sink costs nothing on the hot path.
///
/// A non-null `progress` receives live wormhole.cycle /
/// wormhole.in_flight_flits / wormhole.delivered slot updates each cycle
/// (relaxed atomic stores on a dedicated channel; results are unaffected).
[[nodiscard]] WormholeStats run_wormhole(const SimTopology& topo,
                                         const WormholeConfig& config,
                                         unsigned ring_arity = 0,
                                         const WormholeFaults* faults = nullptr,
                                         obs::Sink* sink = nullptr,
                                         obs::ProgressBoard* progress = nullptr);

}  // namespace hbnet

#include "sim/wormhole.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <stdexcept>

#include "check/check.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

// Datapath layout (single-threaded; same seed => same WormholeStats, pinned
// in tests/test_wormhole_determinism.cpp):
//
//  * Traffic is the store-and-forward engine's: StatelessTraffic keyed by
//    seed ^ 0x9e3779b97f4a7c15, every draw a pure hash of (cycle, node), so
//    one seed offers both engines the same packets. A dead source never
//    injects; a packet to a dead destination, or to its own source (the
//    one-node network), is skipped uncounted.
//  * Channel c is port c % degree_hint() of node c / degree_hint(): the
//    table holds every (node, port) and is built once before cycle 0, with
//    each channel's far end, ring direction and wrap bit, and static fault.
//    A port >= degree_hint() is a topology bug and throws std::logic_error.
//    Words take the lowest port to each neighbor, so a link is one channel;
//    the ports a word never takes (HD's self loops and merged shifts) stay
//    empty and are not exported.
//  * Packet records are recycled through free lists, so the engine's state
//    follows the packets it holds at once, not the packets it ever
//    created. A created packet waits in its source queue as a 24-byte
//    Pending record (creation ordinal, injection cycle, destination); past
//    saturation those queues, and so the Pending pool, still grow with the
//    run. When its head starts streaming the packet moves into a slot
//    (PktState): endpoints, stream cursor, flags, the count of VCs the worm
//    holds, and its route -- per hop the channel id, the VC class, and the
//    VC the worm holds there once its head has allocated one. That is the
//    one place a native route is planned (SimTopology::route_word) and its
//    VC classes computed. A slot returns to the free list once its packet
//    is delivered or killed and holds no VC; its route vector keeps its
//    capacity, so a steady-state run allocates nothing. The trace's "pkt"
//    argument is the stored creation ordinal.
//  * The online fault re-planner rewrites a route in place from hop `keep`
//    on: the head flit sits at hop keep - 1, so no flit of the worm holds a
//    VC at or beyond `keep`, and the kept hops (with their held VCs) and
//    every buffered flit's (packet, hop) name stay valid.
//  * No flit is stored. A VC is held by one hop of one worm from head
//    allocation to tail release, and that hop's flits enter it in index
//    order, at most one per cycle; so a VC is a 16-byte record (VcState) of
//    owner slot, hop, front flit index, count and the 32-bit cycle of its
//    last push (the horizon is validated below 2^32). A head that arrived
//    this very cycle is exactly count == 1 && stamp == cycle. Always-on
//    checks hold every push and release to that contract.
//  * Each channel keeps a 64-bit mask of its non-empty VCs; arbitration
//    walks its set bits round-robin from rr, and each VC class owns a
//    precomputed mask of its VCs, so no empty or foreign VC is probed.
//  * The advance loop walks a bitmap of non-empty channels in ascending
//    (node, port) order. A channel that gains its first flit mid-cycle
//    holds only flits that arrived this cycle, so visiting it (or not) that
//    cycle is a no-op. Source streaming walks a bitmap of sources with
//    queued packets the same way.
//  * Per-link/per-VC occupancy telemetry integrates push/pop deltas
//    (occupancy * cycles-held) instead of an O(channels * vcs) sweep per
//    cycle, so a Sink-enabled run costs O(1) extra per flit movement plus
//    O(1) per cycle -- the end-of-cycle sampling semantics of a full sweep
//    are reproduced exactly (tested via the occupancy-sum invariant).
//  * Conservation is checked at the end of every run, Release included:
//    packets created = delivered + killed + still in flight.

namespace hbnet {
namespace {

constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();

/// One virtual channel: the (worm, hop) holding it and the flits
/// [first, first + count) of that hop it buffers.
struct VcState {
  std::uint32_t owner = kFree;  // packet slot, kFree = unallocated
  std::uint32_t stamp = 0;      // cycle of the last push
  std::uint16_t hop = 0;        // route position of the buffered flits
  std::uint16_t first = 0;      // index of the front flit, 0 = head
  std::uint16_t count = 0;      // buffered flits
};
static_assert(sizeof(VcState) == 16);

// A channel's movement on the ring coordinate (node id % arity).
constexpr std::uint8_t kRingUp = 1;    // +1 step
constexpr std::uint8_t kRingDown = 2;  // -1 step
constexpr std::uint8_t kRingWrap = 4;  // the step crosses the wrap edge

/// The kRing* bits of the channel u -> v: direction of the +-1 movement of
/// (id % arity), and whether it crosses the wrap edge. Non-ring hops (cube
/// edges: level unchanged) and arity 0 give 0.
std::uint8_t ring_bits(std::uint32_t u, std::uint32_t v, unsigned arity) {
  if (arity == 0) return 0;
  const std::uint32_t lu = u % arity, lv = v % arity;
  if (lu == lv) return 0;
  if (lv == (lu + 1) % arity) {
    return kRingUp | (lu == arity - 1 ? kRingWrap : 0);
  }
  if (lu == (lv + 1) % arity) return kRingDown | (lu == 0 ? kRingWrap : 0);
  return 0;
}

/// One physical channel: its far end, static fault and ring bits, and its
/// arbitration state.
struct ChanState {
  std::uint64_t busy = 0;  // bit q set iff VC q buffers a flit
  std::uint32_t to = 0;    // the node the channel enters
  std::uint8_t rr = 0;     // round-robin arbiter position
  bool blocked = false;    // static fault on the link or its far node
  std::uint8_t ring = 0;   // kRing* bits
};
static_assert(sizeof(ChanState) == 16);

/// One hop of a route.
struct Hop {
  std::uint32_t chan = 0;  // channel id
  std::uint8_t cls = 0;    // VC class
  std::uint8_t vc = 0;     // VC held there, from head allocation to tail
                           // release
};

/// One packet in the network (its head has started streaming); hop h of
/// its route is route[h].
struct PktState {
  std::vector<Hop> route;      // >= 1 hop; capacity kept across reuse
  std::uint64_t ordinal = 0;   // creation index (the trace's "pkt")
  std::uint32_t injected_at = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  unsigned replans = 0;         // online fault re-plans consumed
  std::uint16_t next_flit = 0;  // flits not yet streamed into hop 0
  std::uint16_t held = 0;       // VCs the worm holds
  bool measured = false;
  bool dead = false;  // killed as unroutable; buffered flits drain in place
};

/// A created packet waiting in its source queue behind the one streaming
/// there. It gets a PktState slot, and its route, only when its head starts
/// to stream.
struct Pending {
  std::uint64_t ordinal = 0;      // creation index
  std::uint32_t next = kFree;     // next record in the source queue
  std::uint32_t injected_at = 0;
  std::uint32_t dst = 0;
  bool measured = false;
};
static_assert(sizeof(Pending) == 24);

/// Records recycled through a free list. size() grows only when every
/// record is taken, so it is the peak number held at once.
template <class T>
class Pool {
 public:
  [[nodiscard]] std::uint32_t take() {
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    HBNET_CHECK(items_.size() < kFree);
    items_.emplace_back();
    return static_cast<std::uint32_t>(items_.size() - 1);
  }
  void give(std::uint32_t id) { free_.push_back(id); }
  T& operator[](std::uint32_t id) { return items_[id]; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t held() const {
    return items_.size() - free_.size();
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

/// A source's queue: the packet streaming from it, then a list of Pending
/// records in creation order.
struct SourceQueue {
  std::uint32_t front = kFree;  // PktState slot, kFree = none streaming
  std::uint32_t head = kFree;   // first Pending, kFree = none
  std::uint32_t tail = kFree;   // last Pending
};

/// Sets the VC classes of `hops` from the ring bits of their channels:
/// a direction reversal starts a new monotone segment; crossing the wrap
/// edge bumps the within-segment dateline bit. Non-ring hops keep the
/// current class and do not end a segment.
/// kFaultAdaptive uses the same six segment-dateline base classes; its
/// seventh (escape) class is never assigned here -- only the online
/// re-planner places hops there.
void assign_hop_classes(std::span<Hop> hops,
                        const std::vector<ChanState>& chans,
                        VcPolicy policy) {
  if (policy == VcPolicy::kAnyFree) {
    for (Hop& h : hops) h.cls = 0;
    return;
  }
  int last_dir = 0;       // 0 = none yet
  unsigned segment = 0;   // monotone segment index (0..2 for our routers)
  unsigned wrapped = 0;   // crossed wrap within this segment
  for (Hop& h : hops) {
    const std::uint8_t ring = chans[h.chan].ring;
    const int dir = (ring & kRingUp) != 0     ? 1
                    : (ring & kRingDown) != 0 ? -1
                                              : 0;
    if (dir != 0) {
      if (last_dir != 0 && dir != last_dir) {
        ++segment;
        wrapped = 0;
      }
      last_dir = dir;
    }
    if (policy == VcPolicy::kDateline) {
      h.cls = static_cast<std::uint8_t>(wrapped);
    } else {  // kSegmentDateline / kFaultAdaptive base classes
      const unsigned seg_capped = segment > 2 ? 2 : segment;
      h.cls = static_cast<std::uint8_t>(2 * seg_capped + wrapped);
    }
    if ((ring & kRingWrap) != 0) wrapped = 1;
  }
}

}  // namespace

const char* vc_policy_name(VcPolicy policy) {
  switch (policy) {
    case VcPolicy::kAnyFree:
      return "any";
    case VcPolicy::kDateline:
      return "dateline";
    case VcPolicy::kSegmentDateline:
      return "segment";
    case VcPolicy::kFaultAdaptive:
      return "adaptive";
  }
  return "?";
}

std::string validate_wormhole_config(const WormholeConfig& config) {
  if (config.vcs < 1 || config.flits_per_packet < 1 ||
      config.buffer_depth < 1) {
    return "wormhole config: vcs, flits_per_packet, and buffer_depth must "
           "all be at least 1";
  }
  constexpr unsigned kMaxFlits = std::numeric_limits<std::uint16_t>::max();
  if (config.flits_per_packet > kMaxFlits) {
    return "wormhole config: flits_per_packet must be at most " +
           std::to_string(kMaxFlits) + " (flit indices are 16-bit), got " +
           std::to_string(config.flits_per_packet);
  }
  constexpr unsigned kMaxVcs = 64;
  if (config.vcs > kMaxVcs) {
    return "wormhole config: vcs must be at most " + std::to_string(kMaxVcs) +
           " (per-channel VC masks are 64-bit), got " +
           std::to_string(config.vcs);
  }
  if (config.buffer_depth > kMaxFlits) {
    return "wormhole config: buffer_depth must be at most " +
           std::to_string(kMaxFlits) + " (VC flit counts are 16-bit), got " +
           std::to_string(config.buffer_depth);
  }
  // Cycle stamps are 32-bit. Each partial sum is checked, so a horizon
  // that wraps 64 bits is rejected too, not run short.
  constexpr std::uint64_t kMaxHorizon =
      std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t warmup = config.warmup_cycles;
  const std::uint64_t measure = config.measure_cycles;
  const std::uint64_t drain = config.drain_cycles;
  if (warmup > kMaxHorizon || measure > kMaxHorizon - warmup ||
      drain > kMaxHorizon - warmup - measure) {
    return "wormhole config: warmup + measure + drain cycles must be < 2^32 "
           "(cycle stamps are 32-bit), got " +
           std::to_string(warmup) + " + " + std::to_string(measure) + " + " +
           std::to_string(drain);
  }
  const unsigned need = vc_classes(config.policy);
  if (config.vcs < need) {
    // The footnote is derived from vc_classes() over every policy, split by
    // whether the default-constructed config's vcs covers it -- so adding a
    // policy (or changing a minimum) can never leave this message stale.
    const unsigned default_vcs = WormholeConfig{}.vcs;
    std::string fits, needs_more;
    for (VcPolicy p :
         {VcPolicy::kAnyFree, VcPolicy::kDateline, VcPolicy::kSegmentDateline,
          VcPolicy::kFaultAdaptive}) {
      std::string& bucket = vc_classes(p) <= default_vcs ? fits : needs_more;
      if (!bucket.empty()) bucket += "/";
      bucket += std::string("'") + vc_policy_name(p) + "'";
    }
    return std::string("wormhole config: policy '") +
           vc_policy_name(config.policy) + "' needs at least " +
           std::to_string(need) + " virtual channels, got " +
           std::to_string(config.vcs) +
           " (note the WormholeConfig{} default vcs = " +
           std::to_string(default_vcs) + " only suits " + fits +
           "; pass vcs explicitly for " + needs_more + ")";
  }
  return {};
}

WormholeStats run_wormhole(const SimTopology& topo,
                           const WormholeConfig& config, unsigned ring_arity,
                           const WormholeFaults* faults, obs::Sink* sink,
                           obs::ProgressBoard* progress) {
  if (const std::string err = validate_wormhole_config(config);
      !err.empty()) {
    throw std::invalid_argument("run_wormhole: " + err);
  }
  const std::uint32_t n = topo.num_nodes();
  const bool have_faults = faults != nullptr && faults->any();
  if (have_faults) {
    if (config.policy != VcPolicy::kFaultAdaptive) {
      throw std::invalid_argument(
          "run_wormhole: a fault set requires the 'adaptive' policy (the "
          "online re-planner needs the reserved escape VC class)");
    }
    if (!faults->nodes.empty() && faults->nodes.size() != n) {
      throw std::invalid_argument(
          "run_wormhole: node fault mask must be empty or num_nodes()");
    }
    for (const auto& [lu, lv] : faults->links) {
      if (lu >= n || lv >= n) {
        throw std::invalid_argument(
            "run_wormhole: link fault endpoint out of range");
      }
    }
  }
  const std::uint16_t flits =
      static_cast<std::uint16_t>(config.flits_per_packet);
  const unsigned classes = vc_classes(config.policy);
  const std::uint32_t vcs = config.vcs;
  const std::uint32_t depth = config.buffer_depth;
  const std::vector<char> no_node_faults;
  const std::vector<char>& node_fault =
      have_faults ? faults->nodes : no_node_faults;
  // The reserved escape class is always the highest one (only meaningful
  // for kFaultAdaptive; unused otherwise).
  const std::uint8_t escape_cls = static_cast<std::uint8_t>(classes - 1);

  WormholeStats stats;
  // The store-and-forward engine's traffic at the same seed.
  const StatelessTraffic traffic(config.pattern, n,
                                 config.seed ^ 0x9e3779b97f4a7c15ull,
                                 config.injection_rate);

  // validate_wormhole_config holds the horizon below 2^32, so cycles fit
  // the 32-bit VC stamps.
  const auto horizon = static_cast<std::uint32_t>(
      config.warmup_cycles + config.measure_cycles + config.drain_cycles);
  std::uint32_t cycle = 0;

  // VC q belongs to class q * classes / vcs (classes partition the range).
  std::vector<std::uint64_t> cls_mask(classes, 0);
  for (unsigned q = 0; q < vcs; ++q) {
    cls_mask[q * classes / vcs] |= std::uint64_t{1} << q;
  }

  // -- channel storage -----------------------------------------------------
  // Channel c = node * ports + port. All per-channel state is in flat
  // arrays indexed by channel id (and vi = c*vcs + q per VC), built here
  // once; the advance loop works off the routes' channel ids.
  const unsigned ports = topo.degree_hint();
  const std::size_t num_chans = std::size_t{n} * ports;
  HBNET_CHECK_MSG(num_chans < kFree,
                  "run_wormhole: channel ids exceed 32 bits");
  std::vector<ChanState> chans(num_chans);
  for (std::size_t c = 0; c < num_chans; ++c) {
    const auto u = static_cast<std::uint32_t>(c / ports);
    const std::uint32_t v = topo.neighbor(u, static_cast<unsigned>(c % ports));
    chans[c].to = v;
    chans[c].ring = ring_bits(u, v, ring_arity);
    chans[c].blocked = !node_fault.empty() && node_fault[v] != 0;
  }
  if (have_faults) {
    for (const auto& [lu, lv] : faults->links) {
      for (unsigned port = 0; port < ports; ++port) {
        ChanState& ch = chans[std::size_t{lu} * ports + port];
        if (ch.to == lv) ch.blocked = true;
      }
    }
  }
  std::vector<VcState> vc(num_chans * vcs);
  // Bit c set iff channel c buffers a flit: the advance loop's worklist.
  std::vector<std::uint64_t> active((num_chans + 63) / 64, 0);
  // Telemetry state, sized only under a sink: flits forwarded per channel,
  // and per VC the occupancy integral (flit-cycles) and the first cycle not
  // yet integrated.
  const std::size_t tallied = sink != nullptr ? num_chans : 0;
  std::vector<std::uint64_t> link_forwarded(tallied, 0);
  std::vector<std::uint64_t> occ_integral(tallied * vcs, 0);
  std::vector<std::uint64_t> occ_since(tallied * vcs, 0);

  auto channel = [&](std::uint32_t u, unsigned port) -> std::uint32_t {
    if (port >= ports) {
      throw std::logic_error("run_wormhole: a route leaves node " +
                             std::to_string(u) + " on port " +
                             std::to_string(port) + " >= degree_hint() = " +
                             std::to_string(ports));
    }
    return u * ports + port;
  };

  // -- packet records --------------------------------------------------------
  Pool<PktState> pkts;  // packets in the network
  Pool<Pending> pend;   // packets queued behind them
  std::uint64_t created = 0;
  // Returns the slot of a delivered or killed packet to the free list once
  // it holds no VC; a killed worm still draining keeps it until then.
  auto retire = [&](std::uint32_t pid) {
    if (pkts[pid].held == 0) pkts.give(pid);
  };
  // Appends the channels of `word`, walked from `u`, to p's route in VC
  // class `cls`.
  auto append_channels = [&](PktState& p, std::uint32_t u,
                             std::span<const std::uint8_t> word,
                             std::uint8_t cls) {
    // Hop indices are 16-bit in every VC record.
    const std::size_t hops = p.route.size() + word.size();
    if (hops > std::numeric_limits<std::uint16_t>::max()) {
      throw std::logic_error("run_wormhole: a route of " +
                             std::to_string(hops) + " hops exceeds 65535");
    }
    p.route.reserve(hops);
    for (const std::uint8_t port : word) {
      const std::uint32_t c = channel(u, port);
      p.route.push_back({c, cls, 0});
      u = chans[c].to;
    }
  };
  std::vector<std::uint8_t> word;  // scratch: the route being resolved

  // Integrates a VC's occupancy up to (but not including) the current
  // cycle's end-of-cycle sample; call BEFORE changing the flit count.
  auto occ_touch = [&](std::size_t vi) {
    occ_integral[vi] += std::uint64_t{vc[vi].count} * (cycle - occ_since[vi]);
    occ_since[vi] = cycle;
  };
  // Buffers flit `index` of hop `hop` of packet `pid` in VC q of channel c,
  // which that hop must hold.
  auto push_flit = [&](std::uint32_t c, unsigned q, std::uint32_t pid,
                       std::size_t hop, unsigned index) {
    const std::size_t vi = std::size_t{c} * vcs + q;
    VcState& s = vc[vi];
    HBNET_CHECK(s.owner == pid && s.hop == hop &&
                s.first + s.count == index);
    HBNET_DCHECK(s.count < depth);  // caller checked capacity
    if (sink != nullptr) occ_touch(vi);
    ++s.count;
    s.stamp = cycle;
    chans[c].busy |= std::uint64_t{1} << q;
    active[c >> 6] |= std::uint64_t{1} << (c & 63);
  };
  auto pop_flit = [&](std::uint32_t c, unsigned q) {
    const std::size_t vi = std::size_t{c} * vcs + q;
    VcState& s = vc[vi];
    HBNET_DCHECK(s.count > 0);
    if (sink != nullptr) occ_touch(vi);
    ++s.first;
    if (--s.count == 0) {
      chans[c].busy &= ~(std::uint64_t{1} << q);
      if (chans[c].busy == 0) active[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
    }
  };
  auto release = [&](std::size_t vi) {
    VcState& s = vc[vi];
    HBNET_CHECK(s.count == 0);
    PktState& p = pkts[s.owner];
    HBNET_DCHECK(p.held > 0);
    --p.held;
    s.owner = kFree;
  };
  // Hands hop h of packet pid the first free VC of the hop's class on its
  // channel (recorded in the hop); false when every one is held.
  auto allocate = [&](std::uint32_t pid, PktState& p, std::size_t h) {
    Hop& hop = p.route[h];
    for (std::uint64_t m = cls_mask[hop.cls]; m != 0; m &= m - 1) {
      const auto q = static_cast<unsigned>(std::countr_zero(m));
      VcState& s = vc[std::size_t{hop.chan} * vcs + q];
      if (s.owner != kFree) continue;
      s.owner = pid;
      s.hop = static_cast<std::uint16_t>(h);
      s.first = 0;
      hop.vc = static_cast<std::uint8_t>(q);
      ++p.held;
      return true;
    }
    return false;
  };

  std::vector<SourceQueue> sources(n);
  // Bit src set iff sources[src] holds a packet: the streaming worklist.
  std::vector<std::uint64_t> queued((n + 63) / 64, 0);
  std::uint64_t in_flight = 0;
  std::uint64_t stall = 0;
  // Drops the front packet of src's queue (fully streamed or killed).
  auto advance_queue = [&](std::uint32_t src) {
    sources[src].front = kFree;
    if (sources[src].head == kFree) {
      queued[src >> 6] &= ~(std::uint64_t{1} << (src & 63));
    }
  };
  // Moves the first Pending record of src's queue into a packet slot with
  // its native route planned and its VC classes computed, and makes it the
  // streaming front.
  auto start_front = [&](std::uint32_t src) -> std::uint32_t {
    SourceQueue& sq = sources[src];
    const std::uint32_t qid = sq.head;
    const Pending& q = pend[qid];
    sq.head = q.next;
    if (sq.head == kFree) sq.tail = kFree;
    const std::uint32_t pid = pkts.take();
    PktState& p = pkts[pid];
    p.route.clear();
    word.clear();
    topo.route_word(src, q.dst, word);
    HBNET_CHECK_MSG(!word.empty(), "run_wormhole: an empty route between "
                                   "distinct nodes");
    append_channels(p, src, word, 0);
    assign_hop_classes(p.route, chans, config.policy);
    // Field by field, not a fresh PktState: the route keeps its capacity.
    p.ordinal = q.ordinal;
    p.injected_at = q.injected_at;
    p.src = src;
    p.dst = q.dst;
    p.replans = 0;
    p.next_flit = 0;
    p.held = 0;
    p.measured = q.measured;
    p.dead = false;
    pend.give(qid);
    sq.front = pid;
    return pid;
  };

  // Observability accumulators. `buffered` counts flits currently sitting
  // in VC buffers (incremented on buffer entry, decremented on final-hop
  // exit); integrating it per cycle gives total buffered flit-cycles, which
  // the per-link occupancy integrals must sum to exactly (tested).
  std::uint64_t buffered = 0;
  std::uint64_t flit_cycles_buffered = 0;
  obs::TimeSeries* inject_ts = nullptr;
  obs::TimeSeries* deliver_ts = nullptr;
  if (sink != nullptr) {
    const std::uint64_t bucket =
        std::max<std::uint64_t>(1, (config.warmup_cycles +
                                    config.measure_cycles) / 64);
    inject_ts = &sink->time_series("wormhole.injected", bucket);
    deliver_ts = &sink->time_series("wormhole.delivered", bucket);
  }
  // Live progress slots, resolved once; per-cycle updates are relaxed
  // atomic stores into the board and never feed back into the run.
  obs::ProgressBoard::Slot* prog_cycle = nullptr;
  obs::ProgressBoard::Slot* prog_in_flight = nullptr;
  obs::ProgressBoard::Slot* prog_delivered = nullptr;
  if (progress != nullptr) {
    prog_cycle = &progress->slot("wormhole.cycle");
    prog_in_flight = &progress->slot("wormhole.in_flight_flits");
    prog_delivered = &progress->slot("wormhole.delivered");
  }

  // Per-cycle move counter, hoisted so the fault helpers below can count
  // kills as progress; reset at the top of every cycle.
  std::uint64_t moves = 0;
  // Packets delivered tail-complete, measured or not (for conservation).
  std::uint64_t delivered_all = 0;

  // Declares a worm unroutable: drop it from the stats, unblock its source
  // queue if it was still streaming, and mark it dead so any buffered flits
  // drain in place (the advance loop pops dead flits one per channel per
  // cycle without forwarding them). The caller frees the worm's empty VCs
  // and then retires its slot.
  auto kill_worm = [&](PktState& p) {
    p.dead = true;
    ++stats.unroutable;
    if (p.measured) stats.packets.record_drop();
    HBNET_DCHECK(in_flight > 0);
    --in_flight;
    if (p.next_flit < flits) {
      // Still streaming: the packet is by construction the front of its
      // source queue; advance past it so later packets are not wedged.
      p.next_flit = flits;
      advance_queue(p.src);
    }
    // Killing is progress: a cycle that only killed worms must not trip
    // the stall detector.
    ++moves;
  };

  // Scratch for replan: the faulted outgoing links of the current node,
  // passed as banned first hops so one re-plan clears them all at once
  // (re-banning one link at a time could ping-pong).
  std::vector<std::uint32_t> banned_scratch;
  // Re-plans packet p from the node its hop `keep` leaves to its
  // destination around the static faults via the Theorem-5 alternatives;
  // the replanned suffix runs entirely in the reserved escape class. The
  // suffix overwrites hops keep.. in place: the head is at hop keep - 1 (or
  // not yet streamed when keep == 0), so none of them holds a VC or a flit,
  // while the kept hops and every buffered flit's hop index stay valid.
  // Returns false when the packet exhausted its misroute budget or no
  // fault-free alternative exists; the caller then kills the worm.
  auto replan = [&](PktState& p, std::size_t keep) -> bool {
    if (p.replans >= config.misroute_limit) return false;
    const std::uint32_t cur =
        keep == 0 ? p.src : chans[p.route[keep - 1].chan].to;
    banned_scratch.clear();
    for (const auto& [lu, lv] : faults->links) {
      if (lu == cur) banned_scratch.push_back(lv);
    }
    word.clear();
    if (topo.route_avoiding_word(cur, p.dst, node_fault, banned_scratch,
                                 word) != FaultRouteStatus::kOk ||
        word.empty()) {
      return false;
    }
    ++p.replans;
    ++stats.misroutes;
    stats.escape_hops += word.size();
    p.route.resize(keep);
    append_channels(p, cur, word, escape_cls);
    return true;
  };

  // Channel advance for VC q of channel c: moves (or drains) its front
  // flit if it can. True when the channel used its one move this cycle.
  auto advance_vc = [&](std::uint32_t c, unsigned q) {
    const std::size_t vi = std::size_t{c} * vcs + q;
    // A copy: the pops and pushes below edit vc[vi], and the flit they
    // move is the one this snapshot names.
    const VcState s = vc[vi];
    if (s.count == 1 && s.stamp == cycle) return false;  // arrived now
    PktState& p = pkts[s.owner];
    if (p.dead) {
      // Drain one flit of a killed worm in place: not a forward (the
      // packet was dropped), but progress for the stall detector.
      pop_flit(c, q);
      --buffered;
      if (vc[vi].count == 0) {
        release(vi);
        retire(s.owner);
      }
      ++moves;
      return true;
    }
    if (s.hop + 1u == p.route.size()) {
      pop_flit(c, q);
      --buffered;
      if (sink != nullptr) ++link_forwarded[c];
      if (s.first + 1u == flits) {
        release(vi);
        HBNET_DCHECK(p.held == 0);
        HBNET_DCHECK(in_flight > 0);
        --in_flight;
        ++delivered_all;
        if (p.measured) {
          stats.packets.record_delivery(cycle + 1 - p.injected_at,
                                        p.route.size());
        }
        if (deliver_ts != nullptr) deliver_ts->bump(cycle);
        HBNET_TRACE_COMPLETE(sink, "packet", "pkt", 0, p.src, p.injected_at,
                             cycle + 1 - p.injected_at,
                             {{"pkt", p.ordinal},
                              {"src", p.src},
                              {"dst", p.dst},
                              {"hops", p.route.size()}});
        retire(s.owner);
      }
      ++moves;
      return true;
    }
    const std::size_t next = s.hop + 1u;
    if (s.first == 0) {
      // The head allocates the next hop's VC; body flits follow into it.
      if (have_faults && chans[p.route[next].chan].blocked &&
          !replan(p, next)) {
        // Online fault discovery at VC allocation: the head sits at the
        // end of channel c, its planned next hop is faulted, and no
        // re-plan is left.
        kill_worm(p);
        pop_flit(c, q);
        --buffered;
        // Free every VC the worm holds that is already empty: no flit
        // of it will ever arrive there to drain and free it.
        for (std::size_t h = 0; h < next; ++h) {
          const Hop& hop = p.route[h];
          const std::size_t hv = std::size_t{hop.chan} * vcs + hop.vc;
          const VcState& held = vc[hv];
          if (held.owner == s.owner && held.hop == h && held.count == 0) {
            release(hv);
          }
        }
        retire(s.owner);
        return true;
      }
      if (!allocate(s.owner, p, next)) return false;
    }
    const Hop& to = p.route[next];
    const std::uint32_t c2 = to.chan;
    const unsigned q2 = to.vc;
    if (vc[std::size_t{c2} * vcs + q2].count >= depth) return false;
    pop_flit(c, q);
    if (sink != nullptr) ++link_forwarded[c];
    if (s.first + 1u == flits) release(vi);  // tail frees upstream
    push_flit(c2, q2, s.owner, next, s.first);
    ++moves;
    return true;
  };

  // Channel c's arbiter: tries its non-empty VCs round-robin from rr (the
  // probe order rr, rr+1, ... mod vcs) until one moves a flit.
  auto arbitrate = [&](std::uint32_t c) {
    const std::uint64_t busy = chans[c].busy;
    const std::uint64_t from_rr = ~std::uint64_t{0} << chans[c].rr;
    for (std::uint64_t m : {busy & from_rr, busy & ~from_rr}) {
      for (; m != 0; m &= m - 1) {
        const auto q = static_cast<unsigned>(std::countr_zero(m));
        if (advance_vc(c, q)) {
          chans[c].rr = static_cast<std::uint8_t>(q + 1 == vcs ? 0 : q + 1);
          return;
        }
      }
    }
  };

  for (; cycle < horizon; ++cycle) {
    bool injecting = cycle < config.warmup_cycles + config.measure_cycles;
    bool measuring = cycle >= config.warmup_cycles && injecting;
    moves = 0;

    // 1. Packet creation, into a Pending record at the tail of the source's
    // queue; its route is planned when its head starts (phase 2). Faulty
    // endpoints mirror the store-and-forward engine: a dead source never
    // injects, a packet to a dead destination is skipped, both uncounted.
    if (injecting) {
      const StatelessTraffic::CycleView tv = traffic.at(cycle);
      for (std::uint32_t src = 0; src < n; ++src) {
        if (!tv.injects(src)) continue;
        const std::uint32_t dst = tv.destination(src);
        if (dst == src) continue;  // a one-node network has no traffic
        if (!node_fault.empty() &&
            (node_fault[src] != 0 || node_fault[dst] != 0)) {
          continue;
        }
        const std::uint32_t qid = pend.take();
        Pending& q = pend[qid];
        q.ordinal = created++;
        q.next = kFree;
        q.injected_at = cycle;
        q.dst = dst;
        q.measured = measuring;
        SourceQueue& sq = sources[src];
        (sq.tail == kFree ? sq.head : pend[sq.tail].next) = qid;
        sq.tail = qid;
        if (measuring) stats.packets.record_injection();
        if (inject_ts != nullptr) inject_ts->bump(cycle);
        queued[src >> 6] |= std::uint64_t{1} << (src & 63);
        ++in_flight;
      }
    }

    // 2. Source streaming: the front packet of every non-empty source
    // queue, in ascending source order, feeds its hop-0 channel.
    for (std::size_t w = 0; w < queued.size(); ++w) {
      for (std::uint64_t bits = queued[w]; bits != 0; bits &= bits - 1) {
        const auto src =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
        const std::uint32_t pid = sources[src].front != kFree
                                      ? sources[src].front
                                      : start_front(src);
        PktState& p = pkts[pid];
        if (p.next_flit == 0) {
          // Online discovery at hop-0 VC allocation: re-plan before the
          // head flit ever enters the network, or kill the packet unrouted
          // (no flits exist yet, so the kill only advances the queue).
          if (have_faults && chans[p.route[0].chan].blocked &&
              !replan(p, 0)) {
            kill_worm(p);
            retire(pid);
            continue;
          }
          if (!allocate(pid, p, 0)) continue;
        }
        const std::uint32_t c0 = p.route[0].chan;
        const unsigned q0 = p.route[0].vc;
        if (vc[std::size_t{c0} * vcs + q0].count >= depth) continue;
        push_flit(c0, q0, pid, 0, p.next_flit);
        ++p.next_flit;
        ++moves;
        ++buffered;
        if (p.next_flit == flits) advance_queue(src);
      }
    }

    // 3. Channel advance: one flit per physical channel per cycle.
    for (std::size_t w = 0; w < active.size(); ++w) {
      for (std::uint64_t bits = active[w]; bits != 0; bits &= bits - 1) {
        arbitrate(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
      }
    }

    // 4. Cycle telemetry (only under a sink): the per-VC occupancy is
    // integrated incrementally by push/pop above; here only the O(1)
    // global counter and trace sample remain.
    if (sink != nullptr) {
      flit_cycles_buffered += buffered;
      HBNET_TRACE_COUNTER(sink, "in_flight_flits", 0, cycle, buffered);
    }
    if (prog_cycle != nullptr) {
      prog_cycle->set(cycle);
      prog_in_flight->set(buffered);
      prog_delivered->set(stats.packets.delivered());
    }

    // 5. Termination and deadlock detection.
    if (!injecting && in_flight == 0) break;
    if (moves == 0 && in_flight > 0) {
      if (++stall > config.deadlock_patience) {
        stats.deadlocked = true;
        HBNET_TRACE_INSTANT(sink, "wormhole", "deadlock", 0, 0, cycle,
                            {{"in_flight", in_flight}});
        break;
      }
    } else {
      stall = 0;
    }
  }
  stats.cycles = cycle;
  stats.packet_slots = pkts.size() + pend.size();
  stats.packet_slots_held = pkts.held() + pend.held();
  HBNET_CHECK_MSG(
      created == delivered_all + stats.unroutable + in_flight,
      "run_wormhole: created " + std::to_string(created) +
          " != delivered " + std::to_string(delivered_all) + " + killed " +
          std::to_string(stats.unroutable) + " + in flight " +
          std::to_string(in_flight));

  // End-of-run export: link table, registry counters, latency histogram.
  if (sink != nullptr) {
    // Close the occupancy integrals: every cycle in [0, sampled_end) took
    // an end-of-cycle sample (the loop samples before it breaks, so a break
    // at cycle k includes k).
    const std::uint64_t sampled_end =
        cycle < horizon ? std::uint64_t{cycle} + 1 : horizon;
    for (std::size_t vi = 0; vi < vc.size(); ++vi) {
      occ_integral[vi] += std::uint64_t{vc[vi].count} *
                          (sampled_end - occ_since[vi]);
    }
    sink->set_run_cycles(stats.cycles);
    // A channel is exported iff a flit crossed or waited in it, as the
    // store-and-forward engine drops zero-count links, in (src, dst) order:
    // the same table whatever the port numbering.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_ends;
    for (std::uint32_t c = 0; c < num_chans; ++c) {
      const auto occ = occ_integral.begin() + std::size_t{c} * vcs;
      const bool idle = link_forwarded[c] == 0 &&
                        std::all_of(occ, occ + vcs,
                                    [](std::uint64_t x) { return x == 0; });
      if (idle) continue;
      by_ends.emplace_back((std::uint64_t{c / ports} << 32) | chans[c].to, c);
    }
    std::sort(by_ends.begin(), by_ends.end());
    std::uint64_t forwarded_total = 0;
    sink->links().reserve(sink->links().size() + by_ends.size());
    for (const auto& [ends, c] : by_ends) {
      obs::LinkStats link;
      link.src = static_cast<std::uint32_t>(ends >> 32);
      link.dst = static_cast<std::uint32_t>(ends);
      link.forwarded = link_forwarded[c];
      link.vc_occupancy.assign(occ_integral.begin() + std::size_t{c} * vcs,
                               occ_integral.begin() + std::size_t{c + 1} * vcs);
      forwarded_total += link.forwarded;
      sink->links().push_back(std::move(link));
    }
    obs::MetricsRegistry& reg = sink->metrics();
    reg.counter("wormhole.injected").inc(stats.packets.injected());
    reg.counter("wormhole.delivered").inc(stats.packets.delivered());
    reg.counter("wormhole.dropped").inc(stats.packets.dropped());
    reg.counter("wormhole.flits_forwarded").inc(forwarded_total);
    reg.counter("wormhole.flit_cycles_buffered").inc(flit_cycles_buffered);
    reg.counter("wormhole.misroutes").inc(stats.misroutes);
    reg.counter("wormhole.escape_hops").inc(stats.escape_hops);
    reg.counter("wormhole.cycles").inc(stats.cycles);
    reg.gauge("wormhole.deadlocked").set(stats.deadlocked ? 1.0 : 0.0);
    reg.gauge("wormhole.unroutable")
        .set(static_cast<double>(stats.unroutable));
    reg.histogram("wormhole.packet_latency")
        .merge(stats.packets.latency_histogram());
  }
  return stats;
}

}  // namespace hbnet

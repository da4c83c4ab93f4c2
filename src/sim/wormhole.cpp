#include "sim/wormhole.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <unordered_set>

#include "check/check.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

// Datapath layout (single-threaded; cycle-exact with the original
// full-scan implementation -- same seed => same WormholeStats, pinned in
// tests/test_wormhole_determinism.cpp):
//
//  * A packet is a plain record (PktState): endpoints, hop count, stream
//    cursor, flags, and an offset into three append-only *route arenas*
//    local to the run -- per hop, the channel id, the VC class, and the VC
//    the worm holds there once its head has allocated one. Port words
//    (SimTopology::route_word) are resolved to channel ids once, at
//    injection, so the advance loop never looks a channel up; the node a
//    hop enters is chan_ends[c].second.
//  * The online fault re-planner never edits a route in place: it copies
//    the kept prefix (channels, classes and held VCs) plus the escape
//    suffix to the arena tail and repoints the packet's offset. Buffered
//    flits are named by (packet, hop), and the prefix keeps its indices.
//  * Channel ids come from a dense (node, port) -> id table of
//    degree_hint() entries per node, filled on first use: ids follow
//    first-registration order (injection order, then re-plan order), which
//    is also the advance loop's scan order. Words take the lowest port to
//    each neighbor, so a link is one channel. A word with a port >=
//    degree_hint() is a topology bug and throws std::logic_error.
//  * No flit is stored. A VC is held by one hop of one worm from head
//    allocation to tail release, and that hop's flits enter it in index
//    order, at most one per cycle; so a VC is a record (VcState) of owner,
//    hop, front flit index, count and the cycle of its last push. A head
//    that arrived this very cycle is exactly count == 1 && stamp == cycle.
//    Always-on checks hold every push and release to that contract.
//  * Each channel keeps a 64-bit mask of its non-empty VCs; arbitration
//    walks its set bits round-robin from rr, and each VC class owns a
//    precomputed mask of its VCs, so no empty or foreign VC is probed.
//  * The advance loop walks a bitmap of non-empty channels in ascending id
//    order (the scan order of the original full sweep). A channel that
//    gains its first flit mid-cycle holds only flits that arrived this
//    cycle, so visiting it (or not) that cycle is a no-op. Source
//    streaming walks a bitmap of sources with queued packets the same way.
//  * The injection coin is an integer compare on the engine's raw word
//    (InjectionCoin): same draws, same decisions as the double coin.
//  * Per-link/per-VC occupancy telemetry integrates push/pop deltas
//    (occupancy * cycles-held) instead of an O(channels * vcs) sweep per
//    cycle, so a Sink-enabled run costs O(1) extra per flit movement plus
//    O(1) per cycle -- the end-of-cycle sampling semantics of the original
//    sweep are reproduced exactly (tested via the occupancy-sum invariant).
//  * Conservation is checked at the end of every run, Release included:
//    packets created = delivered + killed + still in flight.

namespace hbnet {
namespace {

constexpr std::uint32_t kFree = std::numeric_limits<std::uint32_t>::max();

/// One virtual channel: the (worm, hop) holding it and the flits
/// [first, first + count) of that hop it buffers.
struct VcState {
  std::uint32_t owner = kFree;  // packet id, kFree = unallocated
  std::uint16_t hop = 0;        // route position of the buffered flits
  std::uint16_t first = 0;      // index of the front flit, 0 = head
  std::uint16_t count = 0;      // buffered flits
  std::uint64_t stamp = 0;      // cycle of the last push
};

/// One physical channel's arbitration state.
struct ChanState {
  std::uint64_t busy = 0;  // bit q set iff VC q buffers a flit
  std::uint8_t rr = 0;     // round-robin arbiter position
  bool blocked = false;    // static fault on the link
};

/// One packet. Hop h of its route uses channel route_chan[route + h] in VC
/// class route_cls[route + h], holding VC route_vc[route + h] there (the
/// run's route arenas).
struct PktState {
  std::uint64_t injected_at = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t route = 0;      // arena offset of hop 0
  std::uint16_t hops = 0;       // route length, >= 1
  std::uint16_t next_flit = 0;  // flits not yet streamed into hop 0
  unsigned replans = 0;         // online fault re-plans consumed
  bool measured = false;
  bool dead = false;  // killed as unroutable; buffered flits drain in place
};
static_assert(std::is_trivially_copyable_v<PktState>);

/// Appends the VC classes of the hops `chans` (channel ids, whose ends are
/// `ends`) to `cls`, from the ring structure: direction of a hop is the +-1
/// movement of (id % arity); a direction reversal starts a new monotone
/// segment; crossing the wrap edge bumps the within-segment dateline bit.
/// Non-ring hops (cube edges: level unchanged) keep the current class and
/// do not end a segment.
/// kFaultAdaptive uses the same six segment-dateline base classes; its
/// seventh (escape) class is never assigned here -- only the online
/// re-planner places hops there.
void append_hop_classes(
    std::span<const std::uint32_t> chans,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ends,
    unsigned arity, VcPolicy policy, std::vector<std::uint8_t>& cls) {
  if (policy == VcPolicy::kAnyFree || arity == 0) {
    cls.insert(cls.end(), chans.size(), 0);
    return;
  }
  int last_dir = 0;       // 0 = none yet
  unsigned segment = 0;   // monotone segment index (0..2 for our routers)
  unsigned wrapped = 0;   // crossed wrap within this segment
  for (const std::uint32_t c : chans) {
    std::uint32_t lu = ends[c].first % arity, lv = ends[c].second % arity;
    int dir = 0;
    bool wrap = false;
    if (lv == (lu + 1) % arity && lu != lv) {
      dir = 1;
      wrap = (lu == arity - 1);
    } else if (lu == (lv + 1) % arity && lu != lv) {
      dir = -1;
      wrap = (lu == 0);
    }
    if (dir != 0) {
      if (last_dir != 0 && dir != last_dir) {
        ++segment;
        wrapped = 0;
      }
      last_dir = dir;
    }
    if (policy == VcPolicy::kDateline) {
      cls.push_back(static_cast<std::uint8_t>(wrapped ? 1 : 0));
    } else {  // kSegmentDateline / kFaultAdaptive base classes
      unsigned seg_capped = segment > 2 ? 2 : segment;
      cls.push_back(static_cast<std::uint8_t>(2 * seg_capped + wrapped));
    }
    if (wrap) wrapped = 1;
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
  // Fault lookups. Node faults index the mask; link faults live in a hash
  // set keyed by the packed directed edge (lookup only -- never iterated).
  const std::vector<char> no_node_faults;
  const std::vector<char>& node_fault =
      have_faults ? faults->nodes : no_node_faults;
  std::unordered_set<std::uint64_t> link_fault;
  if (have_faults) {
    for (const auto& [lu, lv] : faults->links) {
      link_fault.insert((static_cast<std::uint64_t>(lu) << 32) | lv);
    }
  }
  auto node_dead = [&](std::uint32_t v) {
    return !node_fault.empty() && node_fault[v] != 0;
  };
  auto edge_blocked = [&](std::uint32_t u, std::uint32_t v) {
    if (node_dead(v)) return true;
    return !link_fault.empty() &&
           link_fault.count((static_cast<std::uint64_t>(u) << 32) | v) != 0;
  };
  // The reserved escape class is always the highest one (only meaningful
  // for kFaultAdaptive; unused otherwise).
  const std::uint8_t escape_cls = static_cast<std::uint8_t>(classes - 1);

  WormholeStats stats;
  std::mt19937_64 rng(config.seed);
  const InjectionCoin coin(config.injection_rate);
  TrafficGenerator traffic(config.pattern, n,
                           config.seed ^ 0x5bf03635dcd66425ull);

  std::uint64_t cycle = 0;

  // VC q belongs to class q * classes / vcs (classes partition the range).
  std::vector<std::uint64_t> cls_mask(classes, 0);
  for (unsigned q = 0; q < vcs; ++q) {
    cls_mask[q * classes / vcs] |= std::uint64_t{1} << q;
  }

  // -- channel storage -----------------------------------------------------
  // The channel table is consulted only when a route is resolved (injection
  // and re-plan); the advance loop works off the route arenas' channel ids.
  // All per-channel state is in flat arrays indexed by channel id (and
  // vi = c*vcs + q per VC).
  const unsigned ports = topo.degree_hint();
  // (node, port) -> channel id; kFree until the channel is registered.
  std::vector<std::uint32_t> chan_id(std::size_t{n} * ports, kFree);
  std::uint32_t num_chans = 0;
  std::vector<VcState> vc;  // num_chans * vcs
  std::vector<ChanState> chans;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> chan_ends;
  // Bit c set iff channel c buffers a flit: the advance loop's worklist.
  std::vector<std::uint64_t> active;
  // Telemetry state, grown/updated only under a sink.
  std::vector<std::uint64_t> link_forwarded;       // per channel
  std::vector<std::uint64_t> occ_integral;         // per VC (flit-cycles)
  std::vector<std::uint64_t> occ_since;            // first cycle not yet
                                                   // integrated, per VC

  auto channel = [&](std::uint32_t u, unsigned port) -> std::uint32_t {
    if (port >= ports) {
      throw std::logic_error("run_wormhole: a route leaves node " +
                             std::to_string(u) + " on port " +
                             std::to_string(port) + " >= degree_hint() = " +
                             std::to_string(ports));
    }
    std::uint32_t& id = chan_id[std::size_t{u} * ports + port];
    if (id != kFree) return id;
    const std::uint32_t v = topo.neighbor(u, port);
    id = num_chans++;
    vc.resize(std::size_t{num_chans} * vcs);
    chans.push_back({0, 0, have_faults && edge_blocked(u, v)});
    chan_ends.emplace_back(u, v);
    active.resize((num_chans + 63) / 64, 0);
    if (sink != nullptr) {
      link_forwarded.push_back(0);
      occ_integral.resize(std::size_t{num_chans} * vcs, 0);
      occ_since.resize(std::size_t{num_chans} * vcs, 0);
    }
    return id;
  };

  // -- route arenas ----------------------------------------------------------
  // Append-only, one entry per hop of every route ever planned in this run.
  // route_vc[h] is meaningful from the head's VC allocation at hop h until
  // the tail releases that VC.
  std::vector<std::uint32_t> route_chan;
  std::vector<std::uint8_t> route_cls;
  std::vector<std::uint8_t> route_vc;
  // Appends the channels of `word`, walked from `u`, to route_chan.
  auto append_channels = [&](std::uint32_t u,
                             const std::vector<std::uint8_t>& word) {
    for (const std::uint8_t port : word) {
      const std::uint32_t c = channel(u, port);
      route_chan.push_back(c);
      u = chan_ends[c].second;
    }
    route_vc.resize(route_chan.size());
  };
  std::vector<std::uint8_t> word;  // scratch: the route being resolved
  // Narrows an arena offset / hop count to the PktState field widths (hop
  // indices are 16-bit in every VC record).
  auto arena_offset = [](std::size_t at) {
    HBNET_CHECK(at <= std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(at);
  };
  auto hop_count = [](std::size_t hops) {
    if (hops > std::numeric_limits<std::uint16_t>::max()) {
      throw std::logic_error("run_wormhole: a route of " +
                             std::to_string(hops) + " hops exceeds 65535");
    }
    return static_cast<std::uint16_t>(hops);
  };

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
    HBNET_CHECK(vc[vi].count == 0);
    vc[vi].owner = kFree;
  };
  // Hands hop h of packet pid the first free VC of the hop's class on
  // channel c (recorded in route_vc); false when every one is held.
  auto allocate = [&](std::uint32_t pid, const PktState& p, std::size_t h,
                      std::uint32_t c) {
    for (std::uint64_t m = cls_mask[route_cls[p.route + h]]; m != 0;
         m &= m - 1) {
      const auto q = static_cast<unsigned>(std::countr_zero(m));
      VcState& s = vc[std::size_t{c} * vcs + q];
      if (s.owner != kFree) continue;
      s.owner = pid;
      s.hop = static_cast<std::uint16_t>(h);
      s.first = 0;
      route_vc[p.route + h] = static_cast<std::uint8_t>(q);
      return true;
    }
    return false;
  };

  // The run-long arrays are reserved up front so that none reallocates as
  // the run goes on: a doubling's transient copy, and whether the heap
  // block it frees goes back to the kernel, made the peak footprint vary
  // by megabytes from seed to seed. pkts gets the expected packet count
  // plus 1/8 (capped, for long horizons that deadlock early); the route
  // arenas get one spare hop per packet over the mean route length of the
  // first kRouteSample packets. Outgrowing either just resumes doubling.
  constexpr std::size_t kRouteSample = 256;
  const double expect =
      std::max(0.0, std::min(config.injection_rate, 1.0)) * n *
      static_cast<double>(config.warmup_cycles + config.measure_cycles);
  std::vector<PktState> pkts;
  pkts.reserve(static_cast<std::size_t>(std::min(1.125 * expect, 0x1p22)));
  std::vector<std::vector<std::uint32_t>> inject_q(n);
  std::vector<std::uint32_t> inject_head(n, 0);  // index of queue front
  // Bit src set iff inject_q[src] holds a packet: the streaming worklist.
  std::vector<std::uint64_t> queued((n + 63) / 64, 0);
  std::uint64_t in_flight = 0;
  std::uint64_t stall = 0;
  // Drops the front packet of src's queue (fully streamed or killed).
  auto advance_queue = [&](std::uint32_t src) {
    if (++inject_head[src] == inject_q[src].size()) {
      inject_q[src].clear();
      inject_head[src] = 0;
      queued[src >> 6] &= ~(std::uint64_t{1} << (src & 63));
    }
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
  // cycle without forwarding them).
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
  // kept hops [0, keep) and the suffix are written to the arena tail and
  // p.route repointed there, so every buffered flit's hop index stays
  // valid. May register new channels (growing the flat per-channel
  // arrays), so callers re-resolve any downstream channel index
  // afterwards. Returns false when the packet exhausted its misroute budget
  // or no fault-free alternative exists; the caller then kills the worm.
  auto replan = [&](PktState& p, std::size_t keep) -> bool {
    if (p.replans >= config.misroute_limit) return false;
    const std::uint32_t cur =
        keep == 0 ? p.src : chan_ends[route_chan[p.route + keep - 1]].second;
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
    const std::size_t at = route_chan.size();
    auto copy_prefix = [&](auto& arena) {
      arena.resize(at + keep);
      std::copy_n(arena.begin() + p.route, keep, arena.begin() + at);
    };
    copy_prefix(route_chan);
    copy_prefix(route_cls);
    copy_prefix(route_vc);
    append_channels(cur, word);
    route_cls.insert(route_cls.end(), word.size(), escape_cls);
    p.route = arena_offset(at);
    p.hops = hop_count(keep + word.size());
    return true;
  };

  // Channel advance for VC q of channel c: moves (or drains) its front
  // flit if it can. True when the channel used its one move this cycle.
  auto advance_vc = [&](std::uint32_t c, unsigned q) {
    const std::size_t vi = std::size_t{c} * vcs + q;
    // A copy, not a reference: the re-planner below can register new
    // channels and grow the VC array mid-call.
    const VcState s = vc[vi];
    if (s.count == 1 && s.stamp == cycle) return false;  // arrived now
    PktState& p = pkts[s.owner];
    if (p.dead) {
      // Drain one flit of a killed worm in place: not a forward (the
      // packet was dropped), but progress for the stall detector.
      pop_flit(c, q);
      --buffered;
      if (vc[vi].count == 0) release(vi);
      ++moves;
      return true;
    }
    if (s.hop + 1u == p.hops) {
      pop_flit(c, q);
      --buffered;
      if (sink != nullptr) ++link_forwarded[c];
      if (s.first + 1u == flits) {
        release(vi);
        HBNET_DCHECK(in_flight > 0);
        --in_flight;
        ++delivered_all;
        if (p.measured) {
          stats.packets.record_delivery(cycle + 1 - p.injected_at, p.hops);
        }
        if (deliver_ts != nullptr) deliver_ts->bump(cycle);
        HBNET_TRACE_COMPLETE(sink, "packet", "pkt", 0, p.src, p.injected_at,
                             cycle + 1 - p.injected_at,
                             {{"pkt", s.owner},
                              {"src", p.src},
                              {"dst", p.dst},
                              {"hops", p.hops}});
      }
      ++moves;
      return true;
    }
    const std::size_t next = s.hop + 1u;
    std::uint32_t c2 = route_chan[p.route + next];
    if (s.first == 0) {
      // The head allocates the next hop's VC; body flits follow into it.
      if (have_faults && chans[c2].blocked) {
        // Online fault discovery at VC allocation: the head sits at the
        // end of channel c and its planned next hop c2 is faulted.
        if (!replan(p, next)) {
          kill_worm(p);
          pop_flit(c, q);
          --buffered;
          // Free every VC the worm holds that is already empty: no flit
          // of it will ever arrive there to drain and free it.
          for (std::size_t h = 0; h < next; ++h) {
            const std::size_t at = p.route + h;
            const std::size_t hv =
                std::size_t{route_chan[at]} * vcs + route_vc[at];
            const VcState& held = vc[hv];
            if (held.owner == s.owner && held.hop == h && held.count == 0) {
              release(hv);
            }
          }
          return true;
        }
        // The re-plan kept hops 0 .. s.hop (this channel included) and
        // spliced a fresh escape-class suffix.
        c2 = route_chan[p.route + next];
      }
      if (!allocate(s.owner, p, next, c2)) return false;
    }
    const unsigned q2 = route_vc[p.route + next];
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

  const std::uint64_t horizon =
      config.warmup_cycles + config.measure_cycles + config.drain_cycles;
  for (; cycle < horizon; ++cycle) {
    bool injecting = cycle < config.warmup_cycles + config.measure_cycles;
    bool measuring = cycle >= config.warmup_cycles && injecting;
    moves = 0;

    // 1. Packet creation. Channels of the native route are registered here;
    // the online re-planner (phases 2-3) is the only other channel creator.
    // Faulty endpoints mirror the store-and-forward engine: a dead source
    // never draws its injection coin, a packet to a dead destination is
    // skipped after the destination draw, both uncounted.
    if (injecting) {
      for (std::uint32_t src = 0; src < n; ++src) {
        if (have_faults && node_dead(src)) continue;
        if (!coin.injects(rng())) continue;
        std::uint32_t dst = traffic.destination(src);
        if (have_faults && node_dead(dst)) continue;  // dead destination
        word.clear();
        topo.route_word(src, dst, word);
        if (word.empty()) continue;
        PktState p;
        p.injected_at = cycle;
        p.src = src;
        p.dst = dst;
        p.measured = measuring;
        p.route = arena_offset(route_chan.size());
        p.hops = hop_count(word.size());
        append_channels(src, word);
        append_hop_classes(std::span(route_chan).subspan(p.route), chan_ends,
                           ring_arity, config.policy, route_cls);
        if (p.measured) stats.packets.record_injection();
        if (inject_ts != nullptr) inject_ts->bump(cycle);
        pkts.push_back(p);
        if (pkts.size() == kRouteSample) {
          const std::size_t hops =
              (route_chan.size() / kRouteSample + 1) * pkts.capacity();
          route_chan.reserve(hops);
          for (auto* arena : {&route_cls, &route_vc}) arena->reserve(hops);
        }
        inject_q[src].push_back(static_cast<std::uint32_t>(pkts.size() - 1));
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
        const std::uint32_t pid = inject_q[src][inject_head[src]];
        PktState& p = pkts[pid];
        if (p.next_flit == 0) {
          // Online discovery at hop-0 VC allocation: re-plan before the
          // head flit ever enters the network, or kill the packet unrouted
          // (no flits exist yet, so the kill only advances the queue).
          if (have_faults && chans[route_chan[p.route]].blocked &&
              !replan(p, 0)) {
            kill_worm(p);
            continue;
          }
          if (!allocate(pid, p, 0, route_chan[p.route])) continue;
        }
        const std::uint32_t c0 = route_chan[p.route];
        const unsigned q0 = route_vc[p.route];
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
  HBNET_CHECK_MSG(
      pkts.size() == delivered_all + stats.unroutable + in_flight,
      "run_wormhole: created " + std::to_string(pkts.size()) +
          " != delivered " + std::to_string(delivered_all) + " + killed " +
          std::to_string(stats.unroutable) + " + in flight " +
          std::to_string(in_flight));

  // End-of-run export: link table, registry counters, latency histogram.
  if (sink != nullptr) {
    // Close the occupancy integrals: every cycle in [0, sampled_end) took
    // an end-of-cycle sample (the loop samples before it breaks, so a break
    // at cycle k includes k).
    const std::uint64_t sampled_end = cycle < horizon ? cycle + 1 : horizon;
    for (std::size_t vi = 0; vi < vc.size(); ++vi) {
      occ_integral[vi] += std::uint64_t{vc[vi].count} *
                          (sampled_end - occ_since[vi]);
    }
    sink->set_run_cycles(stats.cycles);
    // Channel ids are assigned in registration (= injection) order, which
    // is deterministic but not meaningful to a reader. Export the link
    // table sorted by (src, dst) so telemetry is canonical -- the same
    // order the store-and-forward simulator emits.
    std::vector<std::uint32_t> by_ends(num_chans);
    std::iota(by_ends.begin(), by_ends.end(), 0u);
    std::sort(by_ends.begin(), by_ends.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return chan_ends[a] < chan_ends[b];
              });
    std::uint64_t forwarded_total = 0;
    sink->links().reserve(sink->links().size() + num_chans);
    for (std::uint32_t c : by_ends) {
      obs::LinkStats link;
      link.src = chan_ends[c].first;
      link.dst = chan_ends[c].second;
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

// The store-and-forward engine: one synchronous cycle loop, generic over a
// router, behind all three entry points -- run_simulation_sharded
// (sharded.hpp), run_simulation and run_simulation_with_fault_events
// (simulator.hpp). sharded.hpp describes the datapath and its determinism
// contract; simulator.hpp states the model and the fault rule.
#include "sim/sharded.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "distsim/sync_engine.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "sim/hb_packet.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbnet {
namespace {

constexpr std::uint8_t kMeasured = 1;
constexpr std::uint8_t kRevisit = 2;  // HB Valiant phase 1: re-plan on arrival

/// What planning or servicing one packet did. The last three drop it: the
/// faults cut the pair off, the topology has no fault routing, or the node
/// holding the packet died.
enum class Hop { kMoved, kDelivered, kNoPath, kUnsupported, kLost };

/// (src << 32 | dst, packets moved): one directed link's tally.
using LinkCount = std::pair<std::uint64_t, std::uint64_t>;

// A router is the per-packet half of the engine:
//   Packet        src, dst, injected_at, hops and flags plus the router's
//                 position and route state; the engine only moves it;
//   degree / neighbor  its ports: advance() counts a hop in the run-wide
//                 node x port link tally (sink runs only; shards write
//                 disjoint entries), and neighbor() expands the tally;
//   kFaults       whether it takes faults; such a router keeps run-wide
//                 state and runs as one shard on the calling thread;
//   node / inject / advance / release, as used below; release(p) ends
//                 the route inject(p) planned (delivered, dropped, lost).

/// HB(m,n) routes in closed form: each hop is O(1) bit math on the route
/// packed into the 24-byte HbPacket (sim/hb_packet.hpp). Stateless, so it
/// runs at any shard count. Fault free.
class HbRouter {
 public:
  using Packet = detail::HbPacket;
  static constexpr bool kFaults = false;

  HbRouter(const HyperButterfly& hb, RoutingMode routing)
      : hb_(hb),
        route_(hb),
        degree_(hb.degree()),
        valiant_(routing == RoutingMode::kValiant) {}

  [[nodiscard]] std::uint32_t node(const Packet& p) const {
    return route_.node(p);
  }
  [[nodiscard]] unsigned degree() const { return degree_; }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t u, unsigned gen) const {
    return static_cast<std::uint32_t>(
        hb_.neighbor(u, static_cast<std::uint8_t>(gen)));
  }

  Hop inject(const StatelessTraffic::CycleView& tv, Packet& pkt) const {
    route_.place(pkt, pkt.src);
    // Valiant aims at the intermediate w first, unless w is an endpoint.
    const std::uint32_t w = valiant_ ? tv.intermediate(pkt.src) : pkt.dst;
    const bool two_phase = w != pkt.src && w != pkt.dst;
    if (two_phase) pkt.flags |= kRevisit;
    route_.plan(pkt, hb_.node_at(two_phase ? w : pkt.dst));
    return Hop::kMoved;
  }

  Hop advance(Packet& pkt, std::uint32_t at, std::uint64_t* links) const {
    if (route_.done(pkt)) {
      // Valiant intermediate reached last cycle: aim at the destination.
      HBNET_DCHECK_MSG((pkt.flags & kRevisit) != 0, "stuck packet");
      pkt.flags &= static_cast<std::uint8_t>(~kRevisit);
      route_.plan(pkt, hb_.node_at(pkt.dst));
    }
    const std::uint8_t gen = route_.step(pkt);
    ++pkt.hops;
    if (links != nullptr) {
      ++links[static_cast<std::size_t>(at) * degree_ + gen];
    }
    return route_.done(pkt) && (pkt.flags & kRevisit) == 0 ? Hop::kDelivered
                                                            : Hop::kMoved;
  }

  void release(const Packet&) const {}

 private:
  const HyperButterfly& hb_;
  detail::HbPacketRoute route_;
  unsigned degree_;
  bool valiant_;
};

/// A source-routed packet: its route is the port word in the router's slot
/// `slot`, and `pos` indexes the next port to take from `at`.
struct PathPacket {
  std::uint32_t at = 0;
  std::uint32_t slot = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t injected_at = 0;
  std::uint32_t hops = 0;
  std::uint32_t pos = 0;
  std::uint8_t flags = 0;
};
static_assert(std::is_trivially_copyable_v<PathPacket>);

/// Any SimTopology, source-routed at injection with the network's own
/// algorithm. A packet whose next hop has died re-plans from where it is.
/// Words live in recycled slots (a free list of byte vectors), so route
/// memory is bounded by the packets in flight and a steady-state run
/// allocates nothing. The fault set, the slots and the link tally are
/// run-wide, so this router runs as one shard.
class PathRouter {
 public:
  using Packet = PathPacket;
  static constexpr bool kFaults = true;

  PathRouter(const SimTopology& topo, RoutingMode routing)
      : topo_(topo),
        degree_(topo.degree_hint()),
        valiant_(routing == RoutingMode::kValiant) {}

  [[nodiscard]] std::uint32_t node(const Packet& p) const { return p.at; }
  [[nodiscard]] unsigned degree() const { return degree_; }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t u, unsigned port) const {
    return topo_.neighbor(u, port);
  }

  [[nodiscard]] bool alive(std::uint32_t v) const {
    return faulty_.empty() || faulty_[v] == 0;
  }
  /// Marks `v` dead; false when it already was.
  bool kill(std::uint32_t v) {
    if (faulty_.empty()) faulty_.assign(topo_.num_nodes(), 0);
    if (faulty_[v] != 0) return false;
    faulty_[v] = 1;
    return true;
  }

  /// Takes a slot for the packet's word; release() returns it.
  Hop inject(const StatelessTraffic::CycleView& tv, Packet& pkt) {
    pkt.at = pkt.src;
    if (free_.empty()) {
      pkt.slot = static_cast<std::uint32_t>(words_.size());
      words_.emplace_back();
    } else {
      pkt.slot = free_.back();
      free_.pop_back();
    }
    if (!faulty_.empty()) return detour(pkt);
    // Valiant: src -> w -> dst, two concatenated routes (w not an endpoint).
    const std::uint32_t w = valiant_ ? tv.intermediate(pkt.src) : pkt.dst;
    std::vector<std::uint8_t>& word = words_[pkt.slot];
    word.clear();
    topo_.route_word(pkt.src, w == pkt.src ? pkt.dst : w, word);
    if (w != pkt.src && w != pkt.dst) topo_.route_word(w, pkt.dst, word);
    return Hop::kMoved;
  }

  void release(const Packet& p) { free_.push_back(p.slot); }

  Hop advance(Packet& pkt, std::uint32_t at, std::uint64_t* links) {
    std::uint8_t port = words_[pkt.slot][pkt.pos];
    std::uint32_t next = topo_.neighbor(at, port);
    if (!alive(next)) {
      const Hop planned = detour(pkt);
      if (planned != Hop::kMoved) return planned;
      port = words_[pkt.slot][0];
      next = topo_.neighbor(at, port);
    }
    if (links != nullptr) {
      ++links[static_cast<std::size_t>(at) * degree_ + port];
    }
    pkt.at = next;
    ++pkt.hops;
    return ++pkt.pos < words_[pkt.slot].size() ? Hop::kMoved : Hop::kDelivered;
  }

 private:
  /// Re-plans `pkt` from where it is around the faults. A dead destination
  /// is unroutable by design; a packet already at its destination (a
  /// Valiant first leg through dst) is delivered where it is, without a hop.
  Hop detour(Packet& pkt) {
    if (!alive(pkt.dst)) return Hop::kNoPath;
    if (pkt.at == pkt.dst) return Hop::kDelivered;
    std::vector<std::uint8_t>& word = words_[pkt.slot];
    word.clear();
    const FaultRouteStatus status =
        topo_.route_avoiding_word(pkt.at, pkt.dst, faulty_, {}, word);
    if (status != FaultRouteStatus::kOk) {
      return status == FaultRouteStatus::kUnsupported ? Hop::kUnsupported
                                                      : Hop::kNoPath;
    }
    pkt.pos = 0;
    return Hop::kMoved;
  }

  const SimTopology& topo_;
  unsigned degree_;
  bool valiant_;
  std::vector<char> faulty_;  // empty while every node is healthy
  std::vector<std::vector<std::uint8_t>> words_;  // route slots
  std::vector<std::uint32_t> free_;               // released slots
};

/// A delivered packet's trace span, held until the cycle's barrier.
struct Span {
  std::uint32_t node, src, dst, injected_at, hops;
};

/// Per-shard state. Only the worker running the shard touches it between
/// barriers.
///
/// Queues are not linked lists. A node's FIFO is the subsequence of its
/// packets in one sweep order -- the shard's keepers in `cur` (oldest
/// first), then last cycle's arrivals straight out of the inbox Exchange
/// (ascending sender), then this cycle's injections (ascending node) -- so
/// one sequential sweep services every queue: the first service_rate
/// packets seen for a node are forwarded, the rest are keepers. Keepers
/// already in `cur` are compacted in place behind a write cursor; waiting
/// arrivals and injections are appended behind them. Idle nodes cost
/// nothing -- the sweep touches packets, not nodes.
template <class Router>
struct Shard {
  using Packet = typename Router::Packet;

  std::uint32_t begin = 0, end = 0;  // global node range [begin, end)

  std::vector<Packet> cur;  // keepers, in FIFO order

  SimStats stats;  // measured packets
  // Every packet, measured or not: conservation and progress.
  std::uint64_t created = 0, delivered = 0, dropped = 0;
  std::uint64_t unroutable = 0, unsupported = 0;  // measured, by cause
  std::vector<Span> spans;  // this cycle's deliveries, tracing runs only

  void drop(const Packet& p, Hop why) {
    ++dropped;
    if ((p.flags & kMeasured) == 0) return;
    stats.record_drop();
    unroutable += why == Hop::kNoPath ? 1 : 0;
    unsupported += why == Hop::kUnsupported ? 1 : 0;
  }
};

/// One pool worker's per-cycle service state, borrowed by every shard the
/// worker runs and empty again when the shard's turn ends, so which worker
/// runs which shard never shows in a result. Forwarded packets are appended
/// to the sequential `moved` buffer and their indices parked in per-node
/// `slots` (service_rate per node); the emission pass walks the `frontier`
/// bitset of serviced nodes in ascending order and pushes the parked moves
/// to the outbox. That restores the canonical ascending-sender order no
/// matter where the sweep met each packet, which is what keeps results
/// byte-identical across every shard count. Padded to its own cache lines:
/// adjacent workers' vector headers would otherwise share one.
template <class Packet>
struct alignas(128) CycleScratch {
  std::vector<Packet> moved;  // this shard's forwarded packets, sweep order
  std::vector<std::uint64_t> frontier;  // local nodes serviced (bitset)
  std::vector<std::uint8_t> served;     // services consumed per local node
  std::vector<std::uint8_t> parked;     // move slots filled per local node
  std::vector<std::uint32_t> slots;     // local node x service_rate indices
                                        // into `moved`
};

template <class Router>
SimStats run_store_forward(Router& router, std::uint32_t n,
                           const SimConfig& config, unsigned shards,
                           unsigned threads, std::vector<FaultEvent> events,
                           obs::Sink* sink, obs::ProgressBoard* progress) {
  using Packet = typename Router::Packet;
  const std::uint64_t inject_end = config.warmup_cycles + config.measure_cycles;
  const std::uint64_t horizon = inject_end + config.drain_cycles;
  HBNET_CHECK_MSG(inject_end >= config.warmup_cycles && horizon >= inject_end &&
                      horizon <= 0xffffffffu,
                  "store-and-forward: warmup + measure + drain cycles must "
                  "be < 2^32");
  HBNET_CHECK_MSG(config.service_rate >= 1 && config.service_rate <= 255,
                  "store-and-forward: service_rate must be in [1, 255]");
  const std::uint32_t sr = config.service_rate;

  const unsigned workers = par::resolve_threads(threads);
  // Auto-sharding targets ~16K nodes per shard: small enough that a shard's
  // packets and the service scratch sized to it stay cache-resident while
  // the shard is swept (the exchange then acts as a radix partition of the
  // cross-shard traffic), while never dropping below one shard per worker.
  const unsigned num_shards =
      shards != 0 ? shards : std::max<unsigned>(workers, (n + 16383) / 16384);
  const sync::ShardPlan plan(n, num_shards);
  if constexpr (Router::kFaults) {
    HBNET_CHECK_MSG(plan.shards() == 1 && workers == 1,
                    "store-and-forward: a fault-tolerant router runs as one "
                    "shard on the calling thread");
  }
  const StatelessTraffic traffic(config.pattern, n,
                                 config.seed ^ 0x9e3779b97f4a7c15ull,
                                 config.injection_rate);
  const bool tracing = HBNET_TRACE_ACTIVE(sink);

  std::vector<Shard<Router>> shard(plan.shards());
  std::uint32_t widest = 0;
  for (unsigned s = 0; s < plan.shards(); ++s) {
    Shard<Router>& sh = shard[s];
    sh.begin = static_cast<std::uint32_t>(plan.begin(s));
    sh.end = static_cast<std::uint32_t>(plan.end(s));
    widest = std::max(widest, sh.end - sh.begin);
  }
  par::ThreadPool pool(workers);
  std::vector<CycleScratch<Packet>> scratch(pool.size());
  for (CycleScratch<Packet>& scr : scratch) {
    scr.frontier.assign((widest + 63) / 64, 0);
    scr.served.assign(widest, 0);
    scr.parked.assign(widest, 0);
    scr.slots.resize(static_cast<std::size_t>(widest) * sr);
  }
  // Sink runs only: node x port link tallies and per-node queue-length
  // integrals. A packet counts at the node holding it at the end of each
  // cycle: a keeper when the sweep keeps it, an arrival when the next
  // cycle's sweep (or a fault event, or the end of the run) takes it out of
  // the inbox.
  const unsigned ports = router.degree();
  std::vector<std::uint64_t> links(
      sink != nullptr ? static_cast<std::size_t>(n) * ports : 0, 0);
  std::vector<std::uint64_t> node_occ(sink != nullptr ? n : 0, 0);

  // Last cycle's moves are read from `inbox` while this cycle's are pushed
  // to `outbox`; the two swap at the end of every cycle. They share one set
  // of segment lists, so the segments a shard drains carry its own pushes.
  sync::Exchange<Packet> inbox(plan.shards());
  sync::Exchange<Packet> outbox(inbox.lists());
  std::uint64_t peak_moves = 0;

  obs::ProgressBoard::Slot* const prog_cycle =
      progress != nullptr ? &progress->slot("sim.cycle") : nullptr;
  obs::ProgressBoard::Slot* const prog_in_flight =
      progress != nullptr ? &progress->slot("sim.in_flight_packets") : nullptr;
  obs::ProgressBoard::Slot* const prog_delivered =
      progress != nullptr ? &progress->slot("sim.delivered") : nullptr;
  obs::ProgressBoard::Slot* const prog_segments =
      progress != nullptr ? &progress->slot("sim.exchange_segments")
                          : nullptr;
  obs::ProgressBoard::Slot* const prog_peak_moves =
      progress != nullptr ? &progress->slot("sim.exchange_peak_moves")
                          : nullptr;
  const std::uint64_t ts_bucket = std::max<std::uint64_t>(1, inject_end / 64);
  obs::TimeSeries* const inject_ts =
      sink != nullptr ? &sink->time_series("sim.injected", ts_bucket) : nullptr;
  obs::TimeSeries* const deliver_ts =
      sink != nullptr ? &sink->time_series("sim.delivered", ts_bucket)
                      : nullptr;

  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  std::size_t next_event = 0;

  std::uint64_t cycle = 0;
  std::uint64_t in_flight = 0, created = 0, delivered = 0;  // every packet
  for (; cycle < horizon; ++cycle) {
    if constexpr (Router::kFaults) {
      // Fault arrivals: the node dies and the packets queued there -- its
      // keepers and last cycle's arrivals -- are lost.
      for (; next_event < events.size() && events[next_event].cycle <= cycle;
           ++next_event) {
        const std::uint32_t dead = events[next_event].node;
        if (!router.kill(dead)) continue;
        const unsigned s = plan.shard_of(dead);
        Shard<Router>& sh = shard[s];
        auto lose = [&](const Packet& p) {
          if (router.node(p) != dead) return false;
          sh.drop(p, Hop::kLost);
          router.release(p);
          return true;
        };
        [[maybe_unused]] const std::uint64_t keepers =
            std::erase_if(sh.cur, lose);
        const std::uint64_t arrivals = inbox.erase_if(s, lose);
        if (!node_occ.empty()) node_occ[dead] += arrivals;
        HBNET_TRACE_INSTANT(
            sink, "fault", "node_death", 0, dead, cycle,
            {{"node", dead}, {"lost_packets", keepers + arrivals}});
      }
    }

    const bool injecting = cycle < inject_end;
    const bool measuring = cycle >= config.warmup_cycles && injecting;
    const StatelessTraffic::CycleView tv = traffic.at(cycle);

    // The one parallel phase: each shard sweeps its keepers, its arrivals
    // and its injections, then emits its moves to the outbox.
    pool.parallel_for_chunks(plan.shards(), 1, [&](unsigned worker,
                                                   std::uint64_t s_begin,
                                                   std::uint64_t s_end) {
      CycleScratch<Packet>& scr = scratch[worker];
      std::uint64_t* const tally = sink != nullptr ? links.data() : nullptr;
      for (std::uint64_t si = s_begin; si < s_end; ++si) {
        const auto s = static_cast<unsigned>(si);
        Shard<Router>& sh = shard[s];

        // Services `pkt` at `node` unless the node has used its budget this
        // cycle; false means the packet waits (a keeper).
        auto serve = [&](Packet& pkt, std::uint32_t node) {
          const std::uint32_t local = node - sh.begin;
          if (scr.served[local] >= sr) return false;
          if (scr.served[local] == 0) {
            scr.frontier[local >> 6] |= std::uint64_t{1} << (local & 63);
          }
          ++scr.served[local];

          const Hop hop = router.advance(pkt, node, tally);
          if (hop == Hop::kMoved) {
            scr.slots[static_cast<std::size_t>(local) * sr +
                      scr.parked[local]++] =
                static_cast<std::uint32_t>(scr.moved.size());
            scr.moved.push_back(std::move(pkt));
            return true;
          }
          router.release(pkt);
          if (hop == Hop::kDelivered) {
            if (pkt.flags & kMeasured) {
              sh.stats.record_delivery(cycle + 1 - pkt.injected_at, pkt.hops);
            }
            ++sh.delivered;
            if (tracing) {
              sh.spans.push_back(
                  {node, pkt.src, pkt.dst, pkt.injected_at, pkt.hops});
            }
          } else {
            sh.drop(pkt, hop);
          }
          return true;
        };

        // Keepers: serviced or moved down to the write cursor `kept` (never
        // past their read index).
        std::size_t kept = 0;
        for (Packet& pkt : sh.cur) {
          const std::uint32_t node = router.node(pkt);
          if (serve(pkt, node)) continue;
          if (!node_occ.empty()) ++node_occ[node];
          Packet& to = sh.cur[kept++];
          if (&to != &pkt) to = std::move(pkt);
        }
        sh.cur.resize(kept);

        // Arrivals, sender shards ascending: each held its node at the end
        // of the last cycle.
        inbox.drain(s, [&](Packet& pkt) {
          const std::uint32_t node = router.node(pkt);
          if (!node_occ.empty()) ++node_occ[node];
          if (serve(pkt, node)) return;
          if (!node_occ.empty()) ++node_occ[node];
          sh.cur.push_back(std::move(pkt));
        });

        // Injections, in ascending node order.
        if (injecting) {
          for (std::uint32_t id = sh.begin; id < sh.end; ++id) {
            if (!tv.injects(id)) continue;
            Packet pkt;
            pkt.src = id;
            pkt.dst = tv.destination(id);
            if (pkt.dst == id) continue;  // a one-node network has no traffic
            if constexpr (Router::kFaults) {
              if (!router.alive(id) || !router.alive(pkt.dst)) continue;
            }
            pkt.injected_at = static_cast<std::uint32_t>(cycle);
            pkt.flags = measuring ? kMeasured : 0;
            ++sh.created;
            if (measuring) sh.stats.record_injection();
            const Hop planned = router.inject(tv, pkt);
            if (planned != Hop::kMoved) {
              sh.drop(pkt, planned);
              router.release(pkt);
              continue;
            }
            if (serve(pkt, id)) continue;
            if (!node_occ.empty()) ++node_occ[id];
            sh.cur.push_back(pkt);
          }
        }

        // Emission: walk the serviced frontier in ascending node order and
        // push parked moves to the outbox. This -- not the sweep order --
        // fixes the delivery order, so it is shard-count independent.
        // Resets the service state as it goes (O(serviced)).
        for (std::size_t w = 0; w < scr.frontier.size(); ++w) {
          std::uint64_t bits = scr.frontier[w];
          if (bits == 0) continue;
          scr.frontier[w] = 0;
          while (bits != 0) {
            const auto local = static_cast<std::uint32_t>(
                (w << 6) + static_cast<unsigned>(std::countr_zero(bits)));
            bits &= bits - 1;
            const unsigned nmoves = scr.parked[local];
            scr.served[local] = 0;
            scr.parked[local] = 0;
            const std::uint32_t* const slot =
                &scr.slots[static_cast<std::size_t>(local) * sr];
            for (unsigned k = 0; k < nmoves; ++k) {
              Packet& p = scr.moved[slot[k]];
              const unsigned to = plan.shard_of(router.node(p));
              outbox.push(s, to, std::move(p));
            }
          }
        }
        scr.moved.clear();
      }
    });
    // parallel_for_chunks returning IS the barrier: every shard has drained
    // its inbox column and pushed all of its moves.
    std::swap(inbox, outbox);
    inbox.lists()->rebalance();

    const std::uint64_t was_created = created, was_delivered = delivered;
    in_flight = inbox.in_flight();  // this cycle's moves
    peak_moves = std::max(peak_moves, in_flight);
    created = delivered = 0;
    for (const Shard<Router>& sh : shard) {
      in_flight += sh.cur.size();
      created += sh.created;
      delivered += sh.delivered;
    }
    if (sink != nullptr) {
      inject_ts->bump(cycle, created - was_created);
      deliver_ts->bump(cycle, delivered - was_delivered);
    }
    if (progress != nullptr) {
      prog_cycle->set(cycle);
      prog_in_flight->set(in_flight);
      prog_delivered->set(delivered);
      prog_segments->set(inbox.lists()->segments());
      prog_peak_moves->set(peak_moves);
    }
    if (tracing) {
      // A stable sort by node keeps each node's FIFO order, and shards are
      // ascending contiguous ranges: spans leave in global (node, FIFO)
      // order whatever the thread and shard counts.
      for (Shard<Router>& sh : shard) {
        std::stable_sort(
            sh.spans.begin(), sh.spans.end(),
            [](const Span& a, const Span& b) { return a.node < b.node; });
        for ([[maybe_unused]] const Span& sp : sh.spans) {
          HBNET_TRACE_COMPLETE(sink, "packet", "pkt", 0, sp.src,
                               sp.injected_at, cycle + 1 - sp.injected_at,
                               {{"src", sp.src},
                                {"dst", sp.dst},
                                {"hops", sp.hops}});
        }
        sh.spans.clear();
      }
    }
    HBNET_TRACE_COUNTER(sink, "in_flight_packets", 0, cycle, in_flight);
    if (!injecting && in_flight == 0) break;
  }
  // The horizon can stop the run with arrivals still in the inbox: they are
  // in flight, and they held their nodes at the end of the last cycle.
  if (!node_occ.empty()) {
    for (unsigned s = 0; s < plan.shards(); ++s) {
      inbox.drain(s, [&](const Packet& p) { ++node_occ[router.node(p)]; });
    }
  }

  // Merge phase (serial, shard-ascending => shard-count independent).
  SimStats stats;
  std::uint64_t dropped = 0, unroutable = 0, unsupported = 0;
  for (const Shard<Router>& sh : shard) {
    stats.merge(sh.stats);
    dropped += sh.dropped;
    unroutable += sh.unroutable;
    unsupported += sh.unsupported;
  }
  HBNET_CHECK_MSG(created == delivered + dropped + in_flight,
                  "store-and-forward: packet conservation violated "
                  "(created != delivered + dropped + in flight)");
  if (sink == nullptr) return stats;

  const std::uint64_t cycles = std::min(cycle + 1, horizon);
  sink->set_run_cycles(cycles);

  sink->node_occupancy() = std::move(node_occ);

  // The link table is ordered by (src, dst) -- the packed key -- so the
  // export is canonical whatever the router's tally order.
  std::vector<LinkCount> by_key;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i] == 0) continue;
    const auto u = static_cast<std::uint32_t>(i / ports);
    by_key.emplace_back(
        (std::uint64_t{u} << 32) |
            router.neighbor(u, static_cast<unsigned>(i % ports)),
        links[i]);
  }
  std::sort(by_key.begin(), by_key.end());
  // Keys are unique: a route hop always takes the lowest port to its next
  // node, so no two tallied ports of a node share a link.
  std::uint64_t moves_total = 0;
  sink->links().reserve(sink->links().size() + by_key.size());
  for (std::size_t i = 0; i < by_key.size(); ++i) {
    const auto [key, count] = by_key[i];
    HBNET_DCHECK_MSG(i == 0 || by_key[i - 1].first != key,
                     "two ports of a node tallied on one link");
    moves_total += count;
    sink->links().push_back({static_cast<std::uint32_t>(key >> 32),
                             static_cast<std::uint32_t>(key), count, {}});
  }

  obs::MetricsRegistry& reg = sink->metrics();
  reg.counter("sim.injected").inc(stats.injected());
  reg.counter("sim.delivered").inc(stats.delivered());
  reg.counter("sim.dropped").inc(stats.dropped());
  reg.counter("sim.dropped_unroutable").inc(unroutable);
  reg.counter("sim.dropped_unsupported").inc(unsupported);
  reg.counter("sim.packet_moves").inc(moves_total);
  reg.counter("sim.cycles").inc(cycles);
  reg.histogram("sim.packet_latency").merge(stats.latency_histogram());
  return stats;
}

}  // namespace

SimStats run_simulation_sharded(const HyperButterfly& hb,
                                const SimConfig& config, unsigned shards,
                                unsigned threads, obs::Sink* sink,
                                obs::ProgressBoard* progress) {
  HBNET_CHECK_MSG(hb.num_nodes() < 0xffffffffu,
                  "run_simulation_sharded: instance exceeds 32-bit id space");
  HbRouter router(hb, config.routing);
  return run_store_forward(router, static_cast<std::uint32_t>(hb.num_nodes()),
                           config, shards, threads, {}, sink, progress);
}

SimStats run_simulation(const SimTopology& topo, const SimConfig& config,
                        const std::vector<char>& faulty, obs::Sink* sink,
                        obs::ProgressBoard* progress) {
  HBNET_CHECK_MSG(faulty.empty() || faulty.size() == topo.num_nodes(),
                  "run_simulation: fault mask must be empty or num_nodes()");
  // The static mask is the fault set at cycle 0.
  std::vector<FaultEvent> at_start;
  for (std::uint32_t v = 0; v < faulty.size(); ++v) {
    if (faulty[v] != 0) at_start.push_back({0, v});
  }
  return run_simulation_with_fault_events(topo, config, std::move(at_start),
                                          sink, progress);
}

SimStats run_simulation_with_fault_events(const SimTopology& topo,
                                          const SimConfig& config,
                                          std::vector<FaultEvent> events,
                                          obs::Sink* sink,
                                          obs::ProgressBoard* progress) {
  for (const FaultEvent& ev : events) {
    HBNET_CHECK_MSG(ev.node < topo.num_nodes(),
                    "run_simulation_with_fault_events: event node out of "
                    "range");
  }
  PathRouter router(topo, config.routing);
  return run_store_forward(router, topo.num_nodes(), config, 1, 1,
                           std::move(events), sink, progress);
}

}  // namespace hbnet

// Sharded synchronous packet engine: covering-walk plan optimality, the
// implicit router's hop-for-hop equivalence with the materialized
// route_generators(), conservation laws, Valiant mode, the determinism
// contract -- stats and exported artifacts are byte-identical for every
// --threads x --shards combination -- and the engine's double-buffered
// exchange and its occupancy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "cycle_walk_reference.hpp"
#include "distsim/sync_engine.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "sim/hb_packet.hpp"
#include "sim/hb_route.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "topology/butterfly.hpp"

namespace hbnet {
namespace {

TEST(CoveringWalkPlan, MatchesOptimalLengthExhaustively) {
  for (const unsigned n : {3u, 5u, 8u}) {
    for (unsigned start = 0; start < n; ++start) {
      for (unsigned end = 0; end < n; ++end) {
        for (std::uint64_t req = 0; req < (std::uint64_t{1} << n); ++req) {
          const CoveringWalkPlan plan = plan_covering_walk(n, start, end, req);
          ASSERT_EQ(plan.length(),
                    reference_cycle_walk(n, start, end, req, false).size())
              << "n=" << n << " start=" << start << " end=" << end
              << " req=" << req;
        }
      }
    }
  }
}

TEST(CoveringWalkPlan, ReplayCoversAndTerminates) {
  // Walk the three monotone runs on the level cycle and verify the walk is
  // valid: correct step count, ends at `end`, crosses every required edge
  // (an upward step crosses edge `level`, a downward step crosses
  // (level - 1) mod n).
  const unsigned n = 6;
  for (unsigned start = 0; start < n; ++start) {
    for (unsigned end = 0; end < n; ++end) {
      for (std::uint64_t req = 0; req < (std::uint64_t{1} << n); ++req) {
        const CoveringWalkPlan plan = plan_covering_walk(n, start, end, req);
        unsigned level = start;
        std::uint64_t crossed = 0;
        unsigned steps = 0;
        for (unsigned i = 0; i < 3; ++i) {
          for (unsigned k = 0; k < plan.run(i); ++k) {
            if (plan.dir(i) > 0) {
              crossed |= std::uint64_t{1} << level;
              level = level + 1 == n ? 0 : level + 1;
            } else {
              level = level == 0 ? n - 1 : level - 1;
              crossed |= std::uint64_t{1} << level;
            }
            ++steps;
          }
        }
        ASSERT_EQ(steps, plan.length());
        ASSERT_EQ(level, end) << "start=" << start << " req=" << req;
        ASSERT_EQ(crossed & req, req) << "uncovered edges, start=" << start;
      }
    }
  }
}

// hbbench still spells the router with its old sim/ namespace.
static_assert(std::is_same_v<sim::HbImplicitRouter, HbImplicitRouter> &&
              std::is_same_v<sim::HbRouteState, HbRouteState> &&
              std::is_same_v<sim::HbHop, HbHop>);

TEST(HbImplicitRouter, ReplaysRouteGeneratorsExactly) {
  // route_generators() walks the same router, so the word comparison is
  // anchored by Routing.RouteWordsMatchPinnedParentDigests; what stays
  // independent here is each hop's edge, the endpoint and the length.
  // HB(1,5) carries the n = 5 butterfly of the wormhole-faults workload.
  for (const auto& [m, n] :
       {std::pair{2u, 3u}, std::pair{1u, 4u}, std::pair{1u, 5u}}) {
    const HyperButterfly hb(m, n);
    const HbImplicitRouter router(hb);
    for (HbIndex si = 0; si < hb.num_nodes(); ++si) {
      for (HbIndex di = 0; di < hb.num_nodes(); ++di) {
        const HbNode src = hb.node_at(si);
        const HbNode dst = hb.node_at(di);
        const std::vector<std::uint8_t> want = hb.route_generators(src, dst);

        HbRouteState st = router.plan(src, dst);
        ASSERT_EQ(st.hops_remaining(), want.size());
        HbNode cur = src;
        std::size_t hop_count = 0;
        while (!st.done()) {
          const HbHop hop = router.next_hop(cur, st);
          ASSERT_LT(hop_count, want.size());
          ASSERT_EQ(hop.gen, want[hop_count])
              << "hop " << hop_count << " of " << si << "->" << di;
          ASSERT_EQ(hop.next, hb.apply(cur, hop.gen));
          cur = hop.next;
          ++hop_count;
        }
        ASSERT_EQ(cur, dst);
        ASSERT_EQ(hop_count, want.size());
        ASSERT_EQ(hop_count, hb.distance(src, dst));
      }
    }
  }
}

// The engine's 24-byte packet carries its route packed (sim/hb_packet.hpp).
// Plans `p` and HbImplicitRouter from `cur` to `to` and steps them side by
// side: equal generators, positions and routes left, every packed field in
// range, the engine's flag bits untouched. Moves `cur` to `to` and counts
// the hops in p.hops.
constexpr std::uint8_t kEngineFlags = 3;  // measured | Valiant revisit

void step_side_by_side(const HyperButterfly& hb,
                       const detail::HbPacketRoute& route,
                       const HbImplicitRouter& router, detail::HbPacket& p,
                       HbNode& cur, HbNode to) {
  const unsigned m = hb.cube_dimension(), n = hb.butterfly_dimension();
  const std::uint32_t route_bits = std::uint32_t{1}
                                   << detail::HbPacketRoute::kLevelShift;
  HbRouteState st = router.plan(cur, to);
  route.plan(p, to);
  for (;;) {
    const HbRouteState packed = route.route(p);
    ASSERT_EQ(packed.cube_diff, st.cube_diff);
    ASSERT_EQ(packed.walk.word_diff, st.walk.word_diff);
    for (unsigned i = 0; i < 3; ++i) {
      ASSERT_EQ(packed.walk.run[i], st.walk.run[i]) << "run " << i;
    }
    ASSERT_EQ(packed.walk.dir0, st.walk.dir0);
    ASSERT_EQ(route.position(p), cur);
    ASSERT_EQ(route.node(p), hb.index_of(cur));
    ASSERT_LT(p.diff >> detail::HbPacketRoute::kLevelShift, n);
    ASSERT_LT(p.diff % route_bits, std::uint32_t{1} << (m + n));
    ASSERT_LT(p.wc, std::uint32_t{1} << (m + n));
    ASSERT_EQ(p.flags & kEngineFlags, kEngineFlags);
    ASSERT_EQ(route.done(p), st.done());
    if (st.done()) break;
    const HbHop hop = router.next_hop(cur, st);
    ASSERT_EQ(route.step(p), hop.gen);
    ASSERT_LT(p.hops, 255) << "hop count overflows its byte";
    ++p.hops;
    cur = hop.next;
  }
  ASSERT_EQ(cur, to);
}

TEST(HbPacketRoute, MatchesImplicitRouterFromIdentity) {
  for (unsigned n = 3; n <= 10; ++n) {
    const HyperButterfly hb(2, n);
    const detail::HbPacketRoute route(hb);
    const HbImplicitRouter router(hb);
    for (HbIndex t = 0; t < hb.num_nodes(); ++t) {
      detail::HbPacket p;
      p.flags = kEngineFlags;
      route.place(p, 0);
      HbNode cur = hb.node_at(0);
      const HbNode to = hb.node_at(t);
      ASSERT_NO_FATAL_FAILURE(step_side_by_side(hb, route, router, p, cur, to))
          << "HB(2," << n << ") e -> " << t;
      ASSERT_EQ(p.hops, hb.distance(hb.node_at(0), to));
    }
  }
}

// Valiant routes: src -> w, a re-plan at w, then w -> dst, on sampled
// triples. The two domain extremes, HB(6,20) (the longest walks: runs up
// to 30 steps) and HB(23,3) (the most cube bits), bound every packed field.
TEST(HbPacketRoute, MatchesImplicitRouterOnValiantRoutes) {
  for (const auto& [m, n] : {std::pair{2u, 5u}, std::pair{3u, 8u},
                             std::pair{6u, 20u}, std::pair{23u, 3u}}) {
    const HyperButterfly hb(m, n);
    const detail::HbPacketRoute route(hb);
    const HbImplicitRouter router(hb);
    std::mt19937_64 rng(m * 100 + n);
    std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
    for (int trial = 0; trial < 2000; ++trial) {
      const HbIndex src = pick(rng), w = pick(rng), dst = pick(rng);
      detail::HbPacket p;
      p.flags = kEngineFlags;
      route.place(p, static_cast<std::uint32_t>(src));
      HbNode cur = hb.node_at(src);
      ASSERT_NO_FATAL_FAILURE(
          step_side_by_side(hb, route, router, p, cur, hb.node_at(w)))
          << "HB(" << m << "," << n << ") " << src << " -> " << w;
      ASSERT_NO_FATAL_FAILURE(
          step_side_by_side(hb, route, router, p, cur, hb.node_at(dst)))
          << "HB(" << m << "," << n << ") " << w << " -> " << dst;
      ASSERT_LE(p.hops, 2 * hb.diameter_formula());
    }
  }
}

SimConfig sharded_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.08;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 4000;
  return cfg;
}

struct ShardedRun {
  SimStats stats;
  std::string metrics_json;
  std::string links_csv;
  std::string trace_json;
};

ShardedRun run_sharded(const HyperButterfly& hb, const SimConfig& cfg,
                       unsigned shards, unsigned threads) {
  obs::Sink sink;
  sink.enable_trace();
  ShardedRun r;
  r.stats = run_simulation_sharded(hb, cfg, shards, threads, &sink);
  std::ostringstream metrics, links, trace;
  sink.write_metrics_json(metrics);
  sink.write_links_csv(links);
  sink.trace()->write_json(trace);
  r.metrics_json = metrics.str();
  r.links_csv = links.str();
  r.trace_json = trace.str();
  return r;
}

TEST(ShardedSim, ConservationNoFaults) {
  const HyperButterfly hb(2, 3);
  const SimStats stats = run_simulation_sharded(hb, sharded_config());
  EXPECT_GT(stats.injected(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  // With a long drain, every measured packet is delivered.
  EXPECT_EQ(stats.delivered(), stats.injected());
}

TEST(ShardedSim, ResultsInvariantAcrossThreadsAndShards) {
  const HyperButterfly hb(2, 3);
  const SimConfig cfg = sharded_config();
  const ShardedRun base = run_sharded(hb, cfg, 1, 1);
  ASSERT_GT(base.stats.delivered(), 0u);
  for (const auto& [shards, threads] :
       {std::pair{3u, 2u}, std::pair{4u, 8u}, std::pair{0u, 0u}}) {
    const ShardedRun run = run_sharded(hb, cfg, shards, threads);
    EXPECT_EQ(run.stats.injected(), base.stats.injected());
    EXPECT_EQ(run.stats.delivered(), base.stats.delivered());
    EXPECT_EQ(run.stats.mean_latency(), base.stats.mean_latency());
    EXPECT_EQ(run.stats.mean_hops(), base.stats.mean_hops());
    EXPECT_EQ(run.metrics_json, base.metrics_json)
        << "shards=" << shards << " threads=" << threads;
    EXPECT_EQ(run.links_csv, base.links_csv)
        << "shards=" << shards << " threads=" << threads;
    // Packet spans leave in (node, FIFO) order whatever the sharding.
    EXPECT_EQ(run.trace_json, base.trace_json)
        << "shards=" << shards << " threads=" << threads;
  }
}

TEST(ShardedSim, ValiantConservesAndInflatesHops) {
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  const SimStats native = run_simulation_sharded(hb, cfg);
  cfg.routing = RoutingMode::kValiant;
  const ShardedRun a = run_sharded(hb, cfg, 1, 1);
  const ShardedRun b = run_sharded(hb, cfg, 4, 8);
  EXPECT_EQ(a.stats.delivered(), a.stats.injected());
  EXPECT_GT(a.stats.delivered(), 0u);
  // Routing through a random intermediate costs extra hops on average.
  EXPECT_GT(a.stats.mean_hops(), native.mean_hops());
  // The determinism contract holds in Valiant mode too (the re-plan at the
  // intermediate happens at service time, identically in every sharding).
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

TEST(ShardedSim, ZeroLoadLatencyTracksHops) {
  // At vanishing load, queueing is negligible: latency ~= hops.
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  cfg.injection_rate = 0.002;
  const SimStats stats = run_simulation_sharded(hb, cfg);
  ASSERT_GT(stats.delivered(), 0u);
  EXPECT_NEAR(stats.mean_latency(), stats.mean_hops(), 0.5);
}

TEST(ShardedSim, ServiceRateTwoRelievesContention) {
  const HyperButterfly hb(2, 3);
  SimConfig cfg = sharded_config();
  cfg.injection_rate = 0.2;
  const ShardedRun sr1 = run_sharded(hb, cfg, 1, 1);
  cfg.service_rate = 2;
  const ShardedRun a = run_sharded(hb, cfg, 1, 1);
  const ShardedRun b = run_sharded(hb, cfg, 4, 2);
  EXPECT_EQ(a.stats.delivered(), a.stats.injected());
  EXPECT_LE(a.stats.mean_latency(), sr1.stats.mean_latency());
  // Multi-slot emission (service_rate > 1) preserves the contract.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

// Exact SimStats recorded from the engine before its arena was compacted in
// place and its moves parked by index. The determinism tests above compare
// two runs of one build, so a datapath change that shifted every result at
// once would pass them; these pins would not. Both means are compared bit
// for bit.
struct PinnedStats {
  std::uint64_t injected, delivered, dropped, max_latency, p50, p99;
  std::uint64_t mean_latency_bits, mean_hops_bits;
};

void expect_pinned(const SimStats& s, const PinnedStats& want,
                   const std::string& what) {
  EXPECT_EQ(s.injected(), want.injected) << what;
  EXPECT_EQ(s.delivered(), want.delivered) << what;
  EXPECT_EQ(s.dropped(), want.dropped) << what;
  EXPECT_EQ(s.max_latency(), want.max_latency) << what;
  EXPECT_EQ(s.latency_percentile(0.5), want.p50) << what;
  EXPECT_EQ(s.latency_percentile(0.99), want.p99) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.mean_latency()),
            want.mean_latency_bits)
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.mean_hops()), want.mean_hops_bits)
      << what;
}

SimConfig congested_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.15;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 4000;
  cfg.seed = 7;
  return cfg;
}

TEST(ShardedSim, MatchesPinnedParentStatsUnderCongestion) {
  // HB(2,6) at rate 0.15: long queues, so at service_rate 1 (and in Valiant
  // mode at 2) keeper visits outnumber moves several times over.
  struct Case {
    unsigned service_rate;
    RoutingMode routing;
    PinnedStats want;
  };
  const Case cases[] = {
      {1, RoutingMode::kNative,
       {46345, 46345, 0, 104, 28, 66, 0x403d873e9439b0c1ull,
        0x4019ca3597803eedull}},
      {1, RoutingMode::kValiant,
       {46345, 46345, 0, 406, 232, 338, 0x406ba3aeaaf06daeull,
        0x4029c3348694e362ull}},
      {2, RoutingMode::kNative,
       {46345, 46345, 0, 16, 7, 12, 0x401d3b6e31ae5344ull,
        0x4019ca3597803eedull}},
      {2, RoutingMode::kValiant,
       {46345, 46345, 0, 93, 35, 67, 0x40422a646efbe555ull,
        0x4029c3348694e362ull}},
  };
  const HyperButterfly hb(2, 6);
  for (const Case& c : cases) {
    SimConfig cfg = congested_config();
    cfg.service_rate = c.service_rate;
    cfg.routing = c.routing;
    for (const unsigned shards : {1u, 3u, 8u}) {
      expect_pinned(run_simulation_sharded(hb, cfg, shards, 2), c.want,
                    "service_rate=" + std::to_string(c.service_rate) +
                        " valiant=" +
                        std::to_string(c.routing == RoutingMode::kValiant) +
                        " shards=" + std::to_string(shards));
    }
  }

  // Mid-run node deaths remove queued packets from the resident arena.
  const auto topo = make_hyper_butterfly_sim(2, 4);
  const std::vector<FaultEvent> events{{60, 5}, {60, 77}, {130, 200}};
  expect_pinned(
      run_simulation_with_fault_events(*topo, congested_config(), events),
      {7573, 7566, 7, 25, 8, 17, 0x401f2681407d9901ull, 0x40118e9548572914ull},
      "fault events");
}

/// FNV-1a over the bytes of `s`.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

SimConfig hotspot_fault_config() {
  SimConfig cfg = congested_config();
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.measure_cycles = 300;
  cfg.seed = 5;
  return cfg;
}

// Two deaths next to the hotspot on HB(2,4), in the one shard's keeper
// chain: node 3 holds 154 packets and node 5 holds 120 a cycle later, so
// each death erases keepers from three or more segments and compacts the
// survivors across their boundaries. Stats and the metrics JSON (links,
// node occupancy, time series, histograms) were recorded from the engine
// that kept its keepers in a vector.
TEST(ShardedSim, FaultEventsOnKeeperChainMatchPinnedParent) {
  const auto topo = make_hyper_butterfly_sim(2, 4);
  const std::vector<FaultEvent> events{{250, 3}, {251, 5}};
  obs::Sink sink;
  const SimStats stats = run_simulation_with_fault_events(
      *topo, hotspot_fault_config(), events, &sink);
  expect_pinned(stats,
                {11550, 11265, 285, 252, 8, 134, 0x40303fd5d269c36aull,
                 0x40119699ab0d9125ull},
                "hotspot deaths");
  std::ostringstream metrics;
  sink.write_metrics_json(metrics);
  EXPECT_EQ(metrics.str().size(), 122872u);
  EXPECT_EQ(fnv1a(metrics.str()), 0x0a8e0492aa9c1474ull);
  // The same run without a sink.
  expect_pinned(run_simulation_with_fault_events(
                    *topo, hotspot_fault_config(), events),
                {11550, 11265, 285, 252, 8, 134, 0x40303fd5d269c36aull,
                 0x40119699ab0d9125ull},
                "hotspot deaths, no sink");
}

TEST(SyncExchange, EraseIfKeepsSurvivorsInOrder) {
  sync::Exchange<int> ex(3);
  for (unsigned from = 0; from < 3; ++from) {
    for (int k = 0; k < 4; ++k) {
      const int base = static_cast<int>(from) * 100 + k;
      ex.push(from, 0, base);
      ex.push(from, 1, base + 10);
      ex.push(from, 2, base + 20);
    }
  }
  // Column 1 holds 10..13, 110..113, 210..213; the odd ones go.
  EXPECT_EQ(ex.erase_if(1, [](int m) { return m % 2 != 0; }), 6u);
  EXPECT_EQ(ex.erase_if(1, [](int) { return false; }), 0u);
  const auto drained = [&ex](unsigned to) {
    std::vector<int> got;
    ex.drain(to, [&got](int m) { got.push_back(m); });
    return got;
  };
  EXPECT_EQ(drained(1), (std::vector<int>{10, 12, 110, 112, 210, 212}));
  EXPECT_EQ(drained(0), (std::vector<int>{0, 1, 2, 3, 100, 101, 102, 103,
                                          200, 201, 202, 203}));
  EXPECT_EQ(drained(2), (std::vector<int>{20, 21, 22, 23, 120, 121, 122,
                                          123, 220, 221, 222, 223}));
  EXPECT_EQ(ex.in_flight(), 0u);
}

// Drains column `to` into a vector.
template <typename Msg>
std::vector<Msg> drain_all(sync::Exchange<Msg>& ex, unsigned to) {
  std::vector<Msg> got;
  ex.drain(to, [&got](const Msg& m) { got.push_back(m); });
  return got;
}

TEST(SyncExchange, CellsSpanningSegmentsKeepOrder) {
  using Ex = sync::Exchange<int>;
  constexpr int kSeg = static_cast<int>(Ex::kSegment);
  Ex ex(2);
  // Interleaved pushes into cells (0,1) and (1,1), 3 segments + 5 each.
  for (int k = 0; k < 3 * kSeg + 5; ++k) {
    ex.push(1, 1, 100000 + k);
    ex.push(0, 1, k);
  }
  EXPECT_EQ(ex.in_flight(), 2u * (3 * kSeg + 5));
  EXPECT_EQ(ex.lists()->segments(), 8u);
  EXPECT_TRUE(drain_all(ex, 0).empty());
  std::vector<int> want;
  for (int k = 0; k < 3 * kSeg + 5; ++k) want.push_back(k);
  for (int k = 0; k < 3 * kSeg + 5; ++k) want.push_back(100000 + k);
  EXPECT_EQ(drain_all(ex, 1), want);
  EXPECT_EQ(ex.in_flight(), 0u);
  // Every segment went back to the receiver's list, not the senders'.
  EXPECT_EQ(ex.lists()->free_segments(0), 0u);
  EXPECT_EQ(ex.lists()->free_segments(1), 8u);
  // Shard 1 pushes from its own list without allocating.
  for (int k = 0; k < 8 * kSeg; ++k) ex.push(1, 0, k);
  EXPECT_EQ(ex.lists()->segments(), 8u);
  EXPECT_EQ(ex.lists()->free_segments(1), 0u);
  const std::vector<int> back = drain_all(ex, 0);
  ASSERT_EQ(back.size(), 8u * kSeg);
  for (int k = 0; k < 8 * kSeg; ++k) ASSERT_EQ(back[k], k);
}

TEST(SyncExchange, EraseIfAcrossSegmentBoundaries) {
  using Ex = sync::Exchange<int>;
  constexpr int kSeg = static_cast<int>(Ex::kSegment);
  const int total = 4 * kSeg + 7;
  const auto fill = [&](Ex& ex) {
    for (int k = 0; k < total; ++k) ex.push(0, 0, k);
  };
  // Each case: what to erase; the survivors must keep their order, and the
  // emptied tail segments must go back to the list.
  struct Case {
    const char* what;
    bool (*erase)(int);
  };
  const Case cases[] = {
      {"none", [](int) { return false; }},
      {"all", [](int) { return true; }},
      {"odd", [](int m) { return m % 2 != 0; }},
      // Straddles the first boundary and empties a whole segment's worth.
      {"middle",
       [](int m) {
         return m >= static_cast<int>(Ex::kSegment) - 3 &&
                m < 2 * static_cast<int>(Ex::kSegment) + 2;
       }},
      // Leaves exactly two full segments.
      {"tail", [](int m) { return m >= 2 * static_cast<int>(Ex::kSegment); }},
      {"head", [](int m) { return m < static_cast<int>(Ex::kSegment); }},
  };
  for (const Case& c : cases) {
    Ex ex(1);
    fill(ex);
    EXPECT_EQ(ex.lists()->segments(), 5u) << c.what;
    std::vector<int> want;
    for (int k = 0; k < total; ++k) {
      if (!c.erase(k)) want.push_back(k);
    }
    const std::uint64_t erased = ex.erase_if(0, [&c](int m) {
      return c.erase(m);
    });
    EXPECT_EQ(erased, static_cast<std::uint64_t>(total) - want.size())
        << c.what;
    EXPECT_EQ(ex.in_flight(), want.size()) << c.what;
    const std::uint64_t used = (want.size() + kSeg - 1) / kSeg;
    EXPECT_EQ(ex.lists()->free_segments(0), 5u - used) << c.what;
    // The cell keeps taking pushes behind the survivors.
    ex.push(0, 0, -1);
    want.push_back(-1);
    EXPECT_EQ(drain_all(ex, 0), want) << c.what;
    EXPECT_EQ(ex.lists()->segments(), 5u) << c.what;
    EXPECT_EQ(ex.lists()->free_segments(0), 5u) << c.what;
  }
}

// The packet engine's keepers: one chain per shard on the exchange's lists,
// compacted in place by keep_if. Each case keeps a different subset of
// 4 segments + 7; the survivors must keep their order, the emptied tail
// segments must go back to the list, and later pushes land behind the
// survivors without allocating.
TEST(SyncExchange, KeeperChainCompactsAcrossSegmentBoundaries) {
  using Chain = sync::SegmentChain<int>;
  constexpr int kSeg = static_cast<int>(Chain::kSegment);
  const int total = 4 * kSeg + 7;
  struct Case {
    const char* what;
    bool (*keep)(int);
  };
  const Case cases[] = {
      {"none", [](int) { return false; }},
      {"all", [](int) { return true; }},
      {"odd", [](int m) { return m % 2 != 0; }},
      // Straddles the second boundary: the tail of segment 1 and the head
      // of segment 2.
      {"straddling",
       [](int m) {
         return m >= 2 * static_cast<int>(Chain::kSegment) - 5 &&
                m < 2 * static_cast<int>(Chain::kSegment) + 3;
       }},
      // Exactly one segment's worth, from inside two segments.
      {"one segment",
       [](int m) {
         return m >= static_cast<int>(Chain::kSegment) / 2 &&
                m < 3 * static_cast<int>(Chain::kSegment) / 2;
       }},
  };
  for (const Case& c : cases) {
    sync::SegmentLists<int> lists(2);
    Chain chain;
    for (int k = 0; k < total; ++k) chain.push(lists, 1, k);
    EXPECT_EQ(lists.segments(), 5u) << c.what;
    std::vector<int> want, seen;
    for (int k = 0; k < total; ++k) {
      if (c.keep(k)) want.push_back(k);
    }
    const std::uint64_t removed = chain.keep_if(lists, 1, [&](int m) {
      seen.push_back(m);
      return c.keep(m);
    });
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(total)) << c.what;
    for (int k = 0; k < total; ++k) ASSERT_EQ(seen[k], k) << c.what;
    EXPECT_EQ(removed, static_cast<std::uint64_t>(total) - want.size())
        << c.what;
    EXPECT_EQ(chain.size(), want.size()) << c.what;
    const std::uint64_t used = (want.size() + kSeg - 1) / kSeg;
    EXPECT_EQ(lists.free_segments(1), 5u - used) << c.what;
    EXPECT_EQ(lists.free_segments(0), 0u) << c.what;
    // A second pass that keeps everything moves nothing.
    EXPECT_EQ(chain.keep_if(lists, 1, [](int) { return true; }), 0u)
        << c.what;
    // Pushes go on behind the survivors, from the freed segments.
    for (int k = 0; k < kSeg + 1; ++k) {
      chain.push(lists, 1, -k);
      want.push_back(-k);
    }
    std::vector<int> got;
    chain.drain(lists, 1, [&got](int m) { got.push_back(m); });
    EXPECT_EQ(got, want) << c.what;
    EXPECT_EQ(chain.size(), 0u) << c.what;
    const std::uint64_t needed = (want.size() + kSeg - 1) / kSeg;
    EXPECT_EQ(lists.segments(), std::max<std::uint64_t>(5u, needed))
        << c.what;
    EXPECT_EQ(lists.free_segments(1), lists.segments()) << c.what;
  }
}

// drain() gives each segment back once it has been visited, so a chain
// refilled from the one being drained (arrivals that become keepers) runs on
// the same segments: one more than the drained chain held, not twice as
// many.
TEST(SyncExchange, DrainedSegmentsFeedPushesFromTheSameList) {
  using Chain = sync::SegmentChain<std::uint32_t>;
  constexpr auto kSeg = static_cast<std::uint32_t>(Chain::kSegment);
  sync::SegmentLists<std::uint32_t> lists(1);
  Chain from, to;
  for (std::uint32_t k = 0; k < 6 * kSeg; ++k) from.push(lists, 0, k);
  ASSERT_EQ(lists.segments(), 6u);
  std::vector<std::uint32_t> got;
  from.drain(lists, 0, [&](std::uint32_t m) {
    to.push(lists, 0, m);
    got.push_back(m);
  });
  EXPECT_EQ(lists.segments(), 7u);
  EXPECT_EQ(lists.free_segments(0), 1u);
  EXPECT_EQ(from.size(), 0u);
  ASSERT_EQ(to.size(), 6u * kSeg);
  for (std::uint32_t k = 0; k < 6 * kSeg; ++k) ASSERT_EQ(got[k], k);
  to.clear(lists, 0);
  EXPECT_EQ(lists.free_segments(0), 7u);
}

// An inbox and an outbox on one set of lists, driven like the packet
// engine: each shard drains its inbox column, then pushes its row of the
// outbox, and the two swap at the barrier. The flow is skewed (every shard
// sends most of its messages to shard 0), so shard 0's list gains segments
// every cycle and the others' lose them until rebalance() levels them.
TEST(SyncExchange, SharedListsAlternatePushAndDrain) {
  using Ex = sync::Exchange<std::uint32_t>;
  constexpr unsigned kShards = 3;
  constexpr auto kSeg = static_cast<std::uint32_t>(Ex::kSegment);
  Ex inbox(kShards);
  Ex outbox(inbox.lists());
  ASSERT_EQ(outbox.lists(), inbox.lists());
  // Message id = (cycle, from, to, k), pushed k-ascending per cell.
  const auto id = [](std::uint32_t cycle, unsigned from, unsigned to,
                     std::uint32_t k) {
    return (cycle << 24) | (from << 20) | (to << 16) | k;
  };
  const auto count = [&](std::uint32_t cycle, unsigned from, unsigned to) {
    const std::uint32_t base = to == 0 ? 3 * kSeg : kSeg / 2;
    return base + (cycle + from + to) % 3 * (kSeg / 2);
  };
  std::uint64_t after_warmup = 0;
  for (std::uint32_t cycle = 0; cycle < 40; ++cycle) {
    for (unsigned s = 0; s < kShards; ++s) {
      std::vector<std::uint32_t> want;
      if (cycle > 0) {
        for (unsigned from = 0; from < kShards; ++from) {
          for (std::uint32_t k = 0; k < count(cycle - 1, from, s); ++k) {
            want.push_back(id(cycle - 1, from, s, k));
          }
        }
      }
      ASSERT_EQ(drain_all(inbox, s), want) << "cycle " << cycle;
      for (unsigned to = 0; to < kShards; ++to) {
        for (std::uint32_t k = 0; k < count(cycle, s, to); ++k) {
          outbox.push(s, to, id(cycle, s, to, k));
        }
      }
    }
    std::swap(inbox, outbox);
    ASSERT_EQ(outbox.in_flight(), 0u);
    inbox.lists()->rebalance();
    std::uint64_t free_total = 0, free_min = ~0ull, free_max = 0;
    for (unsigned s = 0; s < kShards; ++s) {
      const std::uint64_t f = inbox.lists()->free_segments(s);
      free_total += f;
      free_min = std::min(free_min, f);
      free_max = std::max(free_max, f);
    }
    EXPECT_LE(free_max - free_min, 1u) << "cycle " << cycle;
    std::uint64_t live = 0;  // segments holding this cycle's messages
    for (unsigned from = 0; from < kShards; ++from) {
      for (unsigned to = 0; to < kShards; ++to) {
        live += (count(cycle, from, to) + kSeg - 1) / kSeg;
      }
    }
    EXPECT_EQ(inbox.lists()->segments(), free_total + live)
        << "cycle " << cycle;
    if (cycle == 19) after_warmup = inbox.lists()->segments();
  }
  // The skew is periodic, so once the lists have leveled nothing more is
  // allocated.
  EXPECT_EQ(inbox.lists()->segments(), after_warmup);
}

// Hotspot traffic sends a tenth of all packets to node 0, so shard 0 drains
// far more segments than it pushes, every cycle. Without the rebalance at
// the barrier the other shards allocate what shard 0 hoards and the count
// climbs for the whole run. With it, the count is flat over the second half
// and below the bound the leveling guarantees: with S shards, N messages
// per segment and at most P moves in flight, a shard takes at most
// C = P/N + S segments in a cycle, so after the last cycle that allocates
// the total is at most the live segments (P/N + S^2) plus the free ones
// (< S*C) plus that cycle's allocations (<= S*C).
TEST(ShardedSim, ExchangeSegmentsStayBoundedUnderHotspot) {
  const HyperButterfly hb(2, 10);
  constexpr unsigned kShards = 4;
  SimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.injection_rate = 0.0005;
  cfg.warmup_cycles = 0;
  cfg.drain_cycles = 0;
  const auto footprint = [&](std::uint64_t cycles) {
    SimConfig c = cfg;
    c.measure_cycles = cycles;
    obs::ProgressBoard board;
    (void)run_simulation_sharded(hb, c, kShards, 4, nullptr, &board);
    return std::pair{board.slot("sim.exchange_segments").value(),
                     board.slot("sim.exchange_peak_moves").value()};
  };
  const auto [half, half_peak] = footprint(10000);
  const auto [full, peak] = footprint(20000);
  ASSERT_GT(half, 0u);
  ASSERT_GT(peak, 0u);
  EXPECT_GE(peak, half_peak);
  constexpr std::uint64_t kSeg = sync::SegmentLists<detail::HbPacket>::kSegment;
  const std::uint64_t per_shard = (peak + kSeg - 1) / kSeg + kShards;
  const std::uint64_t bound = (peak + kSeg - 1) / kSeg + kShards * kShards +
                              2 * kShards * per_shard;
  EXPECT_EQ(full, half) << "segments grew over the second half";
  EXPECT_LE(full, bound) << "peak moves in flight " << peak;
}

TEST(ShardedSim, HotspotResultsInvariantAcrossThreadsAndShards) {
  const HyperButterfly hb(2, 5);
  SimConfig cfg = sharded_config();
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.injection_rate = 0.05;
  const ShardedRun base = run_sharded(hb, cfg, 1, 1);
  ASSERT_GT(base.stats.delivered(), 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned shards : {1u, 4u, 0u}) {
      const ShardedRun run = run_sharded(hb, cfg, shards, threads);
      const std::string what = "shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(run.stats.injected(), base.stats.injected()) << what;
      EXPECT_EQ(run.stats.delivered(), base.stats.delivered()) << what;
      EXPECT_EQ(run.metrics_json, base.metrics_json) << what;
      EXPECT_EQ(run.links_csv, base.links_csv) << what;
      EXPECT_EQ(run.trace_json, base.trace_json) << what;
    }
  }
}

#if HBNET_TRACE
struct OccupancyTally {
  std::uint64_t occupancy = 0;     // sum over nodes of node_occupancy
  std::uint64_t counter_sum = 0;   // sum over cycles of in_flight_packets
  std::uint64_t last_in_flight = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t lost = 0;          // node_death lost_packets, summed
};

OccupancyTally tally_occupancy(const obs::Sink& sink) {
  OccupancyTally t;
  for (const std::uint64_t v : sink.node_occupancy()) t.occupancy += v;
  for (const obs::TraceEvent& ev : sink.trace()->events()) {
    for (const auto& [key, value] : ev.args) {
      if (ev.name == "in_flight_packets" && key == "value") {
        t.counter_sum += value;
        t.last_in_flight = value;
        t.peak_in_flight = std::max<std::uint64_t>(t.peak_in_flight, value);
      }
      if (ev.name == "node_death" && key == "lost_packets") t.lost += value;
    }
  }
  return t;
}

// A packet counts toward node_occupancy[v] once for every cycle it ends at
// v, and toward the in_flight_packets counter once for every cycle it ends
// in flight, so the two sums agree. Arrivals wait in the inbox until the
// next cycle's sweep, so this pins that each is counted exactly once even
// when a node death erases it or the horizon stops the run first.
TEST(ShardedSim, NodeOccupancyIntegratesInFlightCounter) {
  const HyperButterfly hb(2, 4);
  SimConfig cfg = congested_config();
  cfg.measure_cycles = 80;

  SimConfig cut = cfg;  // the horizon stops the run with packets in flight
  cut.drain_cycles = 2;
  for (const SimConfig& c : {cfg, cut}) {
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const unsigned shards : {1u, 4u, 0u}) {
        obs::Sink sink;
        sink.enable_trace();
        (void)run_simulation_sharded(hb, c, shards, threads, &sink);
        const OccupancyTally t = tally_occupancy(sink);
        const std::string what = "drain=" + std::to_string(c.drain_cycles) +
                                 " threads=" + std::to_string(threads) +
                                 " shards=" + std::to_string(shards);
        EXPECT_GT(t.occupancy, 0u) << what;
        EXPECT_EQ(t.occupancy, t.counter_sum) << what;
        EXPECT_EQ(t.last_in_flight > 0, c.drain_cycles == 2) << what;
      }
    }
  }

  // The path router with static faults and with node deaths. At the
  // largest service rate no packet ever waits, so every packet a death
  // takes is an arrival still in the inbox.
  const auto topo = make_hyper_butterfly_sim(2, 4);
  std::vector<char> faulty(topo->num_nodes(), 0);
  faulty[3] = faulty[100] = faulty[201] = 1;
  std::vector<FaultEvent> deaths;
  for (std::uint32_t k = 0; k < 24; ++k) {
    deaths.push_back({40 + k, (k * 37 + 11) % topo->num_nodes()});
  }
  for (const SimConfig& base : {cfg, cut}) {
    SimConfig busy = base;
    busy.service_rate = 255;
    for (const SimConfig& c : {base, busy}) {
      obs::Sink static_sink, event_sink;
      static_sink.enable_trace();
      event_sink.enable_trace();
      (void)run_simulation(*topo, c, faulty, &static_sink);
      (void)run_simulation_with_fault_events(*topo, c, deaths, &event_sink);
      const OccupancyTally st = tally_occupancy(static_sink);
      const OccupancyTally ev = tally_occupancy(event_sink);
      const std::string what = "drain=" + std::to_string(c.drain_cycles) +
                               " service_rate=" +
                               std::to_string(c.service_rate);
      EXPECT_EQ(st.occupancy, st.counter_sum) << what;
      EXPECT_EQ(ev.occupancy, ev.counter_sum) << what;
      EXPECT_GT(ev.lost, 0u) << what;
      EXPECT_EQ(ev.last_in_flight > 0, c.drain_cycles == 2) << what;
    }
  }
}

// Hotspot traffic past what node 0's neighbours can forward: their queues
// grow for the whole run, so keepers outnumber the moves in flight many
// times over. The keepers draw on the exchange's segment lists, so
// sim.exchange_segments counts them too, and it stays within the leveling
// slack of the packets held: with S shards, N messages per segment, at most
// H packets held and P moves in flight at a barrier, the live segments are
// at most H/N + S^2 + S (a partial segment per cell and per keeper chain),
// and a shard takes at most C = P/N + S + 2 segments in a cycle (its outbox
// row, a keeper tail and the cycle's injections, under a segment per shard
// here), so the total stays below the live segments plus 2 S C. The slack
// does not grow with H.
TEST(ShardedSim, KeeperSegmentsFollowPacketsHeldUnderHotspot) {
  const HyperButterfly hb(2, 8);
  constexpr unsigned kShards = 4;
  constexpr std::uint64_t kSeg =
      sync::SegmentLists<detail::HbPacket>::kSegment;
  SimConfig cfg;
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.injection_rate = 0.008;
  cfg.warmup_cycles = 0;
  cfg.drain_cycles = 0;
  std::uint64_t last_held = 0;
  for (const std::uint64_t cycles : {800u, 1600u}) {
    cfg.measure_cycles = cycles;
    obs::ProgressBoard board;
    obs::Sink sink;
    sink.enable_trace();
    (void)run_simulation_sharded(hb, cfg, kShards, 4, &sink, &board);
    const OccupancyTally t = tally_occupancy(sink);
    const std::uint64_t held = t.peak_in_flight;
    const std::uint64_t keepers = board.slot("sim.keepers").value();
    const std::uint64_t moves = board.slot("sim.exchange_peak_moves").value();
    const std::uint64_t segments =
        board.slot("sim.exchange_segments").value();
    const std::string what = "cycles=" + std::to_string(cycles) +
                             " held=" + std::to_string(held) +
                             " keepers=" + std::to_string(keepers) +
                             " moves=" + std::to_string(moves);
    // Keeper-heavy: some node queued more than four segments of packets on
    // average over the run, and the keepers at the end outnumber the most
    // moves ever in flight.
    const std::uint64_t busiest = *std::max_element(
        sink.node_occupancy().begin(), sink.node_occupancy().end());
    EXPECT_GT(busiest, 4 * kSeg * cycles) << what;
    EXPECT_GT(keepers, 3 * moves) << what;
    EXPECT_GT(held, last_held) << what;
    last_held = held;
    EXPECT_EQ(board.slot("sim.in_flight_packets").value(), t.last_in_flight)
        << what;
    EXPECT_GE(segments, (keepers + kSeg - 1) / kSeg) << what;
    const std::uint64_t live = (held + kSeg - 1) / kSeg + kShards * kShards +
                               kShards;
    const std::uint64_t per_shard = (moves + kSeg - 1) / kSeg + kShards + 2;
    EXPECT_LE(segments, live + 2 * kShards * per_shard) << what;
  }
}
#endif

}  // namespace
}  // namespace hbnet

// Packet simulator: conservation laws, zero-load latency, contention
// behavior, determinism and fault handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/hyper_butterfly.hpp"
#include "graph/bfs.hpp"
#include "obs/sink.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"

namespace hbnet {
namespace {

SimConfig light_config() {
  SimConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 5000;
  return cfg;
}

TEST(SimTopology, HyperButterflyRouteEqualsCoreRouteOnEveryPair) {
  // The adapter and HyperButterfly::route both walk HbImplicitRouter, so
  // the node sequences are anchored by
  // Routing.RouteWordsMatchPinnedParentDigests; here each adapter route must
  // also end at dst after exactly distance() hops.
  for (auto [m, n] : {std::pair{1u, 3u}, std::pair{2u, 4u}}) {
    const HyperButterfly hb(m, n);
    auto topo = make_hyper_butterfly_sim(m, n);
    const auto nodes = static_cast<std::uint32_t>(hb.num_nodes());
    for (std::uint32_t src = 0; src < nodes; ++src) {
      for (std::uint32_t dst = 0; dst < nodes; ++dst) {
        std::vector<std::uint32_t> want;
        for (const HbNode& v : hb.route(hb.node_at(src), hb.node_at(dst))) {
          want.push_back(static_cast<std::uint32_t>(hb.index_of(v)));
        }
        const std::vector<std::uint32_t> got = topo->route(src, dst);
        ASSERT_EQ(got, want)
            << "HB(" << m << "," << n << ") " << src << " -> " << dst;
        ASSERT_EQ(got.back(), dst);
        ASSERT_EQ(got.size(),
                  hb.distance(hb.node_at(src), hb.node_at(dst)) + 1);
      }
    }
  }
}

/// Everything a store-and-forward run exports, as text.
struct Exported {
  std::string stats, metrics_json, links_csv, trace_json;
};

Exported exported(const SimStats& s, const obs::Sink& sink) {
  std::ostringstream stats, metrics, links, trace;
  stats << s.summary() << " injected=" << s.injected()
        << " dropped=" << s.dropped() << " max=" << s.max_latency();
  sink.write_metrics_json(metrics);
  sink.write_links_csv(links);
  sink.trace()->write_json(trace);
  return {stats.str(), metrics.str(), links.str(), trace.str()};
}

TEST(Simulator, HbAdapterMatchesImplicitRouter) {
  // The HB adapter's route() walks the same HbImplicitRouter hops, so the
  // path router on make_hyper_butterfly_sim and the HB router must agree
  // byte for byte: stats, metrics, links and trace spans.
  for (auto [m, n] : {std::pair{2u, 3u}, std::pair{1u, 4u}}) {
    for (const RoutingMode mode :
         {RoutingMode::kNative, RoutingMode::kValiant}) {
      SimConfig cfg = light_config();
      cfg.injection_rate = 0.08;
      cfg.routing = mode;
      obs::Sink path_sink, hb_sink;
      path_sink.enable_trace();
      hb_sink.enable_trace();
      const SimStats path =
          run_simulation(*make_hyper_butterfly_sim(m, n), cfg, {}, &path_sink);
      const SimStats hb =
          run_simulation_sharded(HyperButterfly(m, n), cfg, 1, 1, &hb_sink);
      ASSERT_GT(path.delivered(), 0u);
      const Exported a = exported(path, path_sink);
      const Exported b = exported(hb, hb_sink);
      const std::string what = "HB(" + std::to_string(m) + "," +
                               std::to_string(n) + ") " +
                               (mode == RoutingMode::kValiant ? "valiant"
                                                              : "native");
      EXPECT_EQ(a.stats, b.stats) << what;
      EXPECT_EQ(a.metrics_json, b.metrics_json) << what;
      EXPECT_EQ(a.links_csv, b.links_csv) << what;
      EXPECT_EQ(a.trace_json, b.trace_json) << what;
    }
  }
}

TEST(Simulator, ConservationNoFaults) {
  auto topo = make_hyper_butterfly_sim(2, 3);
  SimStats stats = run_simulation(*topo, light_config());
  EXPECT_GT(stats.injected(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  // With a long drain, every measured packet is delivered.
  EXPECT_EQ(stats.delivered(), stats.injected());
}

TEST(Simulator, ZeroLoadLatencyTracksHops) {
  // At vanishing load, queueing is negligible: latency ~= hops.
  auto topo = make_hyper_butterfly_sim(2, 3);
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.002;
  SimStats stats = run_simulation(*topo, cfg);
  ASSERT_GT(stats.delivered(), 0u);
  EXPECT_NEAR(stats.mean_latency(), stats.mean_hops(), 0.5);
}

TEST(Simulator, MeanHopsMatchesAverageDistanceUnderUniform) {
  auto topo = make_hypercube_sim(6);
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.01;
  cfg.measure_cycles = 2000;
  SimStats stats = run_simulation(*topo, cfg);
  // Uniform traffic on H_6: expected distance m/2 * (N/(N-1)) ~ 3.05.
  ASSERT_GT(stats.delivered(), 500u);
  EXPECT_NEAR(stats.mean_hops(), 3.05, 0.3);
}

TEST(Simulator, LatencyGrowsWithLoad) {
  auto topo = make_butterfly_sim(4);
  SimConfig low = light_config();
  low.injection_rate = 0.01;
  SimConfig high = light_config();
  high.injection_rate = 0.25;
  double lat_low = run_simulation(*topo, low).mean_latency();
  double lat_high = run_simulation(*topo, high).mean_latency();
  EXPECT_GT(lat_high, lat_low);
}

TEST(Simulator, DeterministicForFixedSeed) {
  auto topo = make_hyper_debruijn_sim(2, 3);
  SimConfig cfg = light_config();
  SimStats a = run_simulation(*topo, cfg);
  SimStats b = run_simulation(*topo, cfg);
  EXPECT_EQ(a.delivered(), b.delivered());
  EXPECT_DOUBLE_EQ(a.mean_latency(), b.mean_latency());
}

TEST(Simulator, FaultsRerouteOnHb) {
  auto topo = make_hyper_butterfly_sim(2, 3);
  std::vector<char> faulty(topo->num_nodes(), 0);
  // m+3 = 5 faults: within the Theorem-5 guarantee, so every packet whose
  // endpoints are alive still gets a path -- no drops.
  for (std::uint32_t f : {5u, 17u, 40u, 63u, 80u}) faulty[f] = 1;
  SimConfig cfg = light_config();
  SimStats stats = run_simulation(*topo, cfg, faulty);
  EXPECT_GT(stats.delivered(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.delivered(), stats.injected());
}

TEST(Simulator, FaultsDropOnTopologyWithoutFtRouting) {
  auto topo = make_hypercube_sim(4);
  std::vector<char> faulty(topo->num_nodes(), 0);
  faulty[3] = 1;
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.2;
  SimStats stats = run_simulation(*topo, cfg, faulty);
  // Hypercube adapter has no fault-tolerant routing: packets whose route
  // would need computation are dropped at injection.
  EXPECT_GT(stats.dropped(), 0u);
}

TEST(Simulator, TrafficPatternsProduceValidDestinations) {
  for (TrafficPattern p :
       {TrafficPattern::kUniform, TrafficPattern::kBitComplement,
        TrafficPattern::kBitReversal, TrafficPattern::kShuffle,
        TrafficPattern::kHotspot}) {
    TrafficGenerator gen(p, 96, 123);
    for (std::uint32_t src = 0; src < 96; src += 7) {
      std::uint32_t dst = gen.destination(src);
      EXPECT_LT(dst, 96u) << to_string(p);
      EXPECT_NE(dst, src) << to_string(p);
    }
  }
}

TEST(Simulator, DynamicFaultEventsRerouteOnHb) {
  // Kill nodes mid-run: HB re-source-routes in flight; every measured
  // packet is either delivered or explicitly dropped (conservation), and
  // with few faults drops stay rare.
  auto topo = make_hyper_butterfly_sim(2, 3);
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.05;
  std::vector<FaultEvent> events{{120, 7}, {150, 33}, {180, 61}};
  SimStats stats = run_simulation_with_fault_events(*topo, cfg, events);
  EXPECT_GT(stats.delivered(), 0u);
  EXPECT_EQ(stats.delivered() + stats.dropped(), stats.injected());
  // 3 faults <= m+3: online repair should keep drops to the packets queued
  // at dying nodes only -- a tiny fraction.
  EXPECT_LT(static_cast<double>(stats.dropped()),
            0.05 * static_cast<double>(stats.injected()) + 5);
}

TEST(Simulator, DynamicFaultsOnDeadDestinationDrop) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.2;
  // Kill many nodes early so some destinations die with packets en route.
  std::vector<FaultEvent> events;
  for (std::uint32_t v = 0; v < 12; ++v) {
    events.push_back({60 + 2 * v, v * 3});
  }
  SimStats stats = run_simulation_with_fault_events(*topo, cfg, events);
  EXPECT_EQ(stats.delivered() + stats.dropped(), stats.injected());
}

TEST(Simulator, FaultEventLosesPacketsQueuedAtDyingNode) {
  // Heavy load builds queues; the node that dies mid-run takes its queue
  // with it. With no warmup every packet is measured, so the drops are
  // exactly the lost packets plus the routing drops.
  auto topo = make_hyper_butterfly_sim(1, 3);
  SimConfig cfg = light_config();
  cfg.warmup_cycles = 0;
  cfg.injection_rate = 0.3;
  obs::Sink sink;
  sink.enable_trace();
  const SimStats stats = run_simulation_with_fault_events(
      *topo, cfg, {{100, 5}, {140, 30}}, &sink);
  EXPECT_EQ(stats.delivered() + stats.dropped(), stats.injected());
#if HBNET_TRACE
  std::uint64_t lost = 0, deaths = 0;
  for (const obs::TraceEvent& ev : sink.trace()->events()) {
    if (ev.name != "node_death") continue;
    ++deaths;
    for (const auto& [key, value] : ev.args) {
      if (key == "lost_packets") lost += value;
    }
  }
  EXPECT_EQ(deaths, 2u);
  EXPECT_GT(lost, 0u);
  const auto counter = [&](const char* name) {
    const obs::Counter* c = sink.metrics().find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value();
  };
  EXPECT_EQ(stats.dropped(), lost + counter("sim.dropped_unroutable") +
                                 counter("sim.dropped_unsupported"));
#endif
}

TEST(Simulator, FaultEventsWithoutFtRoutingDropAtInjection) {
  // Once a node dies on a topology without fault routing, every later
  // injection fails its plan and is counted as unsupported -- never routed
  // natively into the fault. The death comes at cycle 50 of 300, so most
  // packets are dropped.
  auto topo = make_hypercube_sim(4);
  SimConfig cfg = light_config();
  cfg.warmup_cycles = 0;
  obs::Sink sink;
  const SimStats stats =
      run_simulation_with_fault_events(*topo, cfg, {{50, 3}}, &sink);
  const obs::Counter* unsupported =
      sink.metrics().find_counter("sim.dropped_unsupported");
  ASSERT_NE(unsupported, nullptr);
  EXPECT_GT(unsupported->value(), stats.injected() / 2);
  EXPECT_LT(stats.delivered() * 2, stats.injected());
  EXPECT_EQ(stats.delivered() + stats.dropped(), stats.injected());
}

TEST(Simulator, ValiantPacketAtItsDestinationDeliversWhenNextHopDies) {
  // A Valiant packet whose first leg src -> w passes through dst sits at
  // dst mid-route. If its next hop dies then, the re-plan finds it already
  // home: it is delivered there with the hops it took, and no link out of
  // dst is counted. Scans seeds for a run that injects exactly one such
  // packet, with the engine's own traffic draw (seed ^ 0x9e3779b97f4a7c15).
  auto topo = make_hyper_butterfly_sim(1, 3);
  const std::uint32_t n = topo->num_nodes();
  SimConfig cfg;
  cfg.injection_rate = 1.0 / n;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1;
  cfg.drain_cycles = 100;
  cfg.routing = RoutingMode::kValiant;
  std::uint32_t src = 0, dst = 0, w = 0, k = 0;
  std::vector<std::uint32_t> leg;
  for (cfg.seed = 1; cfg.seed < 10000; ++cfg.seed) {
    const StatelessTraffic traffic(cfg.pattern, n,
                                   cfg.seed ^ 0x9e3779b97f4a7c15ull,
                                   cfg.injection_rate);
    const StatelessTraffic::CycleView tv = traffic.at(0);
    std::vector<std::uint32_t> injecting;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (tv.injects(v)) injecting.push_back(v);
    }
    if (injecting.size() != 1) continue;
    src = injecting[0];
    dst = tv.destination(src);
    w = tv.intermediate(src);
    if (w == src || w == dst) continue;
    leg = topo->route(src, w);
    for (std::uint32_t i = 1; i + 1 < leg.size(); ++i) {
      if (leg[i] == dst) k = i;
    }
    if (k != 0) break;
  }
  ASSERT_NE(k, 0u) << "no seed injects one packet through its destination";

  // The fault-free run takes both legs: the prediction above is the run.
  const SimStats full = run_simulation(*topo, cfg);
  ASSERT_EQ(full.injected(), 1u);
  EXPECT_EQ(full.mean_hops(),
            static_cast<double>(leg.size() - 1 + topo->route(w, dst).size() -
                                1));

  // Kill the hop after dst before the packet gets there.
  obs::Sink sink;
  const SimStats stats = run_simulation_with_fault_events(
      *topo, cfg, {{1, leg[k + 1]}}, &sink);
  ASSERT_EQ(stats.injected(), 1u);
  EXPECT_EQ(stats.delivered(), 1u);
  EXPECT_EQ(stats.mean_hops(), static_cast<double>(k));
  const obs::Counter* moves = sink.metrics().find_counter("sim.packet_moves");
  ASSERT_NE(moves, nullptr);
  EXPECT_EQ(moves->value(), k);
  for (const obs::LinkStats& l : sink.links()) EXPECT_NE(l.src, dst);
}

TEST(Simulator, ValiantOnHyperDeBruijnConserves) {
  auto topo = make_hyper_debruijn_sim(2, 3);
  SimConfig cfg = light_config();
  cfg.routing = RoutingMode::kValiant;
  const SimStats stats = run_simulation(*topo, cfg);
  EXPECT_GT(stats.injected(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.delivered(), stats.injected());
}

TEST(Simulator, ValiantModeConservesAndStretches) {
  auto topo = make_hyper_butterfly_sim(2, 3);
  SimConfig cfg = light_config();
  cfg.injection_rate = 0.01;
  SimStats native = run_simulation(*topo, cfg);
  cfg.routing = RoutingMode::kValiant;
  SimStats valiant = run_simulation(*topo, cfg);
  EXPECT_EQ(valiant.delivered(), valiant.injected());
  EXPECT_EQ(valiant.dropped(), 0u);
  // Valiant pays roughly double the hops at low load.
  EXPECT_GT(valiant.mean_hops(), native.mean_hops() * 1.3);
  EXPECT_LT(valiant.mean_hops(), native.mean_hops() * 3.0);
}

TEST(Simulator, StatsPercentiles) {
  SimStats s;
  for (std::uint64_t l = 1; l <= 100; ++l) s.record_delivery(l, l);
  EXPECT_EQ(s.latency_percentile(0.0), 1u);
  EXPECT_EQ(s.latency_percentile(1.0), 100u);
  EXPECT_EQ(s.max_latency(), 100u);
  EXPECT_NEAR(s.mean_latency(), 50.5, 1e-9);
}

}  // namespace
}  // namespace hbnet

// Determinism contract of the rewritten wormhole datapath: the simulation
// is a pure function of (topology, config, ring arity). Same seed =>
// identical WormholeStats -- across repeated runs, with or without an
// attached obs::Sink, and regardless of the process-wide thread default
// (the datapath is single-threaded by design). Also locks down the
// incremental telemetry identities: per-VC occupancy integrals must sum to
// the global buffered-flit-cycles counter, and per-link forwarded counts
// to the flits_forwarded counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/sink.hpp"
#include "par/pool.hpp"
#include "sim/topology.hpp"
#include "sim/wormhole.hpp"

namespace hbnet {
namespace {

struct StatsSnapshot {
  std::uint64_t injected, delivered, cycles, p50, p99, max_latency;
  double mean_latency, mean_hops;
  bool deadlocked;
  std::uint64_t misroutes, escape_hops, unroutable;
  friend bool operator==(const StatsSnapshot&, const StatsSnapshot&) = default;
  friend void PrintTo(const StatsSnapshot& s, std::ostream* os) {
    *os << std::setprecision(17) << "{" << s.injected << ", " << s.delivered
        << ", " << s.cycles << ", " << s.p50 << ", " << s.p99 << ", "
        << s.max_latency << ", " << s.mean_latency << ", " << s.mean_hops
        << ", " << s.deadlocked << ", " << s.misroutes << ", "
        << s.escape_hops << ", " << s.unroutable << "}";
  }
};

StatsSnapshot snapshot(const WormholeStats& s) {
  return {s.packets.injected(),
          s.packets.delivered(),
          s.cycles,
          s.packets.latency_percentile(0.5),
          s.packets.latency_percentile(0.99),
          s.packets.max_latency(),
          s.packets.mean_latency(),
          s.packets.mean_hops(),
          s.deadlocked,
          s.misroutes,
          s.escape_hops,
          s.unroutable};
}

WormholeConfig moderate_config(std::uint64_t seed) {
  WormholeConfig cfg;
  cfg.vcs = 6;
  cfg.injection_rate = 0.08;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 60000;
  cfg.seed = seed;
  return cfg;
}

TEST(WormholeDeterminism, SameSeedSameStats) {
  auto topo = make_butterfly_sim(4);
  for (std::uint64_t seed : {1u, 42u, 1234u}) {
    const WormholeConfig cfg = moderate_config(seed);
    const StatsSnapshot first = snapshot(run_wormhole(*topo, cfg, 4));
    EXPECT_GT(first.delivered, 0u);
    EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 4)), first)
        << "seed " << seed;
  }
}

TEST(WormholeDeterminism, DifferentSeedsDiffer) {
  auto topo = make_butterfly_sim(4);
  const StatsSnapshot a =
      snapshot(run_wormhole(*topo, moderate_config(1), 4));
  const StatsSnapshot b =
      snapshot(run_wormhole(*topo, moderate_config(2), 4));
  EXPECT_NE(a, b);  // astronomically unlikely to coincide
}

TEST(WormholeDeterminism, SinkDoesNotPerturbSimulation) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeConfig cfg = moderate_config(42);
  const StatsSnapshot bare = snapshot(run_wormhole(*topo, cfg, 3));
  obs::Sink sink;
  sink.enable_trace();
  EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 3, nullptr, &sink)), bare);
}

TEST(WormholeDeterminism, ThreadDefaultDoesNotPerturbSimulation) {
  auto topo = make_butterfly_sim(4);
  const WormholeConfig cfg = moderate_config(7);
  std::vector<StatsSnapshot> runs;
  for (unsigned threads : {1u, 2u, 8u}) {
    par::set_default_threads(threads);
    runs.push_back(snapshot(run_wormhole(*topo, cfg, 4)));
  }
  par::set_default_threads(0);
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(WormholeDeterminism, DeadlockIsDeterministic) {
  // 1 VC, deep worms, heavy load on a ring-bearing topology: the any-free
  // policy deadlocks, and the cycle it is detected at is reproducible.
  auto topo = make_butterfly_sim(4);
  WormholeConfig cfg;
  cfg.vcs = 1;
  cfg.policy = VcPolicy::kAnyFree;
  cfg.buffer_depth = 1;
  cfg.flits_per_packet = 8;
  cfg.injection_rate = 0.30;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 120000;
  cfg.deadlock_patience = 500;
  const StatsSnapshot first = snapshot(run_wormhole(*topo, cfg, 4));
  EXPECT_TRUE(first.deadlocked);
  EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 4)), first);
}

TEST(WormholeDeterminism, TelemetryIdentitiesHold) {
  auto topo = make_butterfly_sim(4);
  WormholeConfig cfg = moderate_config(42);
  obs::Sink sink;
  const WormholeStats s = run_wormhole(*topo, cfg, 4, nullptr, &sink);
  ASSERT_FALSE(s.deadlocked);

  // Per-link occupancy integrals (maintained incrementally on push/pop)
  // must sum to the per-cycle buffered-flit integral, and per-link
  // forwarded counts to the global forwarded counter.
  std::uint64_t occupancy_sum = 0, forwarded_sum = 0;
  for (const obs::LinkStats& link : sink.links()) {
    ASSERT_EQ(link.vc_occupancy.size(), cfg.vcs);
    occupancy_sum += link.occupancy();
    forwarded_sum += link.forwarded;
  }
  const obs::Counter* buffered =
      sink.metrics().find_counter("wormhole.flit_cycles_buffered");
  const obs::Counter* forwarded =
      sink.metrics().find_counter("wormhole.flits_forwarded");
  ASSERT_NE(buffered, nullptr);
  ASSERT_NE(forwarded, nullptr);
  EXPECT_EQ(occupancy_sum, buffered->value());
  EXPECT_EQ(forwarded_sum, forwarded->value());
  // Every flit of every delivered packet crossed every hop of its path:
  // forwarded counts hops * flits, so it is divisible by flits/packet and
  // large enough to cover every delivered packet's full path.
  EXPECT_EQ(forwarded_sum % cfg.flits_per_packet, 0u);
  EXPECT_GE(forwarded_sum,
            s.packets.delivered() * cfg.flits_per_packet);
  EXPECT_EQ(sink.run_cycles(), s.cycles);
}

TEST(WormholeDeterminism, FaultRunIsDeterministic) {
  // The fault-adaptive datapath keeps the purity contract: same seed and
  // fault set => identical stats including the misroute/escape/unroutable
  // counters, with or without a sink attached.
  auto topo = make_hyper_butterfly_sim(2, 3);
  WormholeConfig cfg = moderate_config(42);
  cfg.vcs = vc_classes(VcPolicy::kFaultAdaptive);
  cfg.policy = VcPolicy::kFaultAdaptive;
  cfg.injection_rate = 0.03;
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : {5u, 18u, 33u, 60u, 91u}) wf.nodes[v] = 1;
  wf.links.emplace_back(0, topo->neighbors(0).front());
  const StatsSnapshot first = snapshot(run_wormhole(*topo, cfg, 3, &wf));
  EXPECT_GT(first.delivered, 0u);
  EXPECT_GT(first.misroutes, 0u);
  EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 3, &wf)), first);
  obs::Sink sink;
  EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 3, &wf, &sink)), first);
}

TEST(WormholeDeterminism, FaultGridByteIdenticalAcrossThreadCounts) {
  // The acceptance bar of the fault-datapath PR: a fault-injecting
  // wormhole campaign grid (all three wormhole fault models, nonzero
  // counts) merges to byte-identical metrics JSON at 1, 2 and 8 threads.
  campaign::CampaignConfig cfg;
  cfg.m = 1;
  cfg.n = 3;
  cfg.engine = campaign::Engine::kWormhole;
  cfg.models = {campaign::FaultModel::kRandom,
                campaign::FaultModel::kAdversarial,
                campaign::FaultModel::kLinks};
  cfg.rates = {0.03};
  cfg.fault_counts = {0, 2, 4};
  cfg.trials = 2;
  cfg.wormhole.measure_cycles = 150;
  std::vector<std::string> artifacts;
  for (unsigned threads : {1u, 2u, 8u}) {
    cfg.threads = threads;
    const campaign::CampaignResult r = campaign::run_campaign(cfg);
    std::ostringstream os;
    r.metrics.write_json(os);
    artifacts.push_back(os.str());
  }
  EXPECT_EQ(artifacts[0], artifacts[1]);
  EXPECT_EQ(artifacts[0], artifacts[2]);
}

WormholeConfig adaptive_config(double rate) {
  WormholeConfig cfg = moderate_config(42);
  cfg.vcs = vc_classes(VcPolicy::kFaultAdaptive);
  cfg.policy = VcPolicy::kFaultAdaptive;
  cfg.injection_rate = rate;
  return cfg;
}

TEST(WormholeDeterminism, MatchesPinnedParentStats) {
  // Cycle-exact contract of the flat datapath (POD packets, route arenas,
  // dense channel table): each case reproduces, field for field, the stats
  // the per-packet-vector datapath it replaced produced. Covers every VC
  // policy, native and escape-class routes, node and link faults, and worm
  // kills past the Theorem-5 guarantee. The three faulted HB cases were
  // re-pinned once when fault routing moved to translated Theorem-5
  // families (HyperButterfly::disjoint_paths); every fault-free pin is the
  // parent's.
  {
    auto topo = make_butterfly_sim(4);
    const std::pair<VcPolicy, StatsSnapshot> pins[] = {
        {VcPolicy::kAnyFree,
         {1535, 1535, 370, 11, 31, 51, 12.458631921824104,
          3.3726384364820845, false, 0, 0, 0}},
        {VcPolicy::kDateline,
         {1535, 1535, 370, 11, 31, 51, 12.348534201954397,
          3.3726384364820845, false, 0, 0, 0}},
        {VcPolicy::kSegmentDateline,
         {1535, 1535, 418, 13, 116, 164, 20.461237785016287,
          3.3726384364820845, false, 0, 0, 0}},
    };
    for (const auto& [policy, pin] : pins) {
      WormholeConfig cfg = moderate_config(42);
      cfg.policy = policy;
      EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 4)), pin)
          << "B(4) " << vc_policy_name(policy);
    }
  }
  {
    auto topo = make_hyper_butterfly_sim(2, 3);
    const StatsSnapshot pin{2305, 2305, 366, 10, 33, 67, 10.919739696312364,
                            3.3084598698481562, false, 0, 0, 0};
    EXPECT_EQ(snapshot(run_wormhole(*topo, moderate_config(42), 3)), pin)
        << "HB(2,3) segment";
  }
  {
    // m+3 = 6 node faults on HB(3,5): every worm is re-planned around them.
    auto topo = make_hyper_butterfly_sim(3, 5);
    WormholeFaults wf;
    wf.nodes.assign(topo->num_nodes(), 0);
    for (std::uint32_t v : {7u, 100u, 333u, 512u, 901u, 1200u}) {
      wf.nodes[v] = 1;
    }
    WormholeConfig cfg = adaptive_config(0.03);
    cfg.measure_cycles = 200;
    const StatsSnapshot pin{7620, 7620, 269, 11, 23, 38, 11.985301837270342,
                            5.8532808398950129, false, 219, 1109, 0};
    EXPECT_EQ(snapshot(run_wormhole(*topo, cfg, 5, &wf)), pin)
        << "HB(3,5) adaptive, m+3 node faults";
  }
  {
    auto topo = make_hyper_butterfly_sim(2, 3);
    WormholeFaults wf;
    for (std::uint32_t src : {0u, 9u, 22u, 63u}) {
      wf.links.emplace_back(src, topo->neighbors(src).front());
      wf.links.emplace_back(src, topo->neighbors(src).back());
    }
    const StatsSnapshot pin{1145, 1145, 359, 8, 15, 21, 8.4043668122270745,
                            3.3510917030567686, false, 96, 317, 0};
    EXPECT_EQ(snapshot(run_wormhole(*topo, adaptive_config(0.04), 3, &wf)),
              pin)
        << "HB(2,3) adaptive, link faults";
  }
  {
    // m+4 = 5 faults isolate node 0 of HB(1,3): worms to or from it have no
    // route left and are killed, some with flits already in the network.
    auto topo = make_hyper_butterfly_sim(1, 3);
    WormholeFaults wf;
    wf.nodes.assign(topo->num_nodes(), 0);
    for (std::uint32_t nb : topo->neighbors(0)) wf.nodes[nb] = 1;
    const StatsSnapshot pin{580, 545, 355, 8, 16, 26, 8.0899082568807348,
                            2.8201834862385322, false, 61, 212, 39};
    EXPECT_EQ(snapshot(run_wormhole(*topo, adaptive_config(0.05), 3, &wf)),
              pin)
        << "HB(1,3) adaptive, m+4 faults";
  }
}

/// Stats plus the two sink counters that integrate every flit movement.
struct WidePin {
  StatsSnapshot stats;
  std::uint64_t flits_forwarded, flit_cycles_buffered;
  friend bool operator==(const WidePin&, const WidePin&) = default;
  friend void PrintTo(const WidePin& p, std::ostream* os) {
    *os << "{";
    PrintTo(p.stats, os);
    *os << ", " << p.flits_forwarded << ", " << p.flit_cycles_buffered
        << "}";
  }
};

TEST(WormholeDeterminism, MatchesPinnedParentStatsWideMatrix) {
  // Cycle-exact contract of the arena-free datapath (per-VC records, bit
  // mask arbitration, channel bitmap, integer injection coin): every case
  // reproduces the stats and sink counters of the ring-arena datapath it
  // replaced. Covers buffer depths 1/2/4, single-flit worms and worms
  // longer than a buffer, several VCs per class, the saturated
  // BM_WormholeHeavyLoad shape, a deadlocking any-free run, and faulted
  // runs whose misroute budget of 1 kills worms with flits in flight. Each
  // case runs bare and under a sink; both must match the pin.
  struct Case {
    std::string name;
    std::unique_ptr<SimTopology> topo;
    unsigned arity;
    WormholeConfig cfg;
    WormholeFaults faults;
    WidePin pin;
  };
  std::vector<Case> cases;
  const std::pair<unsigned, unsigned> shapes[] = {
      {1, 1}, {1, 9}, {2, 9}, {4, 9}};  // (buffer depth, flits per packet)
  const WidePin shape_pins[] = {
      {{1194, 1194, 354, 4, 7, 8, 4.2470686767169177, 3.2227805695142377,
        false, 0, 0, 0},
       4521, 4554},
      {{1194, 1194, 455, 33, 128, 156, 40.527638190954775,
        3.2227805695142377, false, 0, 0, 0},
       40689, 46967},
      {{1194, 1194, 392, 20, 54, 73, 21.799832495812396, 3.2227805695142377,
        false, 0, 0, 0},
       40689, 64357},
      {{1194, 1194, 389, 19, 50, 68, 20.149078726968174, 3.2227805695142377,
        false, 0, 0, 0},
       40689, 72797}};
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const auto [depth, flits] = shapes[i];
    WormholeConfig cfg = moderate_config(11);
    cfg.vcs = 2 * vc_classes(VcPolicy::kSegmentDateline);
    cfg.buffer_depth = depth;
    cfg.flits_per_packet = flits;
    cfg.injection_rate = 0.04;
    cases.push_back({"HB(2,3) segment depth " + std::to_string(depth) +
                         " flits " + std::to_string(flits),
                     make_hyper_butterfly_sim(2, 3), 3, cfg, {},
                     shape_pins[i]});
  }
  {
    // BM_WormholeHeavyLoad's shape with a shorter injection window.
    WormholeConfig cfg;
    cfg.vcs = 6;
    cfg.injection_rate = 0.30;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 400;
    cfg.drain_cycles = 120000;
    cases.push_back({"B(5) heavy load", make_butterfly_sim(5), 5, cfg, {},
                     {{19355, 19355, 2454, 829, 1843, 1969, 848.85409454921205,
                       4.3135107207439942, false, 0, 0, 0},
                      415732, 1284269}});
  }
  {
    WormholeConfig cfg;
    cfg.vcs = 2 * vc_classes(VcPolicy::kDateline);
    cfg.policy = VcPolicy::kDateline;
    cfg.buffer_depth = 2;
    cfg.flits_per_packet = 5;
    cfg.injection_rate = 0.1;
    cfg.measure_cycles = 300;
    cases.push_back({"B(4) dateline, 2 VCs per class", make_butterfly_sim(4),
                     4, cfg, {},
                     {{1914, 1914, 600, 42, 235, 291, 55.825496342737722,
                       3.3897596656217348, false, 0, 0, 0},
                      43200, 96506}});
  }
  {
    WormholeConfig cfg;
    cfg.vcs = 1;
    cfg.policy = VcPolicy::kAnyFree;
    cfg.buffer_depth = 1;
    cfg.flits_per_packet = 8;
    cfg.injection_rate = 0.30;
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 1500;
    cfg.drain_cycles = 120000;
    cfg.deadlock_patience = 500;
    cases.push_back({"B(4) any-free deadlock", make_butterfly_sim(4), 4, cfg,
                     {},
                     {{14597, 120, 760, 63, 220, 231, 85.924999999999997,
                       3.1333333333333333, true, 0, 0, 0},
                      3056, 58128}});
  }
  {
    // Node and link faults with a misroute budget of 1: a worm whose
    // escape suffix meets a second fault is killed with flits in flight.
    auto topo = make_hyper_butterfly_sim(2, 3);
    WormholeFaults wf;
    wf.nodes.assign(topo->num_nodes(), 0);
    for (std::uint32_t v : {5u, 18u, 33u, 60u}) wf.nodes[v] = 1;
    wf.links.emplace_back(9, topo->neighbors(9).front());
    wf.links.emplace_back(9, topo->neighbors(9).back());
    WormholeConfig cfg = adaptive_config(0.05);
    cfg.seed = 11;
    cfg.vcs = 2 * vc_classes(VcPolicy::kFaultAdaptive);
    cfg.buffer_depth = 2;
    cfg.flits_per_packet = 6;
    cfg.misroute_limit = 1;
    cases.push_back({"HB(2,3) adaptive, faults, misroute limit 1",
                     std::move(topo), 3, cfg, std::move(wf),
                     {{1378, 1372, 363, 13, 33, 54, 14.03862973760933,
                       3.3403790087463556, false, 184, 619, 6},
                      31721, 45840}});
  }
  for (const Case& c : cases) {
    const WormholeFaults* wf = c.faults.any() ? &c.faults : nullptr;
    EXPECT_EQ(snapshot(run_wormhole(*c.topo, c.cfg, c.arity, wf)),
              c.pin.stats)
        << c.name << " (bare)";
    obs::Sink sink;
    const WormholeStats s = run_wormhole(*c.topo, c.cfg, c.arity, wf, &sink);
    const obs::Counter* forwarded =
        sink.metrics().find_counter("wormhole.flits_forwarded");
    const obs::Counter* buffered =
        sink.metrics().find_counter("wormhole.flit_cycles_buffered");
    ASSERT_NE(forwarded, nullptr);
    ASSERT_NE(buffered, nullptr);
    EXPECT_EQ((WidePin{snapshot(s), forwarded->value(), buffered->value()}),
              c.pin)
        << c.name << " (sink)";
  }
}

TEST(WormholeDeterminism, DrainedRunDeliversEverything) {
  auto topo = make_ccc_sim(4);
  WormholeConfig cfg = moderate_config(9);
  cfg.injection_rate = 0.02;  // below CCC(4) saturation: must fully drain
  const WormholeStats s = run_wormhole(*topo, cfg, 4);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
  EXPECT_EQ(s.packets.dropped(), 0u);
}

}  // namespace
}  // namespace hbnet

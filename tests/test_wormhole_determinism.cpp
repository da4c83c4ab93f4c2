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
  // Cycle-exact contract of the datapath: each case reproduces, field for
  // field, the pinned stats. Covers every VC policy, native and
  // escape-class routes, node and link faults, and worm kills past the
  // Theorem-5 guarantee. Every case was re-pinned once when the wormhole
  // moved to the store-and-forward engine's counter-based traffic and the
  // static (node, port) channel table.
  {
    auto topo = make_butterfly_sim(4);
    const std::pair<VcPolicy, StatsSnapshot> pins[] = {
        {VcPolicy::kAnyFree,
         {1506, 1506, 369, 11, 25, 36, 11.97011952191235,
          3.3818061088977425, false, 0, 0, 0}},
        {VcPolicy::kDateline,
         {1506, 1506, 367, 11, 24, 36, 11.858565737051793,
          3.3818061088977425, false, 0, 0, 0}},
        {VcPolicy::kSegmentDateline,
         {1506, 1506, 453, 12, 186, 258, 18.114209827357239,
          3.3818061088977425, false, 0, 0, 0}},
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
    const StatsSnapshot pin{2309, 2309, 371, 10, 30, 51, 10.769164140320486,
                            3.3122563880467735, false, 0, 0, 0};
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
    const StatsSnapshot pin{7550, 7550, 266, 11, 22, 51, 11.915496688741722,
                            5.8286092715231792, false, 222, 1126, 0};
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
    const StatsSnapshot pin{1160, 1160, 362, 8, 17, 23, 8.5370689655172409,
                            3.3327586206896553, false, 74, 263, 0};
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
    const StatsSnapshot pin{567, 542, 358, 7, 17, 35, 8.0258302583025838,
                            2.8154981549815496, false, 70, 241, 29};
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
  // Cycle-exact contract of the datapath (per-VC records, bit mask
  // arbitration, channel bitmap), re-pinned with MatchesPinnedParentStats
  // on the counter-based traffic: every case reproduces the pinned stats
  // and sink counters. Covers buffer depths 1/2/4, single-flit worms and worms
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
      {{1156, 1156, 354, 4, 7, 7, 4.3295847750865049, 3.2984429065743943,
        false, 0, 0, 0},
       4485, 4525},
      {{1156, 1156, 461, 35, 114, 133, 42.605536332179931,
        3.2984429065743943, false, 0, 0, 0},
       40365, 48283},
      {{1156, 1156, 384, 20, 51, 74, 21.870242214532873, 3.2984429065743943,
        false, 0, 0, 0},
       40365, 65905},
      {{1156, 1156, 384, 19, 45, 52, 20.183391003460208, 3.2984429065743943,
        false, 0, 0, 0},
       40365, 73468}};
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
                     {{19201, 19201, 2374, 737, 1731, 1876, 794.72834748190201,
                       4.3069631790010936, false, 0, 0, 0},
                      413032, 1209907}});
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
                     {{1890, 1890, 554, 40, 198, 221, 53.814285714285717,
                       3.4031746031746031, false, 0, 0, 0},
                      43155, 95597}});
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
                     {{13129, 101, 683, 51, 157, 171, 57.079207920792079,
                       3.0594059405940595, true, 0, 0, 0},
                      2510, 59991}});
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
                     {{1344, 1342, 371, 13, 32, 44, 13.805514157973175,
                       3.3852459016393444, false, 175, 584, 2},
                      32099, 45863}});
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

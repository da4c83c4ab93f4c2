// Wormhole / virtual-channel simulator: conservation, sane latencies,
// deadlock detection, and the VC-class findings tying into the CDG
// analysis: any-free deadlocks, the classical 2-class dateline is
// *insufficient* for direction-reversing covering-walk routes, and the
// 6-class segment-dateline is deadlock free.
#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/wormhole.hpp"

namespace hbnet {
namespace {

WormholeConfig gentle() {
  WormholeConfig cfg;
  cfg.vcs = 6;
  cfg.policy = VcPolicy::kSegmentDateline;
  cfg.injection_rate = 0.005;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 30000;
  return cfg;
}

WormholeConfig pressure(unsigned vcs, VcPolicy policy) {
  WormholeConfig cfg;
  cfg.vcs = vcs;
  cfg.policy = policy;
  cfg.buffer_depth = 1;
  cfg.flits_per_packet = 8;
  cfg.injection_rate = 0.30;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 1500;
  cfg.drain_cycles = 120000;
  cfg.deadlock_patience = 500;
  return cfg;
}

TEST(Wormhole, CompletesAtLowLoadOnHypercube) {
  auto topo = make_hypercube_sim(5);
  WormholeStats s = run_wormhole(*topo, gentle());
  EXPECT_FALSE(s.deadlocked);
  EXPECT_GT(s.packets.delivered(), 0u);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, LatencyAtLeastHopsPlusSerialization) {
  auto topo = make_hypercube_sim(4);
  WormholeConfig cfg = gentle();
  cfg.flits_per_packet = 6;
  WormholeStats s = run_wormhole(*topo, cfg);
  ASSERT_GT(s.packets.delivered(), 0u);
  // A packet of F flits over h hops needs >= h + F - 1 cycles.
  EXPECT_GE(s.packets.mean_latency(),
            s.packets.mean_hops() + cfg.flits_per_packet - 1);
}

TEST(Wormhole, RejectsDegenerateConfigs) {
  auto topo = make_hypercube_sim(3);
  WormholeConfig cfg;
  cfg.vcs = 0;
  EXPECT_THROW((void)run_wormhole(*topo, cfg), std::invalid_argument);
  cfg.vcs = 1;
  cfg.policy = VcPolicy::kDateline;
  EXPECT_THROW((void)run_wormhole(*topo, cfg), std::invalid_argument);
  cfg.vcs = 4;
  cfg.policy = VcPolicy::kSegmentDateline;  // needs 6
  EXPECT_THROW((void)run_wormhole(*topo, cfg), std::invalid_argument);
}

TEST(Wormhole, RejectsHorizonsPastThirtyTwoBits) {
  // VC records stamp cycles in 32 bits: warmup + measure + drain must stay
  // below 2^32. A sum that wraps 64 bits must be rejected too, never run
  // as a short horizon.
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeConfig cfg = gentle();
  cfg.warmup_cycles = 0;
  cfg.drain_cycles = 0;
  cfg.measure_cycles = 0xffffffffull;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
  const std::uint64_t max = ~std::uint64_t{0};
  const std::uint64_t bad[][3] = {
      {0, 0x100000000ull, 0},
      {1, 0xffffffffull, 0},
      {50, 200, 0xffffffffull},
      {max, 0, 0},
      {10, max, 0},     // wraps 64 bits to 9
      {0, 2, max - 1},  // wraps 64 bits to 0
  };
  for (const auto& [warmup, measure, drain] : bad) {
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = measure;
    cfg.drain_cycles = drain;
    const std::string err = validate_wormhole_config(cfg);
    EXPECT_NE(err.find("must be < 2^32"), std::string::npos)
        << warmup << " + " << measure << " + " << drain << ": " << err;
    EXPECT_NE(err.find(std::to_string(measure)), std::string::npos) << err;
    EXPECT_THROW((void)run_wormhole(*topo, cfg, 3), std::invalid_argument);
  }
}

TEST(Wormhole, RejectsFlitCountsBeyondSixteenBits) {
  // Flit indices are 16-bit: a larger flits_per_packet must be rejected,
  // not truncated (65536 used to become 0-flit worms and a false deadlock,
  // 65540 silently simulated 4-flit worms).
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeConfig cfg = gentle();
  cfg.measure_cycles = 20;
  for (unsigned flits : {65536u, 65540u}) {
    cfg.flits_per_packet = flits;
    const std::string err = validate_wormhole_config(cfg);
    EXPECT_NE(err.find("at most 65535"), std::string::npos) << err;
    EXPECT_NE(err.find("got " + std::to_string(flits)), std::string::npos)
        << err;
    EXPECT_THROW((void)run_wormhole(*topo, cfg, 3), std::invalid_argument);
  }
  cfg.flits_per_packet = 65535;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
}

TEST(Wormhole, RejectsVcCountsAndDepthsBeyondTheRecordWidths) {
  // Per-channel VC masks are 64-bit and VC flit counts 16-bit: larger
  // values must be rejected with a diagnostic naming the field, never
  // truncated.
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeConfig cfg = gentle();
  cfg.measure_cycles = 20;
  cfg.vcs = 65;
  std::string err = validate_wormhole_config(cfg);
  EXPECT_NE(err.find("vcs must be at most 64"), std::string::npos) << err;
  EXPECT_NE(err.find("got 65"), std::string::npos) << err;
  EXPECT_THROW((void)run_wormhole(*topo, cfg, 3), std::invalid_argument);
  cfg.vcs = 64;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
  EXPECT_FALSE(run_wormhole(*topo, cfg, 3).deadlocked);

  cfg.buffer_depth = 65536;
  err = validate_wormhole_config(cfg);
  EXPECT_NE(err.find("buffer_depth must be at most 65535"), std::string::npos)
      << err;
  EXPECT_NE(err.find("got 65536"), std::string::npos) << err;
  EXPECT_THROW((void)run_wormhole(*topo, cfg, 3), std::invalid_argument);
  cfg.buffer_depth = 65535;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
}

/// K4 with direct routes: port k of v leads to the k-th other node, so
/// every node sends on ports 0..2, while degree_hint() claims `hint` ports.
class CompleteGraphK4 final : public SimTopology {
 public:
  explicit CompleteGraphK4(unsigned hint) : hint_(hint) {}
  [[nodiscard]] std::string name() const override { return "K4"; }
  [[nodiscard]] std::uint32_t num_nodes() const override { return 4; }
  [[nodiscard]] unsigned degree_hint() const override { return hint_; }
  [[nodiscard]] std::uint32_t neighbor(std::uint32_t v,
                                       unsigned port) const override {
    return port < v ? port : port + 1;
  }
  void route_word(std::uint32_t src, std::uint32_t dst,
                  std::vector<std::uint8_t>& out) const override {
    if (src != dst) {
      out.push_back(static_cast<std::uint8_t>(dst < src ? dst : dst - 1));
    }
  }

 private:
  unsigned hint_;
};

TEST(Wormhole, RoutesBeyondDegreeHintThrowLogicError) {
  // The channel table holds degree_hint() ports per node; a topology whose
  // routes use a higher port must fail loudly, never overflow into a
  // neighbor's row.
  WormholeConfig cfg;
  cfg.vcs = 1;
  cfg.policy = VcPolicy::kAnyFree;
  cfg.injection_rate = 0.5;
  cfg.measure_cycles = 50;
  EXPECT_THROW((void)run_wormhole(CompleteGraphK4(2), cfg),
               std::logic_error);
  const WormholeStats s = run_wormhole(CompleteGraphK4(3), cfg);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_GT(s.packets.delivered(), 0u);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, ValidatorNamesTheMinimumForThePolicy) {
  // The WormholeConfig{} default (vcs = 2) only suits any/dateline; pairing
  // it with segment-dateline is the classic footgun, so the diagnostic must
  // name the policy, its minimum, the value given, and the default's trap.
  WormholeConfig cfg;
  cfg.policy = VcPolicy::kSegmentDateline;  // vcs stays at the default 2
  const std::string err = validate_wormhole_config(cfg);
  EXPECT_NE(err.find("'segment'"), std::string::npos) << err;
  EXPECT_NE(err.find("at least 6"), std::string::npos) << err;
  EXPECT_NE(err.find("got 2"), std::string::npos) << err;
  EXPECT_NE(err.find("default vcs = 2"), std::string::npos) << err;

  cfg.vcs = 6;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
  cfg.policy = VcPolicy::kDateline;
  cfg.vcs = 2;
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
  EXPECT_EQ(std::string(vc_policy_name(VcPolicy::kSegmentDateline)),
            "segment");
}

TEST(Wormhole, SingleVcButterflyDeadlocksUnderPressure) {
  // Level-ring cycles + 1 VC + deep worms: the CDG cycle materializes as an
  // operational deadlock at sufficient load.
  auto topo = make_butterfly_sim(4);
  WormholeStats s =
      run_wormhole(*topo, pressure(1, VcPolicy::kAnyFree), 4);
  EXPECT_TRUE(s.deadlocked);
}

TEST(Wormhole, ClassicDatelineIsInsufficientForReversingRoutes) {
  // FINDING: the textbook 2-class dateline assumes monotone ring routes.
  // Covering-walk routes reverse direction, letting two opposite-direction
  // worms block each other inside one class -- deadlock persists.
  auto topo = make_butterfly_sim(4);
  WormholeStats s =
      run_wormhole(*topo, pressure(2, VcPolicy::kDateline), 4);
  EXPECT_TRUE(s.deadlocked);
}

TEST(Wormhole, SegmentDatelineSurvivesSamePressure) {
  // class = 2*segment + wrap: monotone within class, class monotone along
  // the path => acyclic per class => deadlock free.
  auto topo = make_butterfly_sim(4);
  WormholeStats s =
      run_wormhole(*topo, pressure(6, VcPolicy::kSegmentDateline), 4);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, HyperButterflySegmentDatelineCompletes) {
  auto topo = make_hyper_butterfly_sim(2, 3);
  WormholeConfig cfg = gentle();
  cfg.injection_rate = 0.02;
  WormholeStats s = run_wormhole(*topo, cfg, 3);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, CccSegmentDatelineCompletes) {
  auto topo = make_ccc_sim(4);
  WormholeConfig cfg = gentle();
  cfg.injection_rate = 0.02;
  WormholeStats s = run_wormhole(*topo, cfg, 4);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, LongCccRoutesMatchPins) {
  // A packet's route is planned when its head starts streaming. CCC(9) has
  // routes of 19 and 20 hops (about 1 in 600 pairs), longer than any HB(2,n)
  // route with n <= 8. The pins were recorded when the wormhole moved to
  // the counter-based traffic; every later datapath change must keep them.
  auto topo = make_ccc_sim(9);
  WormholeConfig cfg = gentle();
  cfg.injection_rate = 0.01;
  cfg.warmup_cycles = 20;
  cfg.measure_cycles = 200;
  const WormholeStats s = run_wormhole(*topo, cfg, 9);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.injected(), 9233u);
  EXPECT_EQ(s.packets.delivered(), 9233u);
  EXPECT_EQ(s.cycles, 250u);
  EXPECT_EQ(s.packets.latency_percentile(0.5), 20u);
  EXPECT_EQ(s.packets.latency_percentile(0.99), 36u);
  EXPECT_EQ(s.packets.max_latency(), 62u);
  EXPECT_EQ(s.packets.mean_latency(), 20.641503303368353);
  EXPECT_EQ(s.packets.mean_hops(), 12.078306076031625);
}

// ---------------------------------------------------------------------------
// Static faults + Theorem-5 adaptive routing with the reserved escape class.

WormholeConfig adaptive(double rate = 0.02) {
  WormholeConfig cfg;
  cfg.vcs = vc_classes(VcPolicy::kFaultAdaptive);
  cfg.policy = VcPolicy::kFaultAdaptive;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.drain_cycles = 60000;
  return cfg;
}

TEST(WormholeFaults, NodeFaultsWithinGuaranteeDeliverEverything) {
  // HB(2,3): kappa = m+4 = 6, so m+3 = 5 static node faults leave the
  // Theorem-5 family with a clean member for every pair. Every packet with
  // live endpoints must be delivered, with zero deadlock and the detours
  // visible in the misroute/escape counters.
  auto topo = make_hyper_butterfly_sim(2, 3);
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : {3u, 17u, 29u, 41u, 77u}) wf.nodes[v] = 1;
  WormholeStats s = run_wormhole(*topo, adaptive(), 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  ASSERT_GT(s.packets.injected(), 0u);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
  EXPECT_EQ(s.unroutable, 0u);
  EXPECT_GT(s.misroutes, 0u);
  EXPECT_GT(s.escape_hops, 0u);
}

TEST(WormholeFaults, LinkFaultsDeliverEverything) {
  // Directed link faults kill one direction only; the re-planner bans the
  // faulted outgoing edges and routes the suffix in the escape class.
  auto topo = make_hyper_butterfly_sim(2, 3);
  WormholeFaults wf;
  for (std::uint32_t src : {0u, 9u, 22u, 63u}) {
    const std::vector<std::uint32_t> nbrs = topo->neighbors(src);
    ASSERT_FALSE(nbrs.empty());
    wf.links.emplace_back(src, nbrs.front());
  }
  WormholeStats s = run_wormhole(*topo, adaptive(), 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  ASSERT_GT(s.packets.injected(), 0u);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
  EXPECT_EQ(s.unroutable, 0u);
}

TEST(WormholeFaults, FullyBlockedSourceKillsWormsWithoutDeadlock) {
  // Fault every outgoing link of node 0: its packets have no first hop at
  // all, the banned-first family is empty, and each such worm must be
  // killed and counted unroutable -- never left to trip the deadlock
  // detector or wedge the injection queue.
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeFaults wf;
  for (std::uint32_t nb : topo->neighbors(0)) wf.links.emplace_back(0, nb);
  WormholeConfig cfg = adaptive(0.05);
  WormholeStats s = run_wormhole(*topo, cfg, 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_GT(s.unroutable, 0u);
  EXPECT_GT(s.packets.delivered(), 0u);
  EXPECT_EQ(s.packets.delivered() + s.packets.dropped(),
            s.packets.injected());
}

TEST(WormholeFaults, ReplannedWormReenteringAHeldChannelTakesAFreshVc) {
  // Re-planned escape suffixes here re-enter channels their own worm still
  // holds. Each (worm, hop) must get its own VC of the hop's class: when a
  // head instead reused the VC its worm held at the earlier hop, and body
  // flits picked whichever of the worm's VCs came first, the tail released
  // a VC under its own head and this run deadlocked.
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : {3u, 28u, 39u, 40u}) wf.nodes[v] = 1;
  wf.links = {{6, 10}, {10, 11}, {5, 4}, {12, 13}, {19, 14}, {44, 37}};
  WormholeConfig cfg = adaptive(0.2);
  cfg.vcs = 2 * vc_classes(VcPolicy::kFaultAdaptive);
  cfg.buffer_depth = 2;
  cfg.flits_per_packet = 5;
  cfg.warmup_cycles = 29;
  cfg.measure_cycles = 165;
  cfg.misroute_limit = 3;
  cfg.seed = 13748269018318229792ull;
  const WormholeStats s = run_wormhole(*topo, cfg, 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_GT(s.misroutes, 0u);
  EXPECT_EQ(s.packets.delivered() + s.packets.dropped(),
            s.packets.injected());
}

TEST(WormholeFaults, KilledWormFreesItsEmptyVcs) {
  // A misroute budget of 1 kills worms mid-network. A VC the worm holds
  // that is empty at the kill never sees another flit of it, so the kill
  // itself must free it; left held, such VCs wedged this run into a false
  // deadlock.
  auto topo = make_hyper_butterfly_sim(2, 3);
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : {5u, 18u, 33u, 60u}) wf.nodes[v] = 1;
  for (std::uint32_t src : {0u, 9u, 22u, 41u, 63u, 70u, 88u}) {
    wf.links.emplace_back(src, topo->neighbors(src).front());
    wf.links.emplace_back(src, topo->neighbors(src).back());
  }
  WormholeConfig cfg = adaptive(0.05);
  cfg.vcs = 2 * vc_classes(VcPolicy::kFaultAdaptive);
  cfg.buffer_depth = 2;
  cfg.flits_per_packet = 6;
  cfg.misroute_limit = 1;
  const WormholeStats s = run_wormhole(*topo, cfg, 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_GT(s.unroutable, 0u);
  EXPECT_EQ(s.packets.delivered() + s.packets.dropped(),
            s.packets.injected());
}

/// The stats a run that kills worms is pinned by.
struct KillPin {
  std::uint64_t injected, delivered, dropped, cycles, max_latency;
  double mean_latency;
  std::uint64_t misroutes, escape_hops, unroutable;
  static KillPin of(const WormholeStats& s) {
    return {s.packets.injected(),    s.packets.delivered(),
            s.packets.dropped(),     s.cycles,
            s.packets.max_latency(), s.packets.mean_latency(),
            s.misroutes,             s.escape_hops,
            s.unroutable};
  }
  friend bool operator==(const KillPin&, const KillPin&) = default;
  friend void PrintTo(const KillPin& p, std::ostream* os) {
    *os << std::setprecision(17) << "{" << p.injected << ", " << p.delivered
        << ", " << p.dropped << ", " << p.cycles << ", " << p.max_latency
        << ", " << p.mean_latency << ", " << p.misroutes << ", "
        << p.escape_hops << ", " << p.unroutable << "}";
  }
};

TEST(WormholeFaults, KilledWormsDrainAndReturnEveryRecord) {
  // Worms killed mid-network (misroute budget 1) and at the source (every
  // outgoing link of node 0 faulted), then drained. A killed worm's slot
  // returns to the free list only once its last VC is freed; the stats
  // must equal the pins (recorded on the counter-based traffic), and every
  // record must be free again at the end.
  auto check = [](const WormholeStats& s, const KillPin& pin,
                  const char* what) {
    EXPECT_FALSE(s.deadlocked) << what;
    EXPECT_EQ(KillPin::of(s), pin) << what;
    EXPECT_EQ(s.packets.delivered() + s.packets.dropped(),
              s.packets.injected())
        << what;
    EXPECT_GT(s.packet_slots, 0u) << what;
    EXPECT_EQ(s.packet_slots_held, 0u) << what;
  };
  {
    auto topo = make_hyper_butterfly_sim(2, 3);
    WormholeFaults wf;
    wf.nodes.assign(topo->num_nodes(), 0);
    for (std::uint32_t v : {5u, 18u, 33u, 60u}) wf.nodes[v] = 1;
    for (std::uint32_t src : {0u, 9u, 22u, 41u, 63u, 70u, 88u}) {
      wf.links.emplace_back(src, topo->neighbors(src).front());
      wf.links.emplace_back(src, topo->neighbors(src).back());
    }
    WormholeConfig cfg = adaptive(0.05);
    cfg.vcs = 2 * vc_classes(VcPolicy::kFaultAdaptive);
    cfg.buffer_depth = 2;
    cfg.flits_per_packet = 6;
    cfg.misroute_limit = 1;
    check(run_wormhole(*topo, cfg, 3, &wf),
          {1345, 1326, 19, 371, 53, 14.061085972850679, 306, 1078, 21},
          "misroute budget 1, rate 0.05");
    cfg.injection_rate = 0.2;  // saturated: thousands of records at once
    check(run_wormhole(*topo, cfg, 3, &wf),
          {5328, 5247, 81, 1007, 662, 211.10958643034115, 1246, 4359, 92},
          "misroute budget 1, rate 0.2");
    // Single-flit worms: the kill itself frees the worm's last VC.
    cfg.flits_per_packet = 1;
    cfg.buffer_depth = 1;
    cfg.injection_rate = 0.1;
    check(run_wormhole(*topo, cfg, 3, &wf),
          {2647, 2609, 38, 355, 9, 4.5036412418551173, 612, 2155, 42},
          "misroute budget 1, single-flit worms");
  }
  {
    auto topo = make_hyper_butterfly_sim(1, 3);
    WormholeFaults wf;
    for (std::uint32_t nb : topo->neighbors(0)) wf.links.emplace_back(0, nb);
    check(run_wormhole(*topo, adaptive(0.05), 3, &wf),
          {703, 658, 45, 358, 32, 7.9392097264437691, 0, 0, 55},
          "fully blocked source");
  }
}

TEST(WormholeFaults, PacketRecordsFollowLoadNotRunLength) {
  // Packet records are recycled: four times the run length creates about
  // four times the packets, but the peak number of records held at once
  // follows the load and barely moves.
  auto topo = make_hyper_butterfly_sim(2, 4);
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v : {11u, 60u, 97u, 150u, 201u}) wf.nodes[v] = 1;
  WormholeConfig cfg = adaptive(0.04);
  cfg.measure_cycles = 1000;
  const WormholeStats short_run = run_wormhole(*topo, cfg, 4, &wf);
  cfg.measure_cycles = 4000;
  const WormholeStats long_run = run_wormhole(*topo, cfg, 4, &wf);
  for (const WormholeStats* s : {&short_run, &long_run}) {
    EXPECT_FALSE(s->deadlocked);
    EXPECT_EQ(s->packets.delivered(), s->packets.injected());
    EXPECT_EQ(s->packet_slots_held, 0u);
  }
  EXPECT_GT(long_run.packets.injected(), 3.5 * short_run.packets.injected());
  ASSERT_GT(short_run.packet_slots, 0u);
  EXPECT_LT(long_run.packet_slots, 1.5 * short_run.packet_slots)
      << short_run.packet_slots << " records for "
      << short_run.packets.injected() << " packets, then "
      << long_run.packet_slots << " for " << long_run.packets.injected();
  EXPECT_LT(short_run.packet_slots, short_run.packets.injected() / 10);
}

TEST(WormholeFaults, FaultyEndpointsNeverInject) {
  // A dead source never injects; a draw targeting a dead destination is
  // skipped uncounted (mirroring the store-and-forward engine). With every
  // odd node dead the run still terminates cleanly.
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeFaults wf;
  wf.nodes.assign(topo->num_nodes(), 0);
  for (std::uint32_t v = 1; v < topo->num_nodes(); v += 2) wf.nodes[v] = 1;
  WormholeStats s = run_wormhole(*topo, adaptive(0.05), 3, &wf);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered() + s.packets.dropped(),
            s.packets.injected());
}

TEST(WormholeFaults, FaultsRequireAdaptivePolicy) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeFaults wf;
  wf.links.emplace_back(0, topo->neighbors(0).front());
  WormholeConfig cfg = gentle();  // segment-dateline
  EXPECT_THROW((void)run_wormhole(*topo, cfg, 3, &wf),
               std::invalid_argument);
  // An empty fault set is not a fault set: any policy may pass it.
  WormholeFaults empty;
  WormholeStats s = run_wormhole(*topo, cfg, 3, &empty);
  EXPECT_FALSE(s.deadlocked);
}

TEST(WormholeFaults, RejectsMalformedFaultSets) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  WormholeConfig cfg = adaptive();
  WormholeFaults bad_mask;
  bad_mask.nodes.assign(3, 0);  // must be empty or num_nodes()
  bad_mask.nodes[0] = 1;
  EXPECT_THROW((void)run_wormhole(*topo, cfg, 3, &bad_mask),
               std::invalid_argument);
  WormholeFaults bad_link;
  bad_link.links.emplace_back(0, topo->num_nodes());
  EXPECT_THROW((void)run_wormhole(*topo, cfg, 3, &bad_link),
               std::invalid_argument);
}

TEST(WormholeFaults, ValidatorNamesTheAdaptiveMinimum) {
  WormholeConfig cfg;
  cfg.policy = VcPolicy::kFaultAdaptive;  // vcs stays at the default 2
  const std::string err = validate_wormhole_config(cfg);
  EXPECT_NE(err.find("'adaptive'"), std::string::npos) << err;
  EXPECT_NE(err.find("at least 7"), std::string::npos) << err;
  cfg.vcs = vc_classes(VcPolicy::kFaultAdaptive);
  EXPECT_TRUE(validate_wormhole_config(cfg).empty());
  EXPECT_EQ(std::string(vc_policy_name(VcPolicy::kFaultAdaptive)),
            "adaptive");
}

TEST(WormholeFaults, FaultFreeAdaptiveMatchesSegmentBehavior) {
  // With no faults the adaptive policy is segment-dateline plus one idle
  // escape class: it must survive the same pressure that proves
  // segment-dateline deadlock free.
  auto topo = make_butterfly_sim(4);
  WormholeStats s =
      run_wormhole(*topo, pressure(7, VcPolicy::kFaultAdaptive), 4);
  EXPECT_FALSE(s.deadlocked);
  EXPECT_EQ(s.packets.delivered(), s.packets.injected());
}

TEST(Wormhole, SegmentDatelineHeavySweep) {
  // Sustained heavy load across several seeds: never deadlocks.
  auto topo = make_butterfly_sim(3);
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    WormholeConfig cfg = pressure(6, VcPolicy::kSegmentDateline);
    cfg.seed = seed;
    WormholeStats s = run_wormhole(*topo, cfg, 3);
    EXPECT_FALSE(s.deadlocked) << "seed=" << seed;
    EXPECT_EQ(s.packets.delivered(), s.packets.injected()) << "seed=" << seed;
  }
}

TEST(Wormhole, OffersTheStoreAndForwardTraffic) {
  // One seed, one offered load: the wormhole draws the store-and-forward
  // engine's counter-based traffic, with the same endpoint rules (a dead
  // source never injects, a packet to a dead destination is skipped), so
  // both engines count the same injections in the same window.
  struct Net {
    std::unique_ptr<SimTopology> topo;
    unsigned arity;
    std::vector<std::uint32_t> dead;
  };
  Net nets[] = {{make_hyper_butterfly_sim(2, 3), 3, {5, 18, 33, 60, 71}},
                {make_butterfly_sim(4), 4, {3, 20, 41}}};
  for (const Net& net : nets) {
    for (const bool faulted : {false, true}) {
      std::vector<char> mask;
      if (faulted) {
        mask.assign(net.topo->num_nodes(), 0);
        for (const std::uint32_t v : net.dead) mask[v] = 1;
      }
      for (const TrafficPattern pattern :
           {TrafficPattern::kUniform, TrafficPattern::kHotspot}) {
        for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
          SimConfig sf;
          sf.injection_rate = 0.05;
          sf.warmup_cycles = 30;
          sf.measure_cycles = 150;
          sf.seed = seed;
          sf.pattern = pattern;
          WormholeConfig wh = adaptive(sf.injection_rate);
          wh.warmup_cycles = sf.warmup_cycles;
          wh.measure_cycles = sf.measure_cycles;
          wh.seed = seed;
          wh.pattern = pattern;
          WormholeFaults wf;
          wf.nodes = mask;
          const std::uint64_t want =
              run_simulation(*net.topo, sf, mask).injected();
          const WormholeStats got = run_wormhole(
              *net.topo, wh, net.arity, faulted ? &wf : nullptr);
          EXPECT_GT(want, 0u);
          EXPECT_EQ(got.packets.injected(), want)
              << net.topo->name() << " " << to_string(pattern) << " seed "
              << seed << (faulted ? " faulted" : "");
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbnet

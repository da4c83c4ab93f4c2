// Pins of every route and every store-and-forward link table, recorded on
// the node-vector route representation that port words replaced. A route
// is a string of output ports expanded by SimTopology::neighbor, so these
// digests must not move when the representation changes: they cover
// route() on every adapter and pair, route_avoiding() on HB under seeded
// fault masks and link bans, and the metrics JSON and links CSV of sink
// runs through the path router (static faults, mid-run fault events,
// Valiant, every adapter) and the wormhole. Never regenerate them for a
// refactor; a change here is a change of results.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/sink.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/wormhole.hpp"

namespace hbnet {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// Digest of a sink's metrics JSON followed by its links CSV.
std::uint64_t artifacts_digest(const obs::Sink& sink) {
  std::ostringstream metrics, links;
  sink.write_metrics_json(metrics);
  sink.write_links_csv(links);
  Fnv d;
  d.add(metrics.str());
  d.add(links.str());
  return d.h;
}

/// `count` distinct nodes of `topo` marked faulty, drawn from `seed`.
std::vector<char> seeded_mask(const SimTopology& topo, unsigned count,
                              std::uint64_t seed) {
  std::vector<char> mask(topo.num_nodes(), 0);
  std::mt19937_64 rng(seed);
  for (unsigned placed = 0; placed < count;) {
    const auto v = static_cast<std::uint32_t>(rng() % topo.num_nodes());
    if (mask[v] == 0) {
      mask[v] = 1;
      ++placed;
    }
  }
  return mask;
}

SimConfig short_run(double rate, RoutingMode routing) {
  SimConfig cfg;
  cfg.injection_rate = rate;
  cfg.warmup_cycles = 40;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 2000;
  cfg.seed = 17;
  cfg.routing = routing;
  return cfg;
}

std::uint64_t sim_digest(const SimTopology& topo, const SimConfig& cfg,
                         const std::vector<char>& faulty = {}) {
  obs::Sink sink;
  const SimStats s = run_simulation(topo, cfg, faulty, &sink);
  EXPECT_GT(s.injected(), 0u) << topo.name();
  return artifacts_digest(sink);
}

TEST(RoutePins, PathRouterArtifactsMatchParentDigests) {
  const auto hb24 = make_hyper_butterfly_sim(2, 4);
  const auto hb23 = make_hyper_butterfly_sim(2, 3);
  // m + 3 = 5 static faults on HB(2,4).
  EXPECT_EQ(hex(sim_digest(*hb24, short_run(0.08, RoutingMode::kNative),
                           seeded_mask(*hb24, 5, 3))),
            "0xb46527b71954632f")
      << "HB(2,4) static faults";
  {
    obs::Sink sink;
    const std::vector<FaultEvent> events{{30, 9}, {90, 100}, {90, 41},
                                         {150, 177}, {400, 3}};
    (void)run_simulation_with_fault_events(
        *hb24, short_run(0.1, RoutingMode::kNative), events, &sink);
    EXPECT_EQ(hex(artifacts_digest(sink)), "0x395a92884ef293d1")
        << "HB(2,4) fault events";
  }
  EXPECT_EQ(hex(sim_digest(*hb23, short_run(0.05, RoutingMode::kValiant))),
            "0xaab2bf9dc200a36a")
      << "HB(2,3) Valiant";

  struct Case {
    std::unique_ptr<SimTopology> topo;
    const char* native;
    const char* valiant;
  };
  Case cases[] = {
      {make_hypercube_sim(5), "0x188d48cdb20f07f8", "0xc41eb5dc298c8f9e"},
      {make_butterfly_sim(4), "0x142d64a56d40240b", "0x5c7bd518c7b5a834"},
      {make_ccc_sim(4), "0xaa5b2a00194ee8d2", "0x09a5d4e1a088d223"},
      {make_hyper_debruijn_sim(2, 3), "0xeb459b65d71ed071",
       "0x4bfefce4964239ea"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(hex(sim_digest(*c.topo, short_run(0.06, RoutingMode::kNative))),
              c.native)
        << c.topo->name() << " native";
    EXPECT_EQ(hex(sim_digest(*c.topo, short_run(0.06, RoutingMode::kValiant))),
              c.valiant)
        << c.topo->name() << " Valiant";
  }
  // An adapter without fault routing drops every planned packet as
  // unsupported while a fault is present.
  const auto cube = make_hypercube_sim(5);
  EXPECT_EQ(hex(sim_digest(*cube, short_run(0.06, RoutingMode::kNative),
                           seeded_mask(*cube, 2, 5))),
            "0x64b5bd5ee51ad67a")
      << "H(5) static faults";
}

TEST(RoutePins, WormholeArtifactsMatchParentDigests) {
  // Channel numbering on every adapter: HD's merged de Bruijn edges and
  // CCC's three ports included. Re-pinned once when the wormhole moved to
  // the store-and-forward engine's counter-based traffic, which changes
  // every packet it offers.
  struct Case {
    std::unique_ptr<SimTopology> topo;
    unsigned arity;
    const char* want;
  };
  Case cases[] = {
      {make_hypercube_sim(5), 0, "0x96a6cf18f26241a6"},
      {make_butterfly_sim(4), 4, "0xa717bdbd0c11ccb6"},
      {make_ccc_sim(4), 4, "0x069fb170ea0e092f"},
      {make_hyper_debruijn_sim(2, 3), 0, "0x3094b7673bf2049c"},
      {make_hyper_butterfly_sim(1, 3), 3, "0x5758164b6afe4b02"},
  };
  for (const Case& c : cases) {
    WormholeConfig cfg;
    cfg.vcs = 6;
    cfg.injection_rate = 0.04;
    cfg.warmup_cycles = 40;
    cfg.measure_cycles = 200;
    cfg.seed = 23;
    obs::Sink sink;
    const WormholeStats s = run_wormhole(*c.topo, cfg, c.arity, nullptr, &sink);
    EXPECT_FALSE(s.deadlocked) << c.topo->name();
    EXPECT_EQ(hex(artifacts_digest(sink)), c.want) << c.topo->name();
  }
}

TEST(RoutePins, RouteNodeSequencesMatchParentDigests) {
  struct Case {
    std::unique_ptr<SimTopology> topo;
    const char* want;
  };
  Case cases[] = {
      {make_hypercube_sim(5), "0x06105605653d0383"},
      {make_butterfly_sim(4), "0xa1d5b2b4a1375c83"},
      {make_ccc_sim(4), "0x00a4771b58e65983"},
      {make_hyper_debruijn_sim(2, 3), "0xa69eac83328f5b83"},
      {make_hyper_butterfly_sim(1, 3), "0x27bdf22c6e94ab43"},
      {make_hyper_butterfly_sim(2, 3), "0x700c6f3521690383"},
  };
  for (const Case& c : cases) {
    const SimTopology& t = *c.topo;
    Fnv d;
    for (std::uint32_t s = 0; s < t.num_nodes(); ++s) {
      for (std::uint32_t v = 0; v < t.num_nodes(); ++v) {
        const std::vector<std::uint32_t> path = t.route(s, v);
        d.add(path.size());
        for (const std::uint32_t x : path) d.add(x);
      }
    }
    EXPECT_EQ(hex(d.h), c.want) << t.name();
  }
}

TEST(RoutePins, RouteAvoidingMatchesParentDigests) {
  // Per instance, masks of 0 .. m+3 seeded faults; every ordered pair is
  // routed without bans, then with the pair's seeded first-hop ban.
  const std::pair<unsigned, const char*> cases[] = {
      {1, "0x0b858298b4cd3949"}, {2, "0x24c60dff1aad99fc"}};
  for (const auto& [m, want] : cases) {
    const auto topo = make_hyper_butterfly_sim(m, 3);
    Fnv d;
    auto add = [&d](const SimFaultRoute& r) {
      d.add(static_cast<std::uint64_t>(r.status));
      d.add(r.path.size());
      for (const std::uint32_t x : r.path) d.add(x);
    };
    std::mt19937_64 rng(m);
    for (unsigned faults = 0; faults <= m + 3; ++faults) {
      const std::vector<char> mask = seeded_mask(*topo, faults, 100 + faults);
      for (std::uint32_t s = 0; s < topo->num_nodes(); ++s) {
        const std::vector<std::uint32_t> nbrs = topo->neighbors(s);
        ASSERT_EQ(nbrs.size(), m + 4u);
        for (std::uint32_t v = 0; v < topo->num_nodes(); ++v) {
          add(topo->route_avoiding(s, v, mask));
          add(topo->route_avoiding(s, v, mask, {nbrs[rng() % nbrs.size()]}));
        }
      }
    }
    EXPECT_EQ(hex(d.h), want) << "HB(" << m << ",3)";
  }
}

}  // namespace
}  // namespace hbnet

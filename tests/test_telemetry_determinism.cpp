// Regression tests for the telemetry determinism contract: exported
// metrics/links artifacts are a pure function of (topology, config) --
// byte-identical across repeated runs -- and the per-link table is emitted
// in canonical (src, dst) order rather than hash or registration order.
// Guards the sorted-extraction fixes in the store-and-forward engine
// (sim/sharded.cpp: the path router tallies links in an unordered_map) and
// sim/wormhole.cpp (channel registration order).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/wormhole.hpp"

namespace hbnet {
namespace {

struct Artifacts {
  std::string metrics_json;
  std::string links_csv;
};

Artifacts export_artifacts(const obs::Sink& sink) {
  std::ostringstream metrics, links;
  sink.write_metrics_json(metrics);
  sink.write_links_csv(links);
  return {metrics.str(), links.str()};
}

void expect_links_sorted(const obs::Sink& sink) {
  ASSERT_FALSE(sink.links().empty());
  for (std::size_t i = 1; i < sink.links().size(); ++i) {
    const auto& a = sink.links()[i - 1];
    const auto& b = sink.links()[i];
    EXPECT_LT(std::make_pair(a.src, a.dst), std::make_pair(b.src, b.dst))
        << "links()[" << i << "] out of canonical (src, dst) order";
  }
}

TEST(TelemetryDeterminism, StoreForwardArtifactsAreByteIdentical) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.seed = 42;

  obs::Sink first_sink;
  const SimStats first = run_simulation(*topo, cfg, {}, &first_sink);
  EXPECT_GT(first.delivered(), 0u);
  const Artifacts a = export_artifacts(first_sink);
  expect_links_sorted(first_sink);

  obs::Sink second_sink;
  (void)run_simulation(*topo, cfg, {}, &second_sink);
  const Artifacts b = export_artifacts(second_sink);

  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

TEST(TelemetryDeterminism, WormholeArtifactsAreByteIdentical) {
  auto topo = make_butterfly_sim(4);
  WormholeConfig cfg;
  cfg.vcs = 6;
  cfg.injection_rate = 0.06;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 300;
  cfg.seed = 42;

  obs::Sink first_sink;
  const WormholeStats first =
      run_wormhole(*topo, cfg, 4, nullptr, &first_sink);
  ASSERT_FALSE(first.deadlocked);
  EXPECT_GT(first.packets.delivered(), 0u);
  const Artifacts a = export_artifacts(first_sink);
  expect_links_sorted(first_sink);

  obs::Sink second_sink;
  (void)run_wormhole(*topo, cfg, 4, nullptr, &second_sink);
  const Artifacts b = export_artifacts(second_sink);

  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.links_csv, b.links_csv);
}

TEST(TelemetryDeterminism, FaultRunArtifactsAreByteIdentical) {
  auto topo = make_hyper_butterfly_sim(1, 3);
  SimConfig cfg;
  cfg.injection_rate = 0.04;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 250;
  cfg.seed = 7;
  std::vector<char> faulty(topo->num_nodes(), 0);
  faulty[3] = 1;
  faulty[11] = 1;

  obs::Sink s1, s2;
  (void)run_simulation(*topo, cfg, faulty, &s1);
  (void)run_simulation(*topo, cfg, faulty, &s2);
  EXPECT_EQ(export_artifacts(s1).metrics_json,
            export_artifacts(s2).metrics_json);
  EXPECT_EQ(export_artifacts(s1).links_csv, export_artifacts(s2).links_csv);
}

}  // namespace
}  // namespace hbnet

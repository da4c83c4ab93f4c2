// EXT-SIM: packet-level simulation of the Figure-2 trio (plus hypercube and
// butterfly at matched scale): latency vs offered load, and HB under faults.
// This operationalizes the paper's multiprocessor-architecture motivation.
#include <benchmark/benchmark.h>

#include <iomanip>
#include <iostream>
#include <random>

#include "core/hyper_butterfly.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace {

void latency_vs_load() {
  std::cout << "EXT-SIM: mean latency (cycles) vs offered load, uniform "
               "traffic\n";
  // Smaller matched instances keep the sweep fast: ~2k nodes each.
  std::vector<std::unique_ptr<hbnet::SimTopology>> topos;
  topos.push_back(hbnet::make_hyper_butterfly_sim(3, 5));   // 1280
  topos.push_back(hbnet::make_hyper_debruijn_sim(3, 8));    // 2048
  topos.push_back(hbnet::make_hypercube_sim(11));           // 2048
  topos.push_back(hbnet::make_butterfly_sim(8));            // 2048
  std::cout << std::setw(10) << "load";
  for (const auto& t : topos) std::cout << std::setw(12) << t->name();
  std::cout << "\n";
  for (double load : {0.01, 0.05, 0.10, 0.15, 0.20}) {
    std::cout << std::setw(10) << load;
    for (const auto& t : topos) {
      hbnet::SimConfig cfg;
      cfg.injection_rate = load;
      cfg.warmup_cycles = 100;
      cfg.measure_cycles = 400;
      cfg.drain_cycles = 20000;
      hbnet::SimStats s = hbnet::run_simulation(*t, cfg);
      std::cout << std::setw(12) << std::fixed << std::setprecision(2)
                << s.mean_latency();
      std::cout.unsetf(std::ios::fixed);
    }
    std::cout << "\n";
  }
  std::cout << "(shape: the bounded-degree networks saturate earlier than\n"
            << "the hypercube; HB tracks HD at matched degree class)\n";
}

void latency_histogram_summary() {
  std::cout << "\nEXT-SIM: HB(3,5) latency histogram summary, uniform "
               "traffic\n  load    p50   p90   p99   max\n";
  auto topo = hbnet::make_hyper_butterfly_sim(3, 5);
  for (double load : {0.01, 0.05, 0.10}) {
    hbnet::SimConfig cfg;
    cfg.injection_rate = load;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 400;
    cfg.drain_cycles = 20000;
    hbnet::SimStats s = hbnet::run_simulation(*topo, cfg);
    std::cout << "  " << load << "    " << s.latency_percentile(0.5) << "    "
              << s.latency_percentile(0.9) << "    "
              << s.latency_percentile(0.99) << "    " << s.max_latency()
              << "\n";
  }
  std::cout << "(quantiles come from the fixed-bucket obs::Histogram inside\n"
               "SimStats -- constant memory regardless of delivered count)\n";
}

void faulted_hb() {
  std::cout << "\nEXT-SIM: HB(3,5) under random node faults (load 0.05)\n"
            << "  faults  delivered  dropped  mean-latency\n";
  auto topo = hbnet::make_hyper_butterfly_sim(3, 5);
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::uint32_t> pick(0, topo->num_nodes() - 1);
  for (unsigned faults : {0u, 3u, 6u, 12u}) {
    std::vector<char> faulty(topo->num_nodes(), 0);
    unsigned placed = 0;
    while (placed < faults) {
      std::uint32_t f = pick(rng);
      if (!faulty[f]) {
        faulty[f] = 1;
        ++placed;
      }
    }
    hbnet::SimConfig cfg;
    cfg.injection_rate = 0.05;
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    cfg.drain_cycles = 20000;
    hbnet::SimStats s =
        hbnet::run_simulation(*topo, cfg, faults ? faulty : std::vector<char>{});
    std::cout << "  " << faults << "       " << s.delivered() << "     "
              << s.dropped() << "        " << s.mean_latency() << "\n";
  }
  std::cout << "(with <= m+3 = 6 faults nothing is dropped: Theorem 5 at "
               "work; latency degrades gracefully)\n";
}

void BM_SimulateHb(benchmark::State& state) {
  auto topo = hbnet::make_hyper_butterfly_sim(2, 4);
  hbnet::SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 5000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::run_simulation(*topo, cfg));
  }
}
BENCHMARK(BM_SimulateHb)->Unit(benchmark::kMillisecond);

// Path router vs implicit HB router on the one store-and-forward engine at
// equal node count -- HB(2,8), 8192 nodes, identical load and horizon.
// BM_SimSerialHb28 (the name predates the single engine) runs
// run_simulation: one shard, each packet carrying the node vector that
// SimTopology::route materializes. BM_SimShardedHb28/1 runs
// the closed-form HbImplicitRouter with no per-packet allocation; the 2-
// and 4-thread variants show shard-parallel scaling on top.
hbnet::SimConfig matched_cfg() {
  hbnet::SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 5000;
  return cfg;
}

void BM_SimSerialHb28(benchmark::State& state) {
  auto topo = hbnet::make_hyper_butterfly_sim(2, 8);
  const hbnet::SimConfig cfg = matched_cfg();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::run_simulation(*topo, cfg));
  }
}
BENCHMARK(BM_SimSerialHb28)->Unit(benchmark::kMillisecond);

void BM_SimShardedHb28(benchmark::State& state) {
  const hbnet::HyperButterfly hb(2, 8);
  const hbnet::SimConfig cfg = matched_cfg();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbnet::run_simulation_sharded(hb, cfg, /*shards=*/0, threads));
  }
}
BENCHMARK(BM_SimShardedHb28)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Million-node scale: HB(3,14) = 1,835,008 nodes, the paper's "scalable"
// claim exercised end to end. Uniform and shuffle (transpose-like) drain
// fully; hotspot saturates node 0 at any feasible rate on an instance this
// size, so it runs a short horizon and stops at the cap -- the point is
// that a saturated million-node cycle still costs the same bounded sweep.
void BM_SimShardedMillion(benchmark::State& state) {
  const hbnet::HyperButterfly hb(3, 14);
  hbnet::SimConfig cfg;
  cfg.injection_rate = 0.05;
  switch (state.range(0)) {
    case 0:
      cfg.pattern = hbnet::TrafficPattern::kUniform;
      break;
    case 1:
      cfg.pattern = hbnet::TrafficPattern::kShuffle;
      break;
    default:
      cfg.pattern = hbnet::TrafficPattern::kHotspot;
      break;
  }
  const bool saturating = cfg.pattern == hbnet::TrafficPattern::kHotspot;
  cfg.warmup_cycles = saturating ? 10 : 20;
  cfg.measure_cycles = saturating ? 50 : 100;
  cfg.drain_cycles = saturating ? 200 : 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hbnet::run_simulation_sharded(hb, cfg, /*shards=*/0, /*threads=*/0));
  }
}
BENCHMARK(BM_SimShardedMillion)
    ->Arg(0)->Arg(1)->Arg(2)
    ->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  // The narrative tables only run interactively (no benchmark flags):
  // bench_json.sh invokes this binary with --benchmark_filter and wants
  // machine-readable output only.
  const bool interactive = argc == 1;
  benchmark::Initialize(&argc, argv);
  if (interactive) {
    latency_vs_load();
    latency_histogram_summary();
    faulted_hb();
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

// RMK10: fault-tolerant routing. Success rate and path stretch of the
// Theorem-5 disjoint-path router as the number of random node faults grows
// past the m+3 guarantee, plus throughput of the fault router.
#include <benchmark/benchmark.h>

#include <iostream>
#include <random>
#include <vector>

#include "core/fault_routing.hpp"
#include "sim/topology.hpp"

namespace {

void fault_sweep() {
  hbnet::HyperButterfly hb(3, 5);  // degree 7, tolerates any 6 faults
  std::cout << "RMK10: HB(3,5) fault sweep, 300 random (pair, fault-set) "
               "trials per row\n"
            << "  faults  family-success  with-bfs-fallback  mean-stretch\n";
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<hbnet::HbIndex> pick(0, hb.num_nodes() - 1);
  for (unsigned faults : {0u, 2u, 4u, 6u, 10u, 20u, 40u}) {
    unsigned family_ok = 0, total_ok = 0, trials = 0;
    double stretch_sum = 0;
    unsigned stretch_n = 0;
    for (int trial = 0; trial < 300; ++trial) {
      hbnet::HbIndex s = pick(rng), t = pick(rng);
      if (s == t) continue;
      hbnet::HbFaultSet fs;
      while (fs.size() < faults) {
        hbnet::HbIndex f = pick(rng);
        if (f == s || f == t) continue;
        fs.add(hb, hb.node_at(f));
      }
      ++trials;
      hbnet::FaultRouteResult nofall = hbnet::route_around_faults(
          hb, hb.node_at(s), hb.node_at(t), fs, /*bfs_fallback=*/false);
      hbnet::FaultRouteResult withfall = hbnet::route_around_faults(
          hb, hb.node_at(s), hb.node_at(t), fs, /*bfs_fallback=*/true);
      family_ok += nofall.ok();
      total_ok += withfall.ok();
      if (withfall.ok()) {
        unsigned base = hb.distance(hb.node_at(s), hb.node_at(t));
        if (base > 0) {
          stretch_sum +=
              static_cast<double>(withfall.path.size() - 1) / base;
          ++stretch_n;
        }
      }
    }
    std::cout << "  " << faults << "       " << family_ok << "/" << trials
              << "          " << total_ok << "/" << trials << "            "
              << (stretch_n ? stretch_sum / stretch_n : 0.0) << "\n";
  }
  std::cout << "Guarantee: with <= m+3 = 6 faults the family always "
               "succeeds; beyond that the BFS fallback covers the gap while\n"
               "the graph remains connected.\n";
}

void BM_FaultRoute(benchmark::State& state) {
  hbnet::HyperButterfly hb(3, 6);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<hbnet::HbIndex> pick(0, hb.num_nodes() - 1);
  hbnet::HbFaultSet fs;
  while (fs.size() < static_cast<std::size_t>(state.range(0))) {
    fs.add(hb, hb.node_at(pick(rng)));
  }
  for (auto _ : state) {
    hbnet::HbIndex s = pick(rng), t = pick(rng);
    if (s == t || fs.contains(hb, hb.node_at(s)) ||
        fs.contains(hb, hb.node_at(t))) {
      continue;
    }
    benchmark::DoNotOptimize(hbnet::route_around_faults(
        hb, hb.node_at(s), hb.node_at(t), fs, /*bfs_fallback=*/false));
  }
}
BENCHMARK(BM_FaultRoute)->Arg(0)->Arg(3)->Arg(6)->Unit(benchmark::kMicrosecond);

// Fault routing through the simulator adapter (HyperButterflySim::
// route_avoiding) around m+3 random node faults. Args: m, n, warm. Warm:
// every relative position is already planned, so a call replays stored
// generator bytes. Cold: every call plans a new relative position (one
// Theorem-5 construction, with max flow on the B_n layer).
void BM_RouteAvoiding(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const auto n = static_cast<unsigned>(state.range(1));
  const bool warm = state.range(2) != 0;
  auto topo = hbnet::make_hyper_butterfly_sim(m, n);
  const std::uint32_t num = topo->num_nodes();
  std::mt19937_64 rng(5);
  std::vector<char> mask(num, 0);
  for (unsigned k = 0; k < m + 3;) {
    const auto f = static_cast<std::uint32_t>(rng() % num);
    if (mask[f] == 0) {
      mask[f] = 1;
      ++k;
    }
  }
  std::vector<std::uint32_t> healthy;
  for (std::uint32_t v = 0; v < num; ++v) {
    if (mask[v] == 0) healthy.push_back(v);
  }
  // From one source, distinct targets are distinct relative positions.
  const std::uint32_t src = healthy.front();
  const std::vector<std::uint32_t> dsts(healthy.begin() + 1, healthy.end());
  std::size_t next = 0;
  if (warm) {
    for (const std::uint32_t v : dsts) (void)topo->route_avoiding(src, v, mask);
  } else {
    (void)topo->route_avoiding(src, dsts[next++], mask);  // layer graph
  }
  for (auto _ : state) {
    std::uint32_t u = src, v = 0;
    if (warm) {
      u = healthy[rng() % healthy.size()];
      v = healthy[rng() % healthy.size()];
    } else {
      if (next == dsts.size()) {
        state.PauseTiming();
        topo = hbnet::make_hyper_butterfly_sim(m, n);
        next = 0;
        (void)topo->route_avoiding(src, dsts[next++], mask);
        state.ResumeTiming();
      }
      v = dsts[next++];
    }
    benchmark::DoNotOptimize(topo->route_avoiding(u, v, mask));
  }
}
BENCHMARK(BM_RouteAvoiding)
    ->Args({2, 4, 0})
    ->Args({2, 4, 1})
    ->Args({3, 5, 0})
    ->Args({3, 5, 1})
    ->ArgNames({"m", "n", "warm"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  fault_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

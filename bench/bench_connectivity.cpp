// COR1: vertex connectivity of the constructed graphs via max-flow --
// kappa(HB) = m+4 (maximal), kappa(HD) = m+2, kappa(B) = 4, kappa(H) = m.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/maxflow.hpp"
#include "graph/sparsify.hpp"
#include "topology/butterfly.hpp"
#include "topology/hb_implicit.hpp"
#include "topology/hyper_debruijn.hpp"
#include "topology/hypercube.hpp"

namespace {

void connectivity_table() {
  std::cout << "COR1: exact vertex connectivity (max-flow) on small "
               "instances\n  network      kappa  degree(min)  maximally-FT\n";
  auto report = [](const std::string& name, const hbnet::Graph& g) {
    std::uint32_t kappa = hbnet::vertex_connectivity(g);
    auto [lo, hi] = g.degree_range();
    (void)hi;
    std::cout << "  " << name << "   " << kappa << "      " << lo << "            "
              << (kappa == lo ? "yes" : "NO") << "\n";
  };
  report("H(4)      ", hbnet::Hypercube(4).to_graph());
  report("B(4)      ", hbnet::Butterfly(4).to_graph());
  report("HD(2,3)   ", hbnet::HyperDeBruijn(2, 3).to_graph());
  report("HB(1,3)   ", hbnet::HyperButterfly(1, 3).to_graph());
  report("HB(2,3)   ", hbnet::HyperButterfly(2, 3).to_graph());
  std::cout << "Note: HD is *not* maximally fault tolerant (kappa = m+2 < "
               "max degree m+4); HB is (kappa = degree = m+4).\n";
  std::cout << "\nSampled kappa lower bound on larger instances:\n";
  {
    hbnet::Graph g = hbnet::HyperButterfly(3, 6).to_graph();
    bool ok = hbnet::check_local_connectivity_sampled(g, 7, 20);
    std::cout << "  HB(3,6): 20 sampled pairs all have >= 7 disjoint paths: "
              << (ok ? "yes" : "NO") << "\n";
  }
}

void BM_MaxDisjointPathsFlow(benchmark::State& state) {
  hbnet::Graph g = hbnet::HyperButterfly(2, static_cast<unsigned>(state.range(0)))
                       .to_graph();
  hbnet::NodeId t = g.num_nodes() / 2 + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::max_disjoint_paths(g, 0, t));
  }
}
BENCHMARK(BM_MaxDisjointPathsFlow)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMicrosecond);

void BM_VertexConnectivityExact(benchmark::State& state) {
  hbnet::Graph g =
      hbnet::HyperButterfly(1, static_cast<unsigned>(state.range(0))).to_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::vertex_connectivity(g));
  }
}
BENCHMARK(BM_VertexConnectivityExact)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

/// Thread scaling of the exact engine on HB(2,3) under the *generic*
/// Even-Tarjan schedule (what vertex_connectivity runs on an arbitrary
/// graph): the same exact computation at 1/2/4 threads, bit-identical
/// results across thread counts by construction (see docs/performance.md).
void BM_VertexConnectivityThreads(benchmark::State& state) {
  hbnet::Graph g = hbnet::HyperButterfly(2, 3).to_graph();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::vertex_connectivity(g, threads));
  }
}
BENCHMARK(BM_VertexConnectivityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

/// The ConnectivitySweep engine on its fast path, driven exactly the way
/// `hbnet_cli analyze --exact-connectivity` drives it: single-source
/// schedule (HB is a Cayley graph, hence vertex transitive), orbit target
/// reduction, structural pruning, per-worker VertexFlow kernels.
/// Range is (m, threads, sparsify); compare against
/// BM_VertexConnectivityThreads for the source-set-reduction speedup.
/// On HB sparsify is a byte-identity no-op (kappa = degree, so the
/// certificate is the whole graph) -- the 0/1 pair at m=4 measures its
/// overhead; the real arena win is BM_VertexConnectivitySparsifyDense.
void BM_VertexConnectivityEvenTarjan(benchmark::State& state) {
  const auto m = static_cast<unsigned>(state.range(0));
  const unsigned n = 3;
  hbnet::Graph g = hbnet::HyperButterfly(m, n).to_graph();
  const auto threads = static_cast<unsigned>(state.range(1));
  const bool sparsify = state.range(2) != 0;
  for (auto _ : state) {
    hbnet::SweepOptions opts;
    opts.threads = threads;
    opts.vertex_transitive = true;
    opts.sparsify = sparsify;
    opts.orbit_rep = [m, n](hbnet::NodeId v) {
      return hbnet::hb_cube_orbit_representative(m, n, v);
    };
    hbnet::ConnectivitySweep sweep(g, opts);
    benchmark::DoNotOptimize(sweep.run().kappa);
  }
}
BENCHMARK(BM_VertexConnectivityEvenTarjan)
    ->Args({2, 1, 0})
    ->Args({2, 2, 0})
    ->Args({2, 4, 0})
    ->Args({3, 1, 0})
    ->Args({3, 2, 0})
    ->Args({3, 4, 0})
    ->Args({4, 1, 0})
    ->Args({4, 1, 1})
    ->Args({4, 4, 1})
    ->ArgNames({"m", "threads", "sparsify"})
    ->Unit(benchmark::kMillisecond);

/// Implicit generator-arithmetic adjacency vs materialized CSR on the same
/// sweep (HB(3,3), single thread): the price of computing each
/// neighborhood on the fly instead of reading it from the CSR arrays.
void BM_VertexConnectivityImplicit(benchmark::State& state) {
  const unsigned m = 3, n = 3;
  const bool implicit = state.range(0) != 0;
  hbnet::Graph g = hbnet::HyperButterfly(m, n).to_graph();
  hbnet::HbImplicitAdjacency imp(m, n);
  hbnet::CsrAdjacency csr(g);
  const hbnet::AdjacencyProvider& adj =
      implicit ? static_cast<const hbnet::AdjacencyProvider&>(imp) : csr;
  for (auto _ : state) {
    hbnet::SweepOptions opts;
    opts.threads = 1;
    opts.vertex_transitive = true;
    opts.orbit_rep = [m, n](hbnet::NodeId v) {
      return hbnet::hb_cube_orbit_representative(m, n, v);
    };
    hbnet::ConnectivitySweep sweep(adj, opts);
    benchmark::DoNotOptimize(sweep.run().kappa);
  }
}
BENCHMARK(BM_VertexConnectivityImplicit)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"implicit"})
    ->Unit(benchmark::kMillisecond);

/// The regime Nagamochi-Ibaraki certificates exist for: kappa far below
/// the minimum degree. Two K_48 cliques + 3 bridges + a degree-3 apex
/// (kappa = 3, 2262 edges): with sparsify every solve runs on a
/// <= 3(n-1)-edge certificate instead of the whole graph.
void BM_VertexConnectivitySparsifyDense(benchmark::State& state) {
  hbnet::GraphBuilder b(97);
  for (hbnet::NodeId u = 0; u < 48; ++u) {
    for (hbnet::NodeId v = u + 1; v < 48; ++v) {
      b.add_edge(u, v);
      b.add_edge(u + 48, v + 48);
    }
  }
  for (hbnet::NodeId i = 0; i < 3; ++i) b.add_edge(i, 48 + i);
  for (hbnet::NodeId i = 0; i < 3; ++i) b.add_edge(96, i);
  hbnet::Graph g = b.build();
  const bool sparsify = state.range(0) != 0;
  for (auto _ : state) {
    hbnet::SweepOptions opts;
    opts.threads = 1;
    opts.sparsify = sparsify;
    hbnet::ConnectivitySweep sweep(g, opts);
    benchmark::DoNotOptimize(sweep.run().kappa);
  }
}
BENCHMARK(BM_VertexConnectivitySparsifyDense)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"sparsify"})
    ->Unit(benchmark::kMillisecond);

/// One Menger solve as the kappa sweep runs it: source 0 of HB(5,6)
/// against a fixed set of 64 orbit targets (every 18th of the 1196 in the
/// schedule), limit m+4 = 9, on the 9-certificate. kernel:0 is the
/// explicit vertex-split Dinic reference (detail::split_solve), kernel:1
/// the implicit-split VertexFlow the sweep uses, seeded as the sweep seeds
/// it with the source's BFS distances on the certificate (one BFS, outside
/// the timed loop, as the sweep runs one per stage). One iteration solves
/// all 64 targets; the solves_per_s counter gives the per-solve rate.
void BM_VertexFlowSolve(benchmark::State& state) {
  constexpr unsigned m = 5, n = 6;
  const hbnet::HbImplicitAdjacency adj(m, n);
  const hbnet::SparseCertificate cert = hbnet::sparse_certificate(adj, m + 4);
  std::vector<hbnet::NodeId> targets;
  {
    std::vector<hbnet::NodeId> scratch(adj.max_degree());
    const auto nb = adj.neighbors(0, scratch.data());
    for (hbnet::NodeId t = 1; t < adj.num_nodes(); ++t) {
      if (std::find(nb.begin(), nb.end(), t) == nb.end() &&
          hbnet::hb_cube_orbit_representative(m, n, t) == t) {
        targets.push_back(t);
      }
    }
  }
  std::vector<hbnet::NodeId> sample;
  for (std::size_t i = 0; i < targets.size() && sample.size() < 64; i += 18) {
    sample.push_back(targets[i]);
  }
  const bool implicit = state.range(0) != 0;
  hbnet::VertexFlow flow(cert.graph);
  hbnet::Dinic split = hbnet::detail::make_split_prototype(cert.graph);
  const std::vector<hbnet::Dist> dist = hbnet::bfs(cert.graph, 0).dist;
  for (auto _ : state) {
    for (const hbnet::NodeId t : sample) {
      benchmark::DoNotOptimize(
          implicit ? flow.solve(0, t, m + 4, dist)
                   : hbnet::detail::split_solve(split, 0, t, m + 4));
    }
  }
  state.counters["solves_per_s"] = benchmark::Counter(
      static_cast<double>(sample.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_VertexFlowSolve)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"kernel"})
    ->Unit(benchmark::kMillisecond);

void BM_EdgeConnectivityThreads(benchmark::State& state) {
  hbnet::Graph g = hbnet::HyperButterfly(2, 3).to_graph();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hbnet::edge_connectivity(g, threads));
  }
}
BENCHMARK(BM_EdgeConnectivityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  connectivity_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

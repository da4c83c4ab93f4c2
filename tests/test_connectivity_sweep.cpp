// The Even-Tarjan connectivity engine (graph/connectivity_sweep.hpp):
// brute-force cross-checks against the all-pairs minimum of the explicit
// vertex-split Dinic reference, pinned sweep states and flow histograms,
// the thread-count determinism contract (identical kappa AND byte-identical
// checkpoints), kill/resume equivalence, checkpoint format round-trips, and
// the SweepState validators.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/validate.hpp"
#include "core/hyper_butterfly.hpp"
#include "graph/adjacency.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "obs/metrics.hpp"
#include "topology/hb_implicit.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {
namespace {

const unsigned kThreadCounts[] = {1, 2, 8};

Graph random_graph(NodeId n, double p, std::uint64_t seed, bool connected) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  GraphBuilder b(n);
  if (connected) {
    for (NodeId u = 1; u < n; ++u) {
      b.add_edge(u, std::uniform_int_distribution<NodeId>(0, u - 1)(rng));
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (coin(rng) < p) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Whitney reference: kappa(G) is the minimum local connectivity over *all*
/// pairs (adjacent pairs included -- they dominate only on complete graphs,
/// where the minimum is n-1). Intentionally quadratic, and solved on the
/// explicit vertex-split Dinic network rather than the engine's VertexFlow
/// kernel, so the reference stays independent of the code under test.
std::uint32_t brute_force_kappa(const Graph& g) {
  const NodeId n = g.num_nodes();
  Dinic split = detail::make_split_prototype(g);
  std::uint32_t best = n - 1;  // K_n value; callers guarantee n >= 2
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = s + 1; t < n; ++t) {
      best = std::min(best, static_cast<std::uint32_t>(
                                detail::split_solve(split, s, t, n)));
    }
  }
  return best;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "sweep_" + name + ".ckpt";
}

TEST(ConnectivitySweep, MatchesBruteForceOnRandomGraphs) {
  // ~20 graphs across densities, sizes, and connectivity regimes. Every
  // graph is checked through the public entry point (which delegates to the
  // engine) so the whole stack is exercised.
  std::uint64_t seed = 1;
  for (NodeId n : {4, 6, 9, 12}) {
    for (double p : {0.1, 0.3, 0.6, 0.9}) {
      Graph g = random_graph(n, p, seed++, /*connected=*/true);
      EXPECT_EQ(vertex_connectivity(g), brute_force_kappa(g))
          << "n=" << n << " p=" << p;
    }
  }
  for (NodeId n : {5, 8, 11}) {
    // No spanning tree: disconnected graphs (kappa = 0) are likely.
    Graph g = random_graph(n, 0.25, seed++, /*connected=*/false);
    EXPECT_EQ(vertex_connectivity(g), brute_force_kappa(g)) << "n=" << n;
  }
}

TEST(ConnectivitySweep, EdgeCaseGraphs) {
  {  // Two components: kappa = 0.
    GraphBuilder b(6);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(3, 4);
    b.add_edge(4, 5);
    EXPECT_EQ(vertex_connectivity(b.build()), 0u);
  }
  {  // Complete K_5: every pair adjacent, kappa = n-1 = 4.
    Graph g = random_graph(5, 1.1, 7, false);
    EXPECT_EQ(vertex_connectivity(g), 4u);
    EXPECT_EQ(brute_force_kappa(g), 4u);
  }
  {  // Star K_{1,4}: the hub is a 1-cut; every leaf pair is non-adjacent.
    GraphBuilder b(5);
    for (NodeId leaf = 1; leaf < 5; ++leaf) b.add_edge(0, leaf);
    EXPECT_EQ(vertex_connectivity(b.build()), 1u);
  }
  {  // Path P_4: adjacent pairs coexist with distance-3 pairs.
    GraphBuilder b(4);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(2, 3);
    EXPECT_EQ(vertex_connectivity(b.build()), 1u);
  }
  {  // Single vertex and single edge.
    EXPECT_EQ(vertex_connectivity(GraphBuilder(1).build()), 0u);
    GraphBuilder b(2);
    b.add_edge(0, 1);
    EXPECT_EQ(vertex_connectivity(b.build()), 1u);
  }
}

TEST(ConnectivitySweep, SingleSourceScheduleMatchesGenericOnCayleyGraphs) {
  // The vertex-transitive fast path must agree with the generic schedule
  // (and hence with brute force) on graphs that really are transitive.
  for (auto [m, n] : {std::pair<unsigned, unsigned>{1, 3}, {2, 3}}) {
    Graph g = HyperButterfly(m, n).to_graph();
    SweepOptions opts;
    opts.vertex_transitive = true;
    ConnectivitySweep sweep(g, opts);
    ExactConnectivityResult r = sweep.run();
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.kappa, m + 4);
    EXPECT_EQ(r.stages, 1u);
    EXPECT_EQ(r.kappa, vertex_connectivity(g));
  }
  Graph q4 = Hypercube(4).to_graph();
  SweepOptions opts;
  opts.vertex_transitive = true;
  EXPECT_EQ(ConnectivitySweep(q4, opts).run().kappa, 4u);
}

TEST(ConnectivitySweep, ThreadCountInvariance) {
  // The determinism contract: kappa, every SweepState field, and the final
  // checkpoint BYTES are identical for every thread count.
  Graph g = HyperButterfly(2, 3).to_graph();
  std::string reference_bytes;
  std::uint32_t reference_kappa = 0;
  for (unsigned threads : kThreadCounts) {
    const std::string path =
        temp_path("threads" + std::to_string(threads));
    std::remove(path.c_str());
    SweepOptions opts;
    opts.threads = threads;
    opts.block_size = 16;  // many blocks, so scheduling really interleaves
    opts.checkpoint_path = path;
    ConnectivitySweep sweep(g, opts);
    ExactConnectivityResult r = sweep.run();
    ASSERT_TRUE(r.complete);
    const std::string bytes = slurp(path);
    ASSERT_FALSE(bytes.empty());
    if (reference_bytes.empty()) {
      reference_bytes = bytes;
      reference_kappa = r.kappa;
    } else {
      EXPECT_EQ(r.kappa, reference_kappa) << threads << " threads";
      EXPECT_EQ(bytes, reference_bytes) << threads << " threads";
    }
    std::remove(path.c_str());
  }
  EXPECT_EQ(reference_kappa, 6u);  // kappa(HB(2,3)) = m+4
}

TEST(ConnectivitySweep, KillAndResumeIsByteIdentical) {
  Graph g = HyperButterfly(1, 3).to_graph();
  const std::string uninterrupted_path = temp_path("uninterrupted");
  const std::string resumed_path = temp_path("resumed");
  std::remove(uninterrupted_path.c_str());
  std::remove(resumed_path.c_str());

  SweepOptions base;
  base.block_size = 8;

  SweepOptions one_shot = base;
  one_shot.checkpoint_path = uninterrupted_path;
  ExactConnectivityResult full = ConnectivitySweep(g, one_shot).run();
  ASSERT_TRUE(full.complete);

  // "Kill" the run after every single block: each iteration constructs a
  // fresh sweep that must adopt the on-disk state and advance one block.
  ExactConnectivityResult step;
  int runs = 0;
  for (; runs < 1000; ++runs) {
    SweepOptions opts = base;
    opts.checkpoint_path = resumed_path;
    opts.max_blocks = 1;
    ConnectivitySweep sweep(g, opts);
    if (runs > 0) {
      EXPECT_TRUE(sweep.resumed()) << sweep.resume_note();
    }
    step = sweep.run();
    if (step.complete) break;
  }
  ASSERT_TRUE(step.complete) << "no convergence after " << runs << " runs";
  EXPECT_GT(runs, 0) << "max_blocks=1 should not finish in one run here";
  EXPECT_EQ(step.kappa, full.kappa);
  EXPECT_EQ(slurp(resumed_path), slurp(uninterrupted_path));
  std::remove(uninterrupted_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(ConnectivitySweep, CheckpointRoundTripAndRejection) {
  Graph g = HyperButterfly(1, 3).to_graph();
  SweepState st;
  st.num_nodes = g.num_nodes();
  st.num_edges = g.num_edges();
  st.fingerprint = graph_fingerprint(g);
  st.block_size = 64;
  st.stages_done = 2;
  st.blocks_done = 1;
  st.bound = 5;
  st.solves = 37;
  st.pruned = 4;

  const std::string text = serialize_checkpoint(st);
  std::optional<SweepState> back = parse_checkpoint(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_nodes, st.num_nodes);
  EXPECT_EQ(back->num_edges, st.num_edges);
  EXPECT_EQ(back->fingerprint, st.fingerprint);
  EXPECT_EQ(back->single_source, st.single_source);
  EXPECT_EQ(back->block_size, st.block_size);
  EXPECT_EQ(back->stages_done, st.stages_done);
  EXPECT_EQ(back->blocks_done, st.blocks_done);
  EXPECT_EQ(back->bound, st.bound);
  EXPECT_EQ(back->solves, st.solves);
  EXPECT_EQ(back->pruned, st.pruned);
  EXPECT_EQ(back->complete, st.complete);
  EXPECT_EQ(serialize_checkpoint(*back), text);

  EXPECT_FALSE(parse_checkpoint("").has_value());
  EXPECT_FALSE(parse_checkpoint("not a checkpoint").has_value());
  EXPECT_FALSE(parse_checkpoint(text + "trailing garbage").has_value());
  {
    std::string wrong_version = text;
    wrong_version.replace(wrong_version.find("v1"), 2, "v9");
    EXPECT_FALSE(parse_checkpoint(wrong_version).has_value());
  }
  {
    std::string bad_schedule = text;
    const auto at = bad_schedule.find("even-tarjan");
    ASSERT_NE(at, std::string::npos);
    bad_schedule.replace(at, 11, "round-robin");
    EXPECT_FALSE(parse_checkpoint(bad_schedule).has_value());
  }

  // save/load round trip through a real file.
  const std::string path = temp_path("roundtrip");
  ASSERT_TRUE(save_checkpoint(path, st));
  std::optional<SweepState> loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(serialize_checkpoint(*loaded), text);
  EXPECT_FALSE(load_checkpoint(path + ".missing").has_value());
  std::remove(path.c_str());
}

TEST(ConnectivitySweep, IncompatibleCheckpointRestartsInsteadOfResuming) {
  Graph g = HyperButterfly(1, 3).to_graph();
  const std::string path = temp_path("mismatch");

  // A checkpoint from a *different* graph: same file, wrong fingerprint.
  Graph other = Hypercube(4).to_graph();
  SweepState foreign;
  foreign.num_nodes = other.num_nodes();
  foreign.num_edges = other.num_edges();
  foreign.fingerprint = graph_fingerprint(other);
  foreign.block_size = 256;
  ASSERT_TRUE(save_checkpoint(path, foreign));

  SweepOptions opts;
  opts.checkpoint_path = path;
  ConnectivitySweep sweep(g, opts);
  EXPECT_FALSE(sweep.resumed());
  EXPECT_FALSE(sweep.resume_note().empty());
  ExactConnectivityResult r = sweep.run();  // restarts from scratch
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.kappa, 5u);
  std::remove(path.c_str());
}

TEST(ConnectivitySweep, MetricsAreRecorded) {
  Graph g = HyperButterfly(1, 3).to_graph();
  obs::MetricsRegistry metrics;
  SweepOptions opts;
  opts.metrics = &metrics;
  ExactConnectivityResult r = ConnectivitySweep(g, opts).run();
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(metrics.counter("connectivity.solves").value(), r.solves);
  EXPECT_EQ(metrics.counter("connectivity.pruned").value(), r.pruned);
  EXPECT_EQ(metrics.gauge("connectivity.bound").value(), r.kappa);
  ASSERT_NE(metrics.find_histogram("connectivity.flow"), nullptr);
  EXPECT_EQ(metrics.find_histogram("connectivity.flow")->count(), r.solves);
}

/// Two halves of `half` vertices, dense inside (p_in) and sparse across
/// (p_out): min degree well above kappa, so flows vary along the sweep.
Graph two_communities(NodeId half, double p_in, double p_out,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  GraphBuilder b(2 * half);
  for (NodeId u = 0; u < 2 * half; ++u) {
    for (NodeId v = u + 1; v < 2 * half; ++v) {
      if (coin(rng) < ((u < half) == (v < half) ? p_in : p_out)) {
        b.add_edge(u, v);
      }
    }
  }
  return b.build();
}

TEST(ConnectivitySweep, PinnedStatesAndFlowHistograms) {
  // Every SweepState field (as checkpoint text) and the whole metrics dump,
  // connectivity.flow histogram included, recorded with the explicit
  // vertex-split Dinic kernel. Any change of flow kernel must reproduce
  // them byte for byte at every thread count.
  struct Pin {
    const char* name;
    Graph graph;
    void (*configure)(SweepOptions&);
    const char* checkpoint;
    const char* metrics;
  };
  const Pin pins[] = {
      {"HB(2,3), general schedule", HyperButterfly(2, 3).to_graph(),
       [](SweepOptions& opts) { opts.block_size = 64; },
       R"(hbnet-connectivity-checkpoint v1
graph nodes=96 edges=288 fp=2d5198479895cafa
schedule even-tarjan block=64
progress stages=7 blocks=0 bound=6
work solves=623 pruned=0
complete 1
)",
       R"({"counters":{"connectivity.blocks":14,"connectivity.pruned":0,)"
       R"("connectivity.solves":623,"connectivity.stages":7},)"
       R"("gauges":{"connectivity.arena_arcs_peak":672,"connectivity.bound":6,)"
       R"("connectivity.cert_edges":288},)"
       R"("histograms":{"connectivity.flow":{"count":623,"min":6,"mean":6,)"
       R"("p50":6,"p90":6,"p99":6,"max":6}}})"},
      {"HB(3,3), single source + sparsify", HyperButterfly(3, 3).to_graph(),
       [](SweepOptions& opts) {
         opts.vertex_transitive = true;
         opts.sparsify = true;
         opts.block_size = 32;
       },
       R"(hbnet-connectivity-checkpoint v1
graph nodes=192 edges=672 fp=c33b2940b8b80f09
schedule single-source block=32
progress stages=1 blocks=0 bound=7
work solves=184 pruned=0
complete 1
)",
       R"({"counters":{"connectivity.blocks":6,"connectivity.pruned":0,)"
       R"("connectivity.solves":184,"connectivity.stages":1},)"
       R"("gauges":{"connectivity.arena_arcs_peak":1536,)"
       R"("connectivity.bound":7,"connectivity.cert_edges":672},)"
       R"("histograms":{"connectivity.flow":{"count":184,"min":7,"mean":7,)"
       R"("p50":7,"p90":7,"p99":7,"max":7}}})"},
      {"Q_6, general schedule + sparsify", Hypercube(6).to_graph(),
       [](SweepOptions& opts) {
         opts.sparsify = true;
         opts.block_size = 16;
       },
       R"(hbnet-connectivity-checkpoint v1
graph nodes=64 edges=192 fp=f57f0b6402e6e96b
schedule even-tarjan block=16
progress stages=7 blocks=0 bound=6
work solves=399 pruned=0
complete 1
)",
       R"({"counters":{"connectivity.blocks":28,"connectivity.pruned":0,)"
       R"("connectivity.solves":399,"connectivity.stages":7},)"
       R"("gauges":{"connectivity.arena_arcs_peak":448,"connectivity.bound":6,)"
       R"("connectivity.cert_edges":192},)"
       R"("histograms":{"connectivity.flow":{"count":399,"min":6,"mean":6,)"
       R"("p50":6,"p90":6,"p99":6,"max":6}}})"},
      {"two communities", two_communities(14, 0.8, 0.015, 1701),
       [](SweepOptions& opts) { opts.block_size = 8; },
       R"(hbnet-connectivity-checkpoint v1
graph nodes=28 edges=145 fp=00b6485a954eb401
schedule even-tarjan block=8
progress stages=4 blocks=0 bound=3
work solves=59 pruned=13
complete 1
)",
       R"({"counters":{"connectivity.blocks":12,"connectivity.pruned":13,)"
       R"("connectivity.solves":59,"connectivity.stages":4},)"
       R"("gauges":{"connectivity.arena_arcs_peak":318,"connectivity.bound":3,)"
       R"("connectivity.cert_edges":145},)"
       R"("histograms":{"connectivity.flow":{"count":59,"min":3,)"
       R"("mean":3.40678,"p50":3,"p90":3,"p99":9,"max":9}}})"},
      {"two communities + sparsify", two_communities(16, 0.75, 0.012, 1702),
       [](SweepOptions& opts) {
         opts.sparsify = true;
         opts.block_size = 8;
       },
       R"(hbnet-connectivity-checkpoint v1
graph nodes=32 edges=180 fp=b1e24a3b59a65859
schedule even-tarjan block=8
progress stages=3 blocks=0 bound=2
work solves=47 pruned=20
complete 1
)",
       R"({"counters":{"connectivity.blocks":9,"connectivity.pruned":20,)"
       R"("connectivity.solves":47,"connectivity.stages":3},)"
       R"("gauges":{"connectivity.arena_arcs_peak":382,"connectivity.bound":2,)"
       R"("connectivity.cert_edges":59},)"
       R"("histograms":{"connectivity.flow":{"count":47,"min":2,"mean":2,)"
       R"("p50":2,"p90":2,"p99":2,"max":2}}})"},
  };
  for (const Pin& pin : pins) {
    for (unsigned threads : kThreadCounts) {
      SweepOptions opts;
      pin.configure(opts);
      opts.threads = threads;
      obs::MetricsRegistry metrics;
      opts.metrics = &metrics;
      ConnectivitySweep sweep(pin.graph, opts);
      ASSERT_TRUE(sweep.run().complete) << pin.name;
      std::ostringstream json;
      metrics.write_json(json);
      EXPECT_EQ(serialize_checkpoint(sweep.state()), pin.checkpoint)
          << pin.name << " threads=" << threads;
      EXPECT_EQ(json.str(), pin.metrics) << pin.name << " threads=" << threads;
    }
  }
}

TEST(ConnectivitySweep, ValidatorAcceptsEngineStatesAndRejectsCorruption) {
  Graph g = HyperButterfly(1, 3).to_graph();
  SweepOptions opts;
  ConnectivitySweep sweep(g, opts);
  ExactConnectivityResult r = sweep.run();
  ASSERT_TRUE(r.complete);
  const SweepState good = sweep.state();
  EXPECT_EQ(check::validate(good), "");
  EXPECT_EQ(check::validate(good, g), "");

  SweepState bad = good;
  bad.version = 99;
  EXPECT_NE(check::validate(bad), "");

  bad = good;
  bad.block_size = 0;
  EXPECT_NE(check::validate(bad), "");

  bad = good;
  bad.bound = bad.num_nodes;  // exceeds the trivial n-1 bound
  EXPECT_NE(check::validate(bad), "");

  bad = good;
  bad.blocks_done = 3;  // complete state sitting mid-stage
  EXPECT_NE(check::validate(bad), "");

  bad = good;
  bad.fingerprint ^= 1;
  EXPECT_EQ(check::validate(bad), "");  // shape-only checks still pass
  EXPECT_NE(check::validate(bad, g), "");  // graph identity does not
}

TEST(ConnectivitySweep, SparsifyIsByteIdenticalOnRandomGraphs) {
  // The --sparsify contract: kappa, solve and prune counts, and the final
  // checkpoint BYTES are identical with certificates on or off. ~20 random
  // graphs across sizes and densities plus both schedules.
  std::uint64_t seed = 7000;
  int checked = 0;
  for (NodeId n : {6, 9, 12, 15}) {
    for (double p : {0.2, 0.4, 0.6, 0.8, 1.0}) {
      Graph g = random_graph(n, p, seed++, /*connected=*/true);
      std::string bytes[2];
      std::uint32_t kappa[2];
      for (int s = 0; s < 2; ++s) {
        const std::string path = temp_path("sparsify" + std::to_string(s));
        std::remove(path.c_str());
        SweepOptions opts;
        opts.sparsify = (s == 1);
        opts.block_size = 4;
        opts.checkpoint_path = path;
        ExactConnectivityResult r = ConnectivitySweep(g, opts).run();
        ASSERT_TRUE(r.complete);
        kappa[s] = r.kappa;
        bytes[s] = slurp(path);
        std::remove(path.c_str());
      }
      EXPECT_EQ(kappa[0], kappa[1]) << "n=" << n << " p=" << p;
      EXPECT_EQ(bytes[0], bytes[1]) << "n=" << n << " p=" << p;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 20);
}

TEST(ConnectivitySweep, SparsifyIsByteIdenticalOnHbInstances) {
  for (auto [m, n] : {std::pair<unsigned, unsigned>{2, 3}, {3, 3}}) {
    Graph g = HyperButterfly(m, n).to_graph();
    std::string bytes[2];
    for (int s = 0; s < 2; ++s) {
      const std::string path = temp_path("hb_sparsify" + std::to_string(s));
      std::remove(path.c_str());
      SweepOptions opts;
      opts.vertex_transitive = true;
      opts.sparsify = (s == 1);
      opts.block_size = 32;
      opts.checkpoint_path = path;
      ExactConnectivityResult r = ConnectivitySweep(g, opts).run();
      ASSERT_TRUE(r.complete);
      EXPECT_EQ(r.kappa, m + 4);
      bytes[s] = slurp(path);
      std::remove(path.c_str());
    }
    EXPECT_EQ(bytes[0], bytes[1]) << "HB(" << m << "," << n << ")";
  }
}

TEST(ConnectivitySweep, ImplicitProviderMatchesCsrExactly) {
  // Same schedule, same solve/prune counts, same kappa; the checkpoint
  // differs only in the mode-tagged fingerprint field.
  for (auto [m, n] : {std::pair<unsigned, unsigned>{2, 3}, {3, 3}}) {
    Graph g = HyperButterfly(m, n).to_graph();
    HbImplicitAdjacency imp(m, n);
    SweepOptions opts;
    opts.vertex_transitive = true;
    ConnectivitySweep csr_sweep(g, opts);
    ConnectivitySweep imp_sweep(imp, opts);
    ExactConnectivityResult a = csr_sweep.run();
    ExactConnectivityResult b = imp_sweep.run();
    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    EXPECT_EQ(a.kappa, b.kappa);
    EXPECT_EQ(a.solves, b.solves);
    EXPECT_EQ(a.pruned, b.pruned);
    SweepState sa = csr_sweep.state();
    SweepState sb = imp_sweep.state();
    EXPECT_NE(sa.fingerprint, sb.fingerprint);  // mode tag by design
    sb.fingerprint = sa.fingerprint;
    EXPECT_EQ(serialize_checkpoint(sa), serialize_checkpoint(sb));
  }
}

TEST(ConnectivitySweep, EdgeConnectivitySparsifyEquivalence) {
  std::uint64_t seed = 8100;
  for (NodeId n : {8, 12, 16}) {
    for (double p : {0.3, 0.7}) {
      Graph g = random_graph(n, p, seed++, /*connected=*/true);
      CsrAdjacency csr(g);
      EXPECT_EQ(edge_connectivity(csr, 0, /*sparsify=*/true),
                edge_connectivity(csr, 0, /*sparsify=*/false))
          << "n=" << n << " p=" << p;
    }
  }
  HbImplicitAdjacency imp(2, 3);
  EXPECT_EQ(edge_connectivity(imp, 0, true), 6u);
}

TEST(ConnectivitySweep, KillResumeWithSparsifyAcrossThreadCounts) {
  // Satellite contract: checkpoint kill/resume stays byte-identical with
  // sparsification enabled, at 1, 2, and 8 threads.
  Graph g = HyperButterfly(2, 3).to_graph();
  const std::string uninterrupted_path = temp_path("sp_uninterrupted");
  std::remove(uninterrupted_path.c_str());

  SweepOptions base;
  base.vertex_transitive = true;
  base.sparsify = true;
  base.block_size = 16;

  SweepOptions one_shot = base;
  one_shot.checkpoint_path = uninterrupted_path;
  ExactConnectivityResult full = ConnectivitySweep(g, one_shot).run();
  ASSERT_TRUE(full.complete);
  const std::string reference = slurp(uninterrupted_path);
  std::remove(uninterrupted_path.c_str());

  for (unsigned threads : kThreadCounts) {
    const std::string path =
        temp_path("sp_resume_t" + std::to_string(threads));
    std::remove(path.c_str());
    ExactConnectivityResult step;
    int runs = 0;
    for (; runs < 1000; ++runs) {
      SweepOptions opts = base;
      opts.threads = threads;
      opts.checkpoint_path = path;
      opts.max_blocks = 1;
      ConnectivitySweep sweep(g, opts);
      if (runs > 0) EXPECT_TRUE(sweep.resumed()) << sweep.resume_note();
      step = sweep.run();
      if (step.complete) break;
    }
    ASSERT_TRUE(step.complete) << threads << " threads";
    EXPECT_GT(runs, 0);
    EXPECT_EQ(step.kappa, full.kappa) << threads << " threads";
    EXPECT_EQ(slurp(path), reference) << threads << " threads";
    std::remove(path.c_str());
  }
}

TEST(ConnectivitySweep, OrbitScheduleIsExactAndChangesToken) {
  for (auto [m, n] : {std::pair<unsigned, unsigned>{2, 3}, {3, 3}}) {
    Graph g = HyperButterfly(m, n).to_graph();
    SweepOptions plain;
    plain.vertex_transitive = true;
    ExactConnectivityResult a = ConnectivitySweep(g, plain).run();

    SweepOptions orbit = plain;
    orbit.orbit_rep = [m = m, n = n](NodeId v) {
      return hb_cube_orbit_representative(m, n, v);
    };
    ConnectivitySweep sweep(g, orbit);
    ExactConnectivityResult b = sweep.run();
    ASSERT_TRUE(a.complete);
    ASSERT_TRUE(b.complete);
    EXPECT_EQ(a.kappa, b.kappa);
    EXPECT_LT(b.solves, a.solves);  // the whole point of the reduction
    EXPECT_TRUE(sweep.state().orbit);
    EXPECT_NE(serialize_checkpoint(sweep.state())
                  .find("single-source-orbits"),
              std::string::npos);
  }
}

TEST(ConnectivitySweep, OrbitCheckpointDoesNotCrossResume) {
  // An orbit checkpoint must not resume a non-orbit run and vice versa --
  // the position encodes which targets were skipped.
  Graph g = HyperButterfly(2, 3).to_graph();
  const std::string path = temp_path("orbit_cross");
  std::remove(path.c_str());

  SweepOptions orbit;
  orbit.vertex_transitive = true;
  orbit.checkpoint_path = path;
  orbit.max_blocks = 1;
  orbit.block_size = 16;
  orbit.orbit_rep = [](NodeId v) {
    return hb_cube_orbit_representative(2, 3, v);
  };
  ExactConnectivityResult partial = ConnectivitySweep(g, orbit).run();
  ASSERT_FALSE(partial.complete);

  SweepOptions plain;
  plain.vertex_transitive = true;
  plain.checkpoint_path = path;
  plain.block_size = 16;
  ConnectivitySweep sweep(g, plain);
  EXPECT_FALSE(sweep.resumed());
  EXPECT_FALSE(sweep.resume_note().empty());
  ExactConnectivityResult r = sweep.run();  // restarts cleanly
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.kappa, 6u);
  std::remove(path.c_str());
}

TEST(ConnectivitySweep, OrbitRepRequiresVertexTransitive) {
  Graph g = HyperButterfly(2, 3).to_graph();
  SweepOptions opts;
  opts.orbit_rep = [](NodeId v) { return v; };
  EXPECT_THROW(ConnectivitySweep(g, opts), std::invalid_argument);
}

TEST(ConnectivitySweep, SparsifyReportsArenaShrinkOnDenseGraph) {
  // Two K_48 cliques + 3 bridges + a degree-3 apex hanging off the first
  // clique: kappa = 3 = min degree, so the sweep's frozen pruning bound is
  // 3 from the very first block and every certificate is built at k = 3
  // (<= 3 * 96 edges vs 2262). The certificate arena peak must come out
  // >= 4x below the full-graph arena peak.
  GraphBuilder b(97);
  for (NodeId u = 0; u < 48; ++u) {
    for (NodeId v = u + 1; v < 48; ++v) {
      b.add_edge(u, v);
      b.add_edge(u + 48, v + 48);
    }
  }
  for (NodeId i = 0; i < 3; ++i) b.add_edge(i, 48 + i);
  for (NodeId i = 0; i < 3; ++i) b.add_edge(96, i);
  Graph g = b.build();

  double peaks[2];
  std::uint32_t kappa[2];
  for (int s = 0; s < 2; ++s) {
    obs::MetricsRegistry metrics;
    SweepOptions opts;
    opts.sparsify = (s == 1);
    opts.block_size = 2;
    opts.metrics = &metrics;
    ExactConnectivityResult r = ConnectivitySweep(g, opts).run();
    ASSERT_TRUE(r.complete);
    kappa[s] = r.kappa;
    peaks[s] = metrics.gauge("connectivity.arena_arcs_peak").value();
    EXPECT_GT(metrics.gauge("connectivity.cert_edges").value(), 0.0);
  }
  EXPECT_EQ(kappa[0], kappa[1]);
  EXPECT_EQ(kappa[0], 3u);
  EXPECT_GE(peaks[0], 4.0 * peaks[1]);
}

}  // namespace
}  // namespace hbnet

// Tests for max-flow, vertex/edge connectivity and disjoint-path extraction
// and verification -- the machinery behind Corollary 1's audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/maxflow.hpp"
#include "graph/sparsify.hpp"
#include "topology/guest_graphs.hpp"
#include "topology/hb_implicit.hpp"
#include "topology/hypercube.hpp"

namespace hbnet {
namespace {

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

Graph complete_graph(NodeId n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  return b.build();
}

/// Checks VertexFlow against the explicit vertex-split Dinic reference
/// (detail::split_solve) on every ordered pair of `g`, at limits below, at
/// and above the pair's connectivity, unseeded and seeded with the BFS
/// distances from s. One VertexFlow and one Dinic network serve every
/// solve, so the between-solve resets are exercised too.
void expect_matches_split_reference(const Graph& g, const std::string& name) {
  VertexFlow flow(g);
  Dinic ref = detail::make_split_prototype(g);
  const std::int64_t unbounded = g.num_nodes();
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    const std::vector<Dist> dist = bfs(g, s).dist;
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const std::int64_t kappa = detail::split_solve(ref, s, t, unbounded);
      for (std::int64_t limit :
           {std::int64_t{0}, kappa - 1, kappa, kappa + 1, unbounded}) {
        if (limit < 0) continue;
        const auto lim = static_cast<std::uint32_t>(limit);
        const std::uint32_t got = flow.solve(s, t, lim);
        ASSERT_EQ(got, detail::split_solve(ref, s, t, limit))
            << name << " s=" << s << " t=" << t << " limit=" << limit;
        ASSERT_EQ(got, std::min(kappa, limit));
        ASSERT_EQ(flow.solve(s, t, lim, dist), got)
            << name << " seeded s=" << s << " t=" << t << " limit=" << limit;
      }
    }
  }
}

TEST(Dinic, SimpleDiamond) {
  Dinic d(4);
  d.add_arc(0, 1, 1);
  d.add_arc(0, 2, 1);
  d.add_arc(1, 3, 1);
  d.add_arc(2, 3, 1);
  EXPECT_EQ(d.max_flow(0, 3, 100), 2);
}

TEST(Dinic, RespectsLimit) {
  Dinic d(2);
  d.add_arc(0, 1, 5);
  EXPECT_EQ(d.max_flow(0, 1, 3), 3);
}

TEST(Dinic, FlowOnReportsArcUsage) {
  Dinic d(3);
  std::uint32_t a01 = d.add_arc(0, 1, 2);
  std::uint32_t a12 = d.add_arc(1, 2, 1);
  EXPECT_EQ(d.max_flow(0, 2, 100), 1);
  EXPECT_EQ(d.flow_on(a01), 1);
  EXPECT_EQ(d.flow_on(a12), 1);
}

TEST(Dinic, LongAugmentingPathsDoNotOverflowTheStack) {
  // Split network of a 200,000-vertex cycle: each of the two augmenting
  // paths from 0 to n/2 has about n arcs, far deeper than a call stack.
  constexpr NodeId n = 200000;
  Dinic d(2 * n);
  for (NodeId v = 0; v < n; ++v) d.add_arc(2 * v, 2 * v + 1, 1);
  for (NodeId v = 0; v < n; ++v) {
    const NodeId w = (v + 1) % n;
    d.add_arc(2 * v + 1, 2 * w, 1);
    d.add_arc(2 * w + 1, 2 * v, 1);
  }
  EXPECT_EQ(d.max_flow(1, 2 * (n / 2), 10), 2);
}

TEST(Connectivity, LongCycleSingleSolves) {
  constexpr NodeId n = 200000;
  const Graph c = make_cycle(n);
  EXPECT_EQ(max_disjoint_paths(c, 0, n / 2), 2u);
  const std::vector<Path> paths = flow_disjoint_paths(c, 0, n / 2);
  ASSERT_EQ(paths.size(), 2u);
  const PathFamilyCheck check = check_disjoint_paths(c, paths, 0, n / 2);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(VertexFlow, MatchesSplitReferenceOnRandomGraphs) {
  std::uint64_t seed = 41;
  for (NodeId n : {5, 8, 11, 14}) {
    for (double p : {0.15, 0.35, 0.6, 0.85}) {
      expect_matches_split_reference(random_graph(n, p, seed++, true),
                                     "connected n=" + std::to_string(n));
    }
  }
  for (NodeId n : {6, 9, 12, 16}) {
    // No spanning tree: many pairs sit in different components.
    expect_matches_split_reference(random_graph(n, 0.2, seed++, false),
                                   "sparse n=" + std::to_string(n));
  }
}

TEST(VertexFlow, MatchesSplitReferenceOnSparseRandomGraphs) {
  // Sparse graphs up to 200 vertices, no spanning tree, so many pairs are
  // disconnected and the connected ones have long augmenting paths. One
  // VertexFlow per graph serves every solve in both directions at a limit
  // drawn from 1..n, so each solve starts on labels and cursors left by
  // earlier phases and solves.
  std::mt19937_64 rng(2027);
  std::uint64_t seed = 90;
  for (NodeId n : {40, 80, 140, 200}) {
    for (double p : {0.02, 0.05, 0.08}) {
      const Graph g = random_graph(n, p, seed++, false);
      VertexFlow flow(g);
      Dinic ref = detail::make_split_prototype(g);
      std::uniform_int_distribution<NodeId> pick(0, n - 1);
      for (int pair = 0; pair < 150; ++pair) {
        const NodeId s = pick(rng);
        NodeId t = pick(rng);
        while (t == s) t = pick(rng);
        const std::uint32_t limit = 1 + pick(rng);
        for (auto [a, b] : {std::pair{s, t}, std::pair{t, s}}) {
          const std::int64_t kappa = detail::split_solve(ref, a, b, n);
          const std::int64_t want = std::min<std::int64_t>(kappa, limit);
          ASSERT_EQ(flow.solve(a, b, limit), want)
              << "n=" << n << " p=" << p << " s=" << a << " t=" << b
              << " limit=" << limit;
          ASSERT_EQ(flow.solve(a, b, limit, bfs(g, a).dist), want)
              << "seeded n=" << n << " p=" << p << " s=" << a << " t=" << b
              << " limit=" << limit;
        }
      }
    }
  }
}

TEST(VertexFlow, BackwardSideRunsOutInTheMeetingPass) {
  // s = 0 and t = 5 share the neighbours 1 and 2, and a third path runs
  // s-3-4-t; vertex 3 also sees 1 and 2. The first phase fills both
  // two-hop paths. In the second, the forward side grows past 3_out to
  // {1_in, 2_in} and the 4_in -> 4_out chain, and the backward side, now
  // the smaller one, expands t_in: its only residual in-arc comes from
  // 4_out, which the forward side holds, so that pass records the meeting
  // of length 5 and leaves the backward side with nothing to expand. The
  // meeting is the distance; treating the spent side as "no path" would
  // report 2.
  GraphBuilder b(6);
  for (auto [u, v] : {std::pair<NodeId, NodeId>{0, 1}, {0, 2}, {1, 5}, {2, 5},
                      {0, 3}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}) {
    b.add_edge(u, v);
  }
  const Graph g = b.build();
  VertexFlow flow(g);
  EXPECT_EQ(flow.solve(0, 5, 10), 3u);
  EXPECT_EQ(flow.solve(5, 0, 10), 3u);
  expect_matches_split_reference(g, "meeting pass");
}

TEST(VertexFlow, MatchesSplitReferenceOnStructuredGraphs) {
  GraphBuilder star(7);
  for (NodeId leaf = 1; leaf < 7; ++leaf) star.add_edge(0, leaf);
  expect_matches_split_reference(star.build(), "star");
  expect_matches_split_reference(make_path(9), "path");
  expect_matches_split_reference(make_cycle(10), "cycle");
  expect_matches_split_reference(complete_graph(7), "K7");
  expect_matches_split_reference(Hypercube(5).to_graph(), "Q5");
}

TEST(VertexFlow, AdjacentTerminalsCountTheEdgeOnce) {
  // s-t edge plus one long detour: the first phase takes the edge, the
  // second the detour, and no later phase may take the edge again.
  GraphBuilder b(6);
  b.add_edge(0, 5);
  for (NodeId v = 0; v < 5; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  VertexFlow flow(g);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(flow.solve(0, 5, 10), 2u);
    EXPECT_EQ(flow.solve(5, 0, 10), 2u);
    EXPECT_EQ(flow.solve(0, 5, 1), 1u);
  }
  GraphBuilder edge(2);
  edge.add_edge(0, 1);
  const Graph k2 = edge.build();
  VertexFlow single(k2);
  EXPECT_EQ(single.solve(0, 1, 5), 1u);
  EXPECT_EQ(single.solve(1, 0, 5), 1u);
  // K_n: the edge plus n-2 two-hop paths.
  const Graph k6 = complete_graph(6);
  VertexFlow kflow(k6);
  EXPECT_EQ(kflow.solve(2, 4, 100), 5u);
}

TEST(VertexFlow, MatchesSplitReferenceOnHbCertificateOrbitTargets) {
  // The solves the kappa sweep runs: source 0 against every cube-orbit
  // non-neighbor target, on the (m+4)-certificate, at every limit up to
  // m+4 (the sweep caps each limit at its bound and the two degrees).
  for (auto [m, n] : {std::pair<unsigned, unsigned>{3, 4}, {5, 4}}) {
    const HbImplicitAdjacency adj(m, n);
    const SparseCertificate cert = sparse_certificate(adj, m + 4);
    VertexFlow flow(cert.graph);
    Dinic ref = detail::make_split_prototype(cert.graph);
    const std::vector<Dist> dist = bfs(cert.graph, 0).dist;
    std::vector<NodeId> scratch(adj.max_degree());
    const std::span<const NodeId> nb = adj.neighbors(0, scratch.data());
    std::uint64_t solves = 0;
    for (NodeId t = 1; t < cert.graph.num_nodes(); ++t) {
      if (std::binary_search(nb.begin(), nb.end(), t) ||
          hb_cube_orbit_representative(m, n, t) != t) {
        continue;
      }
      // split_solve at limit m+4 is min(kappa, m+4), so one reference
      // solve fixes the expected value at every lower limit.
      const std::int64_t capped = detail::split_solve(ref, 0, t, m + 4);
      for (std::uint32_t limit = 1; limit <= m + 4; ++limit) {
        const std::int64_t want = std::min<std::int64_t>(capped, limit);
        ASSERT_EQ(flow.solve(0, t, limit), want)
            << "HB(" << m << "," << n << ") t=" << t << " limit=" << limit;
        ASSERT_EQ(flow.solve(0, t, limit, dist), want)
            << "HB(" << m << "," << n << ") seeded t=" << t
            << " limit=" << limit;
        ++solves;
      }
    }
    EXPECT_GT(solves, 0u);
  }
}

TEST(VertexFlow, SeedIsOnlyAHint) {
  // The seed may hold anything. BFS distances shifted up by n walk the
  // shortest paths as the true ones do, and on graphs whose shortest paths
  // funnel through a few vertices the walk keeps running into vertices an
  // earlier path holds. A shuffled BFS array sends it along edges that are
  // not shortest paths, an all-zero array leaves it nowhere to step, and a
  // sentinel-filled one (kUnreachable, and one below it at even vertices,
  // so the walk can take a step but never wraps) claims only the s-t edges
  // the array happens to allow. Every solve must still return min(kappa,
  // limit). The graphs have s-t edges (K7, dense random), cut vertices
  // (two K5s sharing a vertex, sparse random) and disconnected pairs
  // (sparse random).
  std::mt19937_64 rng(1511);
  std::vector<Graph> graphs;
  graphs.push_back(complete_graph(7));
  graphs.push_back(Hypercube(4).to_graph());
  graphs.push_back(random_graph(14, 0.5, 77, true));
  graphs.push_back(random_graph(18, 0.15, 78, false));
  graphs.push_back(random_graph(30, 0.08, 79, false));
  {
    GraphBuilder bowtie(9);
    for (NodeId base : {0u, 4u}) {
      for (NodeId u = base; u < base + 5; ++u) {
        for (NodeId v = u + 1; v < base + 5; ++v) bowtie.add_edge(u, v);
      }
    }
    graphs.push_back(bowtie.build());
  }
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    const Graph& g = graphs[gi];
    const NodeId n = g.num_nodes();
    VertexFlow flow(g);
    Dinic ref = detail::make_split_prototype(g);
    const std::vector<Dist> zeros(n, 0);
    std::vector<Dist> sentinel(n, kUnreachable);
    for (NodeId v = 0; v < n; v += 2) sentinel[v] = kUnreachable - 1;
    for (NodeId s = 0; s < n; ++s) {
      std::vector<Dist> shifted = bfs(g, s).dist;
      std::vector<Dist> shuffled = shifted;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      for (Dist& d : shifted) d = d == kUnreachable ? d : d + n;
      const std::vector<Dist>* const seeds[] = {&shifted, &shuffled, &zeros,
                                                &sentinel};
      const char* const names[] = {"shifted", "shuffled", "zeros",
                                   "sentinel"};
      for (NodeId t = 0; t < n; ++t) {
        if (s == t) continue;
        const std::int64_t kappa = detail::split_solve(ref, s, t, n);
        for (std::int64_t limit : {kappa - 1, kappa, std::int64_t{n}}) {
          if (limit < 1) continue;
          const auto lim = static_cast<std::uint32_t>(limit);
          const std::uint32_t want =
              static_cast<std::uint32_t>(std::min(kappa, limit));
          for (std::size_t k = 0; k < std::size(seeds); ++k) {
            ASSERT_EQ(flow.solve(s, t, lim, *seeds[k]), want)
                << "graph " << gi << " s=" << s << " t=" << t
                << " limit=" << limit << " seed " << names[k];
          }
        }
      }
    }
  }
}

TEST(Connectivity, CycleIsTwoConnected) {
  Graph c = make_cycle(9);
  EXPECT_EQ(vertex_connectivity(c), 2u);
  EXPECT_EQ(edge_connectivity(c), 2u);
  EXPECT_EQ(max_disjoint_paths(c, 0, 4), 2u);
}

TEST(Connectivity, PathIsOneConnected) {
  Graph p = make_path(6);
  EXPECT_EQ(vertex_connectivity(p), 1u);
  EXPECT_EQ(edge_connectivity(p), 1u);
}

TEST(Connectivity, TreeIsOneConnected) {
  EXPECT_EQ(vertex_connectivity(make_complete_binary_tree(4)), 1u);
}

TEST(Connectivity, CompleteGraph) {
  GraphBuilder b(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) b.add_edge(u, v);
  }
  Graph k6 = b.build();
  EXPECT_EQ(vertex_connectivity(k6), 5u);
  EXPECT_EQ(edge_connectivity(k6), 5u);
}

TEST(Connectivity, HypercubesAreMaximallyFaultTolerant) {
  for (unsigned m = 2; m <= 5; ++m) {
    EXPECT_EQ(vertex_connectivity(Hypercube(m).to_graph()), m) << "m=" << m;
  }
}

TEST(Connectivity, CutVertexDetected) {
  // Two triangles sharing vertex 2: kappa = 1.
  GraphBuilder b(5);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(3, 4);
  b.add_edge(4, 2);
  EXPECT_EQ(vertex_connectivity(b.build()), 1u);
}

TEST(Connectivity, SampledCheckAgreesOnHypercube) {
  Graph g = Hypercube(5).to_graph();
  EXPECT_TRUE(check_local_connectivity_sampled(g, 5, 20));
  EXPECT_FALSE(check_local_connectivity_sampled(g, 6, 20));
}

TEST(FlowDisjointPaths, ExtractsValidFamilies) {
  Graph g = Hypercube(4).to_graph();
  for (NodeId t : {1u, 3u, 7u, 15u, 10u}) {
    std::vector<Path> paths = flow_disjoint_paths(g, 0, t);
    EXPECT_EQ(paths.size(), 4u) << "t=" << t;
    PathFamilyCheck check = check_disjoint_paths(g, paths, 0, t);
    EXPECT_TRUE(check.ok) << check.error;
  }
}

TEST(FlowDisjointPaths, ForbiddenEdgeHonored) {
  Graph g = Hypercube(3).to_graph();
  // 0 and 1 are adjacent; avoiding the direct edge still yields 2 paths.
  std::vector<Path> paths = flow_disjoint_paths(g, 0, 1, {0, 1});
  EXPECT_EQ(paths.size(), 2u);
  for (const Path& p : paths) {
    EXPECT_GT(p.size(), 2u);  // no direct edge used
  }
  PathFamilyCheck check = check_disjoint_paths(g, paths, 0, 1);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(CheckDisjointPaths, CatchesViolations) {
  Graph g = make_cycle(6);
  // Not a path: jumps.
  std::vector<Path> bad1{{0, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad1, 0, 3).ok);
  // Repeated vertex.
  std::vector<Path> bad2{{0, 1, 0, 5}};
  EXPECT_FALSE(check_disjoint_paths(g, bad2, 0, 5).ok);
  // Shared interior.
  std::vector<Path> bad3{{0, 1, 2, 3}, {0, 5, 4, 3}, {0, 1, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad3, 0, 3).ok);
  // Wrong endpoints.
  std::vector<Path> bad4{{1, 2, 3}};
  EXPECT_FALSE(check_disjoint_paths(g, bad4, 0, 3).ok);
  // A clean family.
  std::vector<Path> good{{0, 1, 2, 3}, {0, 5, 4, 3}};
  EXPECT_TRUE(check_disjoint_paths(g, good, 0, 3).ok);
  EXPECT_EQ(max_path_length(good), 3u);
}

}  // namespace
}  // namespace hbnet

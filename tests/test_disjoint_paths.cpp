// Theorem 5 / Corollary 1: the m+4 disjoint-path construction and the
// maximal fault tolerance of HB(m,n).
#include <gtest/gtest.h>

#include <random>

#include "core/hyper_butterfly.hpp"
#include "graph/connectivity.hpp"
#include "graph/disjoint_paths.hpp"
#include "topology/butterfly.hpp"

namespace hbnet {
namespace {

/// Lowers an HB path family to NodeId paths on the materialized graph.
std::vector<Path> lower(const HyperButterfly& hb,
                        const std::vector<std::vector<HbNode>>& family) {
  std::vector<Path> out;
  for (const auto& p : family) {
    Path q;
    for (const HbNode& v : p) q.push_back(static_cast<NodeId>(hb.index_of(v)));
    out.push_back(std::move(q));
  }
  return out;
}

class DisjointParam
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(DisjointParam, FamilyValidForAllPairsFromIdentity) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  const NodeId s = 0;
  for (HbIndex t = 1; t < hb.num_nodes(); ++t) {
    auto family = hb.disjoint_paths(hb.node_at(0), hb.node_at(t));
    ASSERT_EQ(family.size(), m + 4) << "t=" << t;
    auto paths = lower(hb, family);
    PathFamilyCheck check =
        check_disjoint_paths(g, paths, s, static_cast<NodeId>(t));
    EXPECT_TRUE(check.ok) << "t=" << t << ": " << check.error;
  }
}

TEST_P(DisjointParam, FamilyValidForRandomPairs) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 60; ++trial) {
    HbIndex s = pick(rng), t = pick(rng);
    if (s == t) continue;
    auto family = hb.disjoint_paths(hb.node_at(s), hb.node_at(t));
    ASSERT_EQ(family.size(), m + 4);
    auto paths = lower(hb, family);
    PathFamilyCheck check = check_disjoint_paths(
        g, paths, static_cast<NodeId>(s), static_cast<NodeId>(t));
    EXPECT_TRUE(check.ok) << "s=" << s << " t=" << t << ": " << check.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, DisjointParam,
                         ::testing::Values(std::pair{1u, 3u}, std::pair{2u, 3u},
                                           std::pair{3u, 3u}, std::pair{1u, 4u},
                                           std::pair{2u, 4u}, std::pair{4u, 3u},
                                           std::pair{2u, 5u}, std::pair{3u, 5u},
                                           std::pair{5u, 3u}));

TEST(DisjointPaths, CaseCoverage) {
  // Exercise each Theorem-5 case explicitly, including degenerate
  // adjacencies, on HB(3,3).
  HyperButterfly hb(3, 3);
  Graph g = hb.to_graph();
  struct CasePair {
    HbNode u, v;
    const char* label;
  };
  const std::vector<CasePair> cases = {
      {{0b000, {0, 0}}, {0b111, {0, 0}}, "case1 same butterfly part"},
      {{0b000, {0, 0}}, {0b001, {0, 0}}, "case1 cube-adjacent"},
      {{0b000, {0, 0}}, {0b000, {5, 2}}, "case2 same cube part"},
      {{0b000, {0, 0}}, {0b000, {0, 1}}, "case2 butterfly-adjacent"},
      {{0b000, {0, 0}}, {0b101, {6, 1}}, "case3 generic"},
      {{0b000, {0, 0}}, {0b100, {6, 1}}, "case3 cube-adjacent (degenerate P)"},
      {{0b000, {0, 0}}, {0b101, {0, 1}}, "case3 bfly-adjacent (degenerate Q)"},
      {{0b000, {0, 0}}, {0b010, {0, 1}}, "case3 doubly adjacent"},
  };
  for (const CasePair& c : cases) {
    auto family = hb.disjoint_paths(c.u, c.v);
    ASSERT_EQ(family.size(), 7u) << c.label;
    std::vector<Path> paths;
    for (const auto& p : family) {
      Path q;
      for (const HbNode& v : p) q.push_back(static_cast<NodeId>(hb.index_of(v)));
      paths.push_back(std::move(q));
    }
    PathFamilyCheck check =
        check_disjoint_paths(g, paths, static_cast<NodeId>(hb.index_of(c.u)),
                             static_cast<NodeId>(hb.index_of(c.v)));
    EXPECT_TRUE(check.ok) << c.label << ": " << check.error;
  }
}

TEST(DisjointPaths, RejectsEqualEndpoints) {
  HyperButterfly hb(1, 3);
  EXPECT_THROW(hb.disjoint_paths({0, {0, 0}}, {0, {0, 0}}),
               std::invalid_argument);
}

TEST(DisjointPaths, PathLengthsAreBounded) {
  // Paper bounds (Theorem 5 discussion): cube-side paths ~ m+2, butterfly
  // side ~ ceil(3n/2)+2; the combined construction stays within
  // dist + O(diameter). We assert the loose structural bound
  // max length <= 2 * (m + n*2 + 4) which every family member satisfies by
  // construction (flow paths are simple paths in B_n).
  HyperButterfly hb(2, 4);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    HbIndex s = pick(rng), t = pick(rng);
    if (s == t) continue;
    auto family = hb.disjoint_paths(hb.node_at(s), hb.node_at(t));
    for (const auto& p : family) {
      EXPECT_LE(p.size(),
                2u * (hb.cube_dimension() + 2u * hb.butterfly_dimension() + 4));
    }
  }
}

/// FNV-1a digest of flow_disjoint_paths over every ordered pair of B(n):
/// family size, then each path's length and vertices, in output order.
/// With `forbid`, each pair's flow avoids the first edge out of s.
std::uint64_t flow_family_digest(unsigned n, bool forbid) {
  const Graph g = Butterfly(n).to_graph();
  std::uint64_t h = 1469598103934665603ull;
  auto add = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      std::pair<NodeId, NodeId> banned{kInvalidNode, kInvalidNode};
      if (forbid) banned = {s, g.neighbors(s).front()};
      const std::vector<Path> family = flow_disjoint_paths(g, s, t, banned);
      add(family.size());
      for (const Path& p : family) {
        add(p.size());
        for (NodeId v : p) add(v);
      }
    }
  }
  return h;
}

TEST(FlowDisjointPaths, FamiliesMatchPinnedDigests) {
  // The butterfly half of every Theorem-5 family comes from this flow, so
  // which paths it returns, and in which order, decides the routes of the
  // fault router. Pinned on B(3) and B(4), with and without a forbidden
  // edge.
  EXPECT_EQ(flow_family_digest(3, false), 0x9d3bd08bbc84240aull);
  EXPECT_EQ(flow_family_digest(3, true), 0x9254fd35acfcaea6ull);
  EXPECT_EQ(flow_family_digest(4, false), 0x5aa1bd88a2ce7e94ull);
  EXPECT_EQ(flow_family_digest(4, true), 0x5c53cb1fc7db5546ull);
}

TEST(Corollary1, VertexConnectivityIsMPlus4) {
  // Exact max-flow connectivity on small instances: kappa(HB) = m+4, the
  // paper's maximal fault tolerance claim.
  {
    Graph g = HyperButterfly(1, 3).to_graph();  // 48 nodes, degree 5
    EXPECT_EQ(vertex_connectivity(g), 5u);
  }
  {
    Graph g = HyperButterfly(2, 3).to_graph();  // 96 nodes, degree 6
    EXPECT_EQ(vertex_connectivity(g), 6u);
  }
}

TEST(Corollary1, SampledConnectivityOnLargerInstance) {
  Graph g = HyperButterfly(3, 4).to_graph();  // 512 nodes, degree 7
  EXPECT_TRUE(check_local_connectivity_sampled(g, 7, 25));
}

}  // namespace
}  // namespace hbnet

// Cube-connected cycles CCC(n): structure, exact routing vs BFS, Cayley
// audit -- the extended bounded-degree baseline.
#include <gtest/gtest.h>

#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "topology/butterfly.hpp"
#include "topology/ccc.hpp"

namespace hbnet {
namespace {

TEST(Ccc, CountsAndBasics) {
  CubeConnectedCycles ccc(4);
  EXPECT_EQ(ccc.num_nodes(), 64u);
  EXPECT_EQ(ccc.num_edges(), 96u);
  EXPECT_EQ(CubeConnectedCycles::degree(), 3u);
  EXPECT_THROW(CubeConnectedCycles(2), std::invalid_argument);
}

class CccParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(CccParam, GraphIsThreeRegular) {
  CubeConnectedCycles ccc(GetParam());
  Graph g = ccc.to_graph();
  EXPECT_EQ(g.num_nodes(), ccc.num_nodes());
  EXPECT_EQ(g.num_edges(), ccc.num_edges());
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 3u);
}

TEST_P(CccParam, CayleyAudit) {
  CayleyAudit a = audit(CubeConnectedCycles(GetParam()).cayley_spec());
  EXPECT_TRUE(a.all_ok());
}

TEST_P(CccParam, DistanceMatchesBfsExhaustively) {
  const unsigned n = GetParam();
  CubeConnectedCycles ccc(n);
  Graph g = ccc.to_graph();
  BfsResult r = bfs(g, ccc.index_of({0, 0}));
  for (NodeId id = 0; id < ccc.num_nodes(); ++id) {
    EXPECT_EQ(ccc.distance({0, 0}, ccc.node_at(id)), r.dist[id])
        << "id=" << id;
  }
}

TEST_P(CccParam, RouteValidAndOptimal) {
  const unsigned n = GetParam();
  CubeConnectedCycles ccc(n);
  Graph g = ccc.to_graph();
  for (NodeId s = 0; s < ccc.num_nodes(); s += 5) {
    for (NodeId t = 0; t < ccc.num_nodes(); t += 7) {
      CccNode u = ccc.node_at(s), v = ccc.node_at(t);
      auto path = ccc.route_nodes(u, v);
      EXPECT_EQ(path.size(), ccc.distance(u, v) + 1);
      EXPECT_TRUE(path.front() == u);
      EXPECT_TRUE(path.back() == v);
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(ccc.index_of(path[i - 1]),
                               ccc.index_of(path[i])));
      }
    }
  }
}

TEST_P(CccParam, DiameterMatchesFormulaForLargeN) {
  const unsigned n = GetParam();
  Graph g = CubeConnectedCycles(n).to_graph();
  unsigned measured = diameter_vertex_transitive(g);
  if (n >= 4) {
    EXPECT_EQ(measured, 2 * n + n / 2 - 2) << "n=" << n;
  } else {
    EXPECT_EQ(measured, 6u);  // CCC(3) special case
  }
}

TEST_P(CccParam, ConnectivityIsThree) {
  Graph g = CubeConnectedCycles(GetParam()).to_graph();
  EXPECT_TRUE(check_local_connectivity_sampled(g, 3, 10));
}

INSTANTIATE_TEST_SUITE_P(Dims, CccParam, ::testing::Values(3u, 4u, 5u, 6u));

unsigned visiting_length(unsigned n, unsigned start, unsigned end,
                         std::uint64_t required) {
  return plan_visiting_walk(n, start, end, required).length();
}

TEST(VisitingWalk, KnownCases) {
  // No required positions: plain cycle distance.
  EXPECT_EQ(visiting_length(8, 0, 3, 0), 3u);
  EXPECT_EQ(visiting_length(8, 0, 5, 0), 3u);
  // Visit the antipode and come back.
  EXPECT_EQ(visiting_length(8, 0, 0, 1ull << 4), 8u);
  // Visit everything, return to start: n-1 out... the walk must touch all
  // n positions: best is almost a full loop.
  EXPECT_EQ(visiting_length(6, 0, 0, 0b111111), 6u);
  // Visiting start only costs nothing.
  EXPECT_EQ(visiting_length(6, 2, 2, 1u << 2), 0u);
}

}  // namespace
}  // namespace hbnet

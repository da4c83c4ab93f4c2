// Cross-module invariant verification: randomized adversarial checks that
// tie independent implementations together (metric axioms, constructive
// family vs max-flow, collectives vs diameter, representation coherence).
#include <gtest/gtest.h>

#include <random>

#include "distsim/collectives.hpp"
#include "core/hyper_butterfly.hpp"
#include "core/routing.hpp"
#include "graph/connectivity.hpp"

namespace hbnet {
namespace {

class InvariantParam
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(InvariantParam, DistanceIsAMetric) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  std::mt19937_64 rng(100 + m * 10 + n);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 50; ++trial) {
    HbNode a = hb.node_at(pick(rng)), b = hb.node_at(pick(rng)),
           c = hb.node_at(pick(rng));
    unsigned ab = hb.distance(a, b), ba = hb.distance(b, a);
    unsigned bc = hb.distance(b, c), ac = hb.distance(a, c);
    EXPECT_EQ(ab, ba);                     // symmetry
    EXPECT_EQ(hb.distance(a, a), 0u);      // identity
    EXPECT_LE(ac, ab + bc);                // triangle inequality
    if (!(a == b)) {
      EXPECT_GE(ab, 1u);  // positivity
    }
    EXPECT_LE(ab, m + 3 * n / 2);          // measured diameter bound
  }
}

TEST_P(InvariantParam, VertexTransitivityOfDistanceSpectrum) {
  // Cayley graphs are vertex transitive: the multiset of distances from any
  // vertex equals that from the identity.
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  std::vector<std::uint64_t> hist_a(m + 3 * n / 2 + 2, 0),
      hist_b(m + 3 * n / 2 + 2, 0);
  HbNode a{0, {0, 0}};
  HbNode b{static_cast<CubeWord>((1u << m) - 1), {3 % (1u << n), n - 1}};
  for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
    ++hist_a[hb.distance(a, hb.node_at(id))];
    ++hist_b[hb.distance(b, hb.node_at(id))];
  }
  EXPECT_EQ(hist_a, hist_b);
}

TEST_P(InvariantParam, ConstructiveFamilyMatchesMaxFlow) {
  // Theorem 5's constructive m+4 paths must equal the max-flow value
  // (which can never exceed degree m+4).
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  std::mt19937_64 rng(7 * m + n);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 8; ++trial) {
    HbIndex s = pick(rng), t = pick(rng);
    if (s == t) continue;
    auto family = hb.disjoint_paths(hb.node_at(s), hb.node_at(t));
    std::uint32_t flow = max_disjoint_paths(g, static_cast<NodeId>(s),
                                            static_cast<NodeId>(t));
    EXPECT_EQ(family.size(), flow);
    EXPECT_EQ(flow, m + 4);
  }
}

TEST_P(InvariantParam, AllPortBroadcastEqualsEccentricity) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  unsigned rounds = all_port_broadcast_rounds(hb, HbNode{0, {0, 0}});
  EXPECT_EQ(rounds, m + 3 * n / 2);  // identity eccentricity = diameter
}

TEST_P(InvariantParam, TreeAllreduceComputesGlobalSum) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  AllreduceResult r = hb_tree_allreduce(hb);
  EXPECT_TRUE(r.correct);
  EXPECT_TRUE(r.run.all_halted);
  // 2(N-1) tree messages exactly: one up and one down per non-root node.
  EXPECT_EQ(r.run.messages, 2 * (hb.num_nodes() - 1));
}

TEST_P(InvariantParam, GossipCompletesWithinDiameter) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  GossipResult r = hb_gossip(hb);
  EXPECT_TRUE(r.complete);
  EXPECT_LE(r.run.rounds, m + 3u * n / 2 + 2);
}

INSTANTIATE_TEST_SUITE_P(Dims, InvariantParam,
                         ::testing::Values(std::pair{1u, 3u}, std::pair{2u, 3u},
                                           std::pair{2u, 4u},
                                           std::pair{3u, 4u}));

TEST(Invariants, RouteReversalIsValid) {
  // route(v,u) need not be the reverse of route(u,v), but must have the
  // same length (metric symmetry realized by the router).
  HyperButterfly hb(2, 5);
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 40; ++trial) {
    HbNode u = hb.node_at(pick(rng)), v = hb.node_at(pick(rng));
    EXPECT_EQ(hb.route(u, v).size(), hb.route(v, u).size());
  }
}

TEST(Invariants, NeighborsAgreeWithGenerators) {
  HyperButterfly hb(3, 4);
  std::mt19937_64 rng(9);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 30; ++trial) {
    HbNode v = hb.node_at(pick(rng));
    auto nbrs = hb.neighbors(v);
    ASSERT_EQ(nbrs.size(), hb.degree());
    for (std::uint8_t g = 0; g < hb.degree(); ++g) {
      EXPECT_TRUE(nbrs[g] == hb.apply(v, g));
      EXPECT_EQ(hb.distance(v, nbrs[g]), 1u);
    }
  }
}

TEST(Invariants, IndexBijectionOverFullRange) {
  HyperButterfly hb(2, 5);
  std::vector<char> seen(hb.num_nodes(), 0);
  for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
    HbIndex back = hb.index_of(hb.node_at(id));
    ASSERT_EQ(back, id);
    ASSERT_FALSE(seen[back]);
    seen[back] = 1;
  }
}

}  // namespace
}  // namespace hbnet

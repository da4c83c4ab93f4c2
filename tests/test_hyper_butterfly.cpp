// HB(m,n) core: Theorems 1-3 (Cayley structure, counts, routing, diameter)
// plus the layer-decomposition of Remark 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "core/routing.hpp"
#include "graph/bfs.hpp"

namespace hbnet {
namespace {

TEST(HyperButterfly, CountsTheorem2) {
  HyperButterfly hb(3, 4);
  EXPECT_EQ(hb.num_nodes(), 4u * 128);            // n * 2^(m+n) = 512
  EXPECT_EQ(hb.num_edges(), 7u * 4 * 64);         // (m+4) n 2^(m+n-1) = 1792
  EXPECT_EQ(hb.degree(), 7u);
  EXPECT_EQ(hb.diameter_formula(), 3u + 6);
  EXPECT_THROW(HyperButterfly(0, 4), std::invalid_argument);
  EXPECT_THROW(HyperButterfly(2, 2), std::invalid_argument);
}

TEST(HyperButterfly, RejectsNAbove20) {
  // The documented domain is n in [3, 20], the same as HbImplicitAdjacency.
  EXPECT_NO_THROW(HyperButterfly(1, 20));
  EXPECT_THROW(HyperButterfly(1, 21), std::invalid_argument);
}

TEST(HyperButterfly, IndexRoundTrip) {
  HyperButterfly hb(2, 3);
  for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
    HbNode v = hb.node_at(id);
    EXPECT_TRUE(hb.contains(v));
    EXPECT_EQ(hb.index_of(v), id);
  }
}

TEST(HyperButterfly, GeneratorsCountAndNeighbors) {
  HyperButterfly hb(3, 4);
  HbNode v{0b101, {0b1001, 2}};
  auto nbrs = hb.neighbors(v);
  ASSERT_EQ(nbrs.size(), 7u);
  // Remark 4: cube edges change only the cube part, butterfly edges only
  // the butterfly part.
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_TRUE(nbrs[i].bfly == v.bfly);
    EXPECT_EQ(Hypercube::distance(nbrs[i].cube, v.cube), 1u);
  }
  for (unsigned i = 3; i < 7; ++i) {
    EXPECT_EQ(nbrs[i].cube, v.cube);
    EXPECT_FALSE(nbrs[i].bfly == v.bfly);
  }
}

class HbParam : public ::testing::TestWithParam<std::pair<unsigned, unsigned>> {};

TEST_P(HbParam, GraphMatchesTheorem2) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  EXPECT_EQ(g.num_nodes(), hb.num_nodes());
  EXPECT_EQ(g.num_edges(), hb.num_edges());
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), m + 4);
}

TEST_P(HbParam, CayleyAuditTheorem1) {
  auto [m, n] = GetParam();
  CayleyAudit a = audit(HyperButterfly(m, n).cayley_spec());
  EXPECT_TRUE(a.generators_are_permutations);
  EXPECT_TRUE(a.closed_under_inverse);
  EXPECT_TRUE(a.fixed_point_free);
  EXPECT_TRUE(a.distinct_actions);
}

TEST_P(HbParam, DistanceMatchesBfs) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  BfsResult r = bfs(g, 0);  // from the identity; vertex transitive
  for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
    EXPECT_EQ(hb.distance(hb.node_at(0), hb.node_at(id)), r.dist[id])
        << "id=" << id;
  }
}

TEST_P(HbParam, RouteIsValidAndOptimal) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  Graph g = hb.to_graph();
  for (HbIndex s = 0; s < hb.num_nodes(); s += 11) {
    for (HbIndex t = 0; t < hb.num_nodes(); t += 13) {
      HbNode u = hb.node_at(s), v = hb.node_at(t);
      auto path = hb.route(u, v);
      EXPECT_EQ(path.size(), hb.distance(u, v) + 1);
      EXPECT_TRUE(path.front() == u);
      EXPECT_TRUE(path.back() == v);
      for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_TRUE(g.has_edge(static_cast<NodeId>(hb.index_of(path[i - 1])),
                               static_cast<NodeId>(hb.index_of(path[i]))));
      }
      // Generator form agrees.
      auto gens = hb.route_generators(u, v);
      EXPECT_EQ(gens.size() + 1, path.size());
      HbNode cur = u;
      for (const std::uint8_t gen : gens) cur = hb.apply(cur, gen);
      EXPECT_TRUE(cur == v);
    }
  }
}

TEST_P(HbParam, MeasuredDiameterVsTheorem3) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  unsigned measured = hb_diameter_measured(hb);
  // The butterfly's true diameter is floor(3n/2); Theorem 3 states
  // m + ceil(3n/2). Measured = m + floor(3n/2) <= formula.
  EXPECT_EQ(measured, m + 3 * n / 2);
  EXPECT_LE(measured, hb.diameter_formula());
}

TEST_P(HbParam, LayerDecompositionRemark5) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  // All nodes with the same butterfly part form an H_m: check the neighbor
  // structure witnesses it; same cube part forms a B_n.
  HbNode v{1, {2, n - 1}};
  unsigned cube_nbrs = 0, bfly_nbrs = 0;
  for (const HbNode& w : hb.neighbors(v)) {
    if (w.bfly == v.bfly) ++cube_nbrs;
    if (w.cube == v.cube) ++bfly_nbrs;
  }
  EXPECT_EQ(cube_nbrs, m);
  EXPECT_EQ(bfly_nbrs, 4u);
}

TEST_P(HbParam, ImplicitBfsAgreesWithDistance) {
  auto [m, n] = GetParam();
  HyperButterfly hb(m, n);
  for (HbIndex t = 0; t < hb.num_nodes(); t += 29) {
    EXPECT_EQ(hb_bfs_distance(hb, hb.node_at(0), hb.node_at(t)),
              hb.distance(hb.node_at(0), hb.node_at(t)));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, HbParam,
                         ::testing::Values(std::pair{1u, 3u}, std::pair{2u, 3u},
                                           std::pair{3u, 3u}, std::pair{1u, 4u},
                                           std::pair{2u, 4u}, std::pair{3u, 4u},
                                           std::pair{2u, 5u}, std::pair{4u, 4u},
                                           std::pair{1u, 5u}));

TEST(HyperButterfly, BfsPathAvoidsFaults) {
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {7, 2}};
  HbFaultSet faults;
  auto clean = hb_bfs_path(hb, u, v);
  ASSERT_TRUE(clean.has_value());
  // Make every vertex of the clean path's interior faulty; a path must
  // still exist (connectivity m+4 = 6 > faults here if interior small) or
  // the helper reports nullopt -- either way no faulty vertex may appear.
  for (std::size_t i = 1; i + 1 < clean->size(); ++i) {
    faults.add(hb, (*clean)[i]);
  }
  auto detour = hb_bfs_path(hb, u, v, &faults);
  if (detour.has_value()) {
    for (const HbNode& w : *detour) {
      EXPECT_FALSE(faults.contains(hb, w));
    }
  }
}

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// Digest of the Section-3 route over every ordered pair of HB(m,n): per
/// pair the word length, each generator's index in neighbors() order
/// (h_0..h_{m-1}, g, f, g^-1, f^-1), then route()'s node ids.
std::uint64_t hb_route_digest(unsigned m, unsigned n) {
  const HyperButterfly hb(m, n);
  Fnv d;
  for (HbIndex s = 0; s < hb.num_nodes(); ++s) {
    for (HbIndex t = 0; t < hb.num_nodes(); ++t) {
      const HbNode u = hb.node_at(s), v = hb.node_at(t);
      const auto gens = hb.route_generators(u, v);
      d.add(gens.size());
      HbNode cur = u;
      for (const auto& gen : gens) {
        const HbNode next = hb.apply(cur, gen);
        const std::vector<HbNode> nbrs = hb.neighbors(cur);
        d.add(static_cast<std::uint64_t>(
            std::find(nbrs.begin(), nbrs.end(), next) - nbrs.begin()));
        cur = next;
      }
      for (const HbNode& x : hb.route(u, v)) d.add(hb.index_of(x));
    }
  }
  return d.h;
}

/// The same for B_n: Butterfly::route's generators, then route_nodes' ids.
std::uint64_t bfly_route_digest(unsigned n) {
  const Butterfly b(n);
  Fnv d;
  for (NodeId s = 0; s < b.num_nodes(); ++s) {
    for (NodeId t = 0; t < b.num_nodes(); ++t) {
      const BflyNode u = b.node_at(s), v = b.node_at(t);
      const auto gens = b.route(u, v);
      d.add(gens.size());
      for (const auto gen : gens) d.add(static_cast<std::uint64_t>(gen));
      for (const BflyNode& x : b.route_nodes(u, v)) d.add(b.index_of(x));
    }
  }
  return d.h;
}

TEST(Routing, RouteWordsMatchPinnedParentDigests) {
  // Every route word and node sequence of the Section-3 and butterfly
  // routers. The values were recorded before Butterfly::step became the one
  // stepping kernel and must not be regenerated for a refactor: any change
  // to which optimal route is chosen fails it.
  const std::pair<std::pair<unsigned, unsigned>, std::uint64_t> hb_pins[] = {
      {{1, 3}, 0x29e510b3c5928103ull}, {{2, 3}, 0xf0adf798564948c3ull},
      {{1, 4}, 0x1d1b729602374c83ull}, {{1, 5}, 0x9d4ede4f6e83bdffull},
      {{3, 4}, 0x742bb564da6d4003ull}};
  for (const auto& [mn, digest] : hb_pins) {
    EXPECT_EQ(hb_route_digest(mn.first, mn.second), digest)
        << "HB(" << mn.first << "," << mn.second << ")";
  }
  const std::uint64_t bfly_pins[] = {
      0x94a7fc4ceaf0c483ull, 0xc479a409ed260783ull, 0x16352b20c49ec143ull,
      0x8236ec446cb51b4full, 0x132aa80eeb5fc077ull};
  for (unsigned n = 3; n <= 7; ++n) {
    EXPECT_EQ(bfly_route_digest(n), bfly_pins[n - 3]) << "B_" << n;
  }
}

}  // namespace
}  // namespace hbnet

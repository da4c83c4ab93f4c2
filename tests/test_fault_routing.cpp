// Remark 10: fault-tolerant routing. With up to m+3 node faults the
// disjoint-path family always contains a fault-free member.
#include <gtest/gtest.h>

#include <random>

#include "core/fault_routing.hpp"
#include "graph/disjoint_paths.hpp"

namespace hbnet {
namespace {

bool path_valid(const HyperButterfly& hb, const std::vector<HbNode>& path,
                HbNode u, HbNode v, const HbFaultSet& faults) {
  if (path.empty() || !(path.front() == u) || !(path.back() == v)) return false;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (faults.contains(hb, path[i])) return false;
    if (i > 0 && hb.distance(path[i - 1], path[i]) != 1) return false;
  }
  return true;
}

TEST(FaultRouting, NoFaultsGivesAPath) {
  HyperButterfly hb(2, 3);
  HbFaultSet faults;
  HbNode u{0, {0, 0}}, v{3, {5, 2}};
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  EXPECT_FALSE(r.used_fallback);
}

TEST(FaultRouting, SurvivesMaximalRandomFaults) {
  // |F| = m+3 random faults (excluding endpoints): guaranteed detour.
  HyperButterfly hb(2, 3);
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int trial = 0; trial < 200; ++trial) {
    HbIndex su = pick(rng), sv = pick(rng);
    if (su == sv) continue;
    HbNode u = hb.node_at(su), v = hb.node_at(sv);
    HbFaultSet faults;
    while (faults.size() < hb.cube_dimension() + 3) {
      HbIndex f = pick(rng);
      if (f == su || f == sv) continue;
      faults.add(hb, hb.node_at(f));
    }
    FaultRouteResult r = route_around_faults(hb, u, v, faults,
                                             /*bfs_fallback=*/false);
    ASSERT_TRUE(r.ok()) << "trial=" << trial;
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
    EXPECT_FALSE(r.used_fallback);
  }
}

TEST(FaultRouting, AdversarialFaultsOnNeighbors) {
  // Kill m+3 of the m+4 neighbors of u: the one remaining neighbor must
  // carry the route.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), 6u);
  HbFaultSet faults;
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) faults.add(hb, nbrs[i]);
  FaultRouteResult r = route_around_faults(hb, u, v, faults,
                                           /*bfs_fallback=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  EXPECT_TRUE(r.path[1] == nbrs.back());
}

TEST(FaultRouting, FaultyEndpointFails) {
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {3, 1}};
  HbFaultSet faults;
  faults.add(hb, v);
  EXPECT_FALSE(route_around_faults(hb, u, v, faults).ok());
  // The faulty-source case must fail identically (a dead router cannot
  // originate), with and without the BFS fallback.
  HbFaultSet src_fault;
  src_fault.add(hb, u);
  EXPECT_FALSE(route_around_faults(hb, u, v, src_fault).ok());
  EXPECT_FALSE(
      route_around_faults(hb, u, v, src_fault, /*bfs_fallback=*/false).ok());
}

TEST(FaultRouting, BlockedFamilyFallsBackToBfs) {
  // Deterministically block every Theorem-5 family member: fault all but
  // one neighbor of u (m+3 faults), find the surviving member, then fault
  // its second hop too. That is m+4 faults -- past the guarantee -- so the
  // family is fully blocked, but u keeps one live neighbor and the graph
  // stays connected: the BFS fallback must carry the route and say so.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), hb.cube_dimension() + 4);
  HbFaultSet faults;
  for (std::size_t i = 0; i + 1 < nbrs.size(); ++i) faults.add(hb, nbrs[i]);
  FaultRouteResult survivor =
      route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
  ASSERT_TRUE(survivor.ok());
  ASSERT_GT(survivor.path.size(), 3u);
  ASSERT_FALSE(survivor.path[2] == v);
  faults.add(hb, survivor.path[2]);

  EXPECT_FALSE(
      route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false).ok());
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.used_fallback);
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
}

TEST(FaultRouting, BannedFirstHopIsAvoided) {
  // The link-fault variant: banning first hops must steer the route off
  // those edges without consuming more than one family member per ban.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  ASSERT_EQ(nbrs.size(), 6u);
  HbFaultSet faults;
  std::vector<HbNode> banned(nbrs.begin(), nbrs.begin() + 3);
  FaultRouteResult r = route_around_faults(hb, u, v, faults, banned);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.used_fallback);
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  for (const HbNode& b : banned) EXPECT_FALSE(r.path[1] == b);
}

TEST(FaultRouting, BannedLinksPlusNodeFaultsWithinGuarantee) {
  // |node faults| + |banned first edges| = m+3 < m+4: internal disjointness
  // means each ban kills at most one member, so a clean one must survive.
  HyperButterfly hb(2, 3);
  HbNode u{0, {0, 0}}, v{3, {6, 1}};
  auto nbrs = hb.neighbors(u);
  std::vector<HbNode> banned(nbrs.begin(), nbrs.begin() + 3);
  HbFaultSet faults;
  faults.add(hb, hb.node_at(17));
  faults.add(hb, hb.node_at(41));
  FaultRouteResult r = route_around_faults(hb, u, v, faults, banned);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  for (const HbNode& b : banned) EXPECT_FALSE(r.path[1] == b);
}

TEST(FaultRouting, BannedVariantHasNoFallback) {
  // Ban every outgoing edge of u: no family member can start, and the
  // banned-first variant must report failure rather than BFS around the
  // bans (BFS cannot honor per-edge constraints).
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {5, 1}};
  HbFaultSet faults;
  const std::vector<HbNode> banned = hb.neighbors(u);
  FaultRouteResult r = route_around_faults(hb, u, v, faults, banned);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.used_fallback);
  EXPECT_EQ(r.paths_tried, banned.size());
}

TEST(FaultRouting, TrivialSelfRoute) {
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}};
  HbFaultSet faults;
  FaultRouteResult r = route_around_faults(hb, u, u, faults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.path.size(), 1u);
}

TEST(FaultRouting, FallbackBeyondGuarantee) {
  // Saturate well past m+3 faults; the family may be fully blocked but BFS
  // fallback still finds a path while the graph stays connected, or
  // correctly reports failure.
  HyperButterfly hb(1, 3);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  HbNode u{0, {0, 0}}, v{1, {7, 2}};
  HbFaultSet faults;
  while (faults.size() < 12) {
    HbIndex f = pick(rng);
    if (f == hb.index_of(u) || f == hb.index_of(v)) continue;
    faults.add(hb, hb.node_at(f));
  }
  FaultRouteResult r = route_around_faults(hb, u, v, faults);
  if (r.ok()) {
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  } else {
    // Verify the reported disconnection against reference BFS.
    EXPECT_EQ(hb_bfs_distance(hb, u, v, &faults), kNoPath);
  }
}

TEST(FaultRouting, ExhaustiveSmallFaultSets) {
  // Every 1-fault and a sweep of 2-fault patterns on HB(1,3): the family
  // must always survive (guarantee is m+3 = 4 faults).
  HyperButterfly hb(1, 3);
  HbNode u{0, {0, 0}}, v{1, {5, 1}};
  const HbIndex nu = hb.index_of(u), nv = hb.index_of(v);
  for (HbIndex f1 = 0; f1 < hb.num_nodes(); ++f1) {
    if (f1 == nu || f1 == nv) continue;
    HbFaultSet faults;
    faults.add(hb, hb.node_at(f1));
    FaultRouteResult r =
        route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
    ASSERT_TRUE(r.ok()) << "f1=" << f1;
    EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
  }
  for (HbIndex f1 = 0; f1 < hb.num_nodes(); f1 += 3) {
    for (HbIndex f2 = f1 + 1; f2 < hb.num_nodes(); f2 += 5) {
      if (f1 == nu || f1 == nv || f2 == nu || f2 == nv) continue;
      HbFaultSet faults;
      faults.add(hb, hb.node_at(f1));
      faults.add(hb, hb.node_at(f2));
      FaultRouteResult r =
          route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
      ASSERT_TRUE(r.ok()) << "f1=" << f1 << " f2=" << f2;
      EXPECT_TRUE(path_valid(hb, r.path, u, v, faults));
    }
  }
}

TEST(FaultRouting, EveryMaximalFaultSetModuloTranslation) {
  // Remark 10 exhaustively on HB(1,3). Families are translation
  // equivariant, so routing u -> v around F succeeds exactly when routing
  // e -> u^-1·v around u^-1·F does; and success is monotone under removing
  // faults, because the member chosen for F stays clean for every subset.
  // So checking every target w != e against every m+3 = 4-node fault set
  // that avoids e and w covers every (u, v, F) with |F| <= m+3: 47 x C(46,4)
  // cases. Each must be routed by the family (no BFS fallback) along the
  // first fault-free member, which is a valid e -> w path.
  const HyperButterfly hb(1, 3);
  const Graph g = hb.to_graph();
  const auto num = static_cast<std::uint32_t>(hb.num_nodes());
  HbFaultPlanner planner(hb);
  std::uint64_t cases = 0;
  std::vector<char> mask(num, 0);
  std::vector<std::uint32_t> others;
  for (std::uint32_t w = 1; w < num; ++w) {
    // The stored members as node ids, validated once per target.
    const std::uint8_t* family = planner.family(hb.node_at(w));
    std::vector<const std::uint8_t*> starts;
    std::vector<Path> members;
    for (const std::uint8_t* p = family; members.size() < hb.degree(); ++p) {
      starts.push_back(p);
      Path ids{0};
      HbFaultPlanner::walk(hb, HbNode{}, p, [&](HbNode x) {
        ids.push_back(static_cast<NodeId>(hb.index_of(x)));
      });
      members.push_back(std::move(ids));
      while (*p != HbFaultPlanner::kEnd) ++p;
    }
    const PathFamilyCheck check = check_disjoint_paths(g, members, 0, w);
    ASSERT_TRUE(check.ok) << "w=" << w << ": " << check.error;
    auto clean = [&](const Path& path) {
      for (const NodeId x : path) {
        if (mask[x]) return false;
      }
      return true;
    };
    others.clear();
    for (std::uint32_t x = 1; x < num; ++x) {
      if (x != w) others.push_back(x);
    }
    const std::size_t k = others.size();
    for (std::size_t a = 0; a < k; ++a) {
      mask[others[a]] = 1;
      for (std::size_t b = a + 1; b < k; ++b) {
        mask[others[b]] = 1;
        for (std::size_t c = b + 1; c < k; ++c) {
          mask[others[c]] = 1;
          for (std::size_t d = c + 1; d < k; ++d) {
            mask[others[d]] = 1;
            ++cases;
            const HbFaultPlanner::Choice choice = HbFaultPlanner::select(
                hb, HbNode{}, hb.node_at(w),
                [&](HbNode x) { return mask[hb.index_of(x)] != 0; },
                [](HbNode) { return false; },
                [&](HbNode) { return family; });
            ASSERT_TRUE(choice.found)
                << "w=" << w << " F={" << others[a] << "," << others[b]
                << "," << others[c] << "," << others[d] << "}";
            const std::size_t picked = choice.paths_tried - 1;
            ASSERT_EQ(starts[picked], choice.member);
            ASSERT_TRUE(clean(members[picked])) << "w=" << w;
            for (std::size_t e = 0; e < picked; ++e) {
              ASSERT_FALSE(clean(members[e])) << "w=" << w;
            }
            mask[others[d]] = 0;
          }
          mask[others[c]] = 0;
        }
        mask[others[b]] = 0;
      }
      mask[others[a]] = 0;
    }
  }
  EXPECT_EQ(cases, 47u * 163185u);  // 7,669,695
}

}  // namespace
}  // namespace hbnet

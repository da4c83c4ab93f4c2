// HbFaultPlanner: Theorem-5 families memoized by relative position and
// replayed from any source by Cayley translation (Theorems 1 and 5,
// Remark 10).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/fault_routing.hpp"
#include "sim/topology.hpp"

namespace hbnet {
namespace {

/// Checks x·s -> (u·x)·s for every generator byte s on the given (u, x).
void expect_label_preserving(const HyperButterfly& hb, HbNode u, HbNode x) {
  const HbNode ux = hb.translate(u, x);
  for (std::uint8_t s = 0; s < hb.degree(); ++s) {
    ASSERT_EQ(hb.translate(u, hb.apply(x, s)), hb.apply(ux, s))
        << "u=" << hb.index_of(u) << " x=" << hb.index_of(x)
        << " s=" << unsigned{s};
  }
  ASSERT_EQ(hb.relative(u, ux), x);
}

TEST(FaultPlanner, TranslationIsLabelPreservingAutomorphism) {
  for (const auto& [m, n] : {std::pair{1u, 3u}, std::pair{2u, 4u}}) {
    const HyperButterfly hb(m, n);
    for (HbIndex u = 0; u < hb.num_nodes(); ++u) {
      EXPECT_EQ(hb.translate(hb.node_at(u), HbNode{}), hb.node_at(u));
      for (HbIndex x = 0; x < hb.num_nodes(); ++x) {
        expect_label_preserving(hb, hb.node_at(u), hb.node_at(x));
      }
    }
  }
  const HyperButterfly hb(3, 5);
  std::mt19937_64 rng(35);
  std::uniform_int_distribution<HbIndex> pick(0, hb.num_nodes() - 1);
  for (int i = 0; i < 20000; ++i) {
    expect_label_preserving(hb, hb.node_at(pick(rng)), hb.node_at(pick(rng)));
  }
}

TEST(FaultPlanner, DisjointPathsAreTranslationEquivariant) {
  // The family from u to v is the translate by u of the family from the
  // identity to u^-1·v, on every ordered pair.
  for (const auto& [m, n] : {std::pair{1u, 3u}, std::pair{2u, 3u}}) {
    const HyperButterfly hb(m, n);
    for (HbIndex r = 1; r < hb.num_nodes(); ++r) {
      const auto base = hb.disjoint_paths(HbNode{}, hb.node_at(r));
      for (HbIndex su = 0; su < hb.num_nodes(); ++su) {
        const HbNode u = hb.node_at(su);
        auto want = base;
        for (auto& p : want) {
          for (HbNode& x : p) x = hb.translate(u, x);
        }
        ASSERT_EQ(hb.disjoint_paths(u, hb.translate(u, hb.node_at(r))), want)
            << "HB(" << m << "," << n << ") u=" << su << " r=" << r;
      }
    }
  }
}

TEST(FaultPlanner, MatchesRouteAroundFaultsOnEveryPair) {
  // Memoized replay and one-shot route_around_faults run the same
  // selection loop: same path and same paths_tried on every ordered pair,
  // under m+3 seeded node faults, with and without banned first hops.
  const HyperButterfly hb(2, 3);
  const auto num = static_cast<std::uint32_t>(hb.num_nodes());
  HbFaultPlanner planner(hb);
  std::mt19937_64 rng(2023);
  std::uniform_int_distribution<std::uint32_t> pick(0, num - 1);
  for (std::uint32_t su = 0; su < num; ++su) {
    for (std::uint32_t sv = 0; sv < num; ++sv) {
      if (su == sv) continue;
      const HbNode u = hb.node_at(su), v = hb.node_at(sv);
      std::vector<char> mask(num, 0);
      HbFaultSet faults;
      while (faults.size() < hb.cube_dimension() + 3) {
        const std::uint32_t f = pick(rng);
        if (f == su || f == sv) continue;
        mask[f] = 1;
        faults.add(hb, hb.node_at(f));
      }
      const FaultRouteResult want =
          route_around_faults(hb, u, v, faults, /*bfs_fallback=*/false);
      const FaultRouteResult got = planner.route(u, v, mask);
      ASSERT_EQ(got.path, want.path) << su << " -> " << sv;
      ASSERT_EQ(got.paths_tried, want.paths_tried) << su << " -> " << sv;
      EXPECT_TRUE(want.ok());

      std::vector<HbNode> banned;
      std::vector<std::uint32_t> banned_ids;
      for (const HbNode& b : hb.neighbors(u)) {
        if (rng() % 3 == 0) {
          banned.push_back(b);
          banned_ids.push_back(static_cast<std::uint32_t>(hb.index_of(b)));
        }
      }
      const FaultRouteResult want_b =
          route_around_faults(hb, u, v, faults, banned);
      const FaultRouteResult got_b = planner.route(u, v, mask, banned_ids);
      ASSERT_EQ(got_b.path, want_b.path) << su << " -> " << sv << " banned";
      ASSERT_EQ(got_b.paths_tried, want_b.paths_tried) << su << " -> " << sv;
    }
  }
}

TEST(FaultPlanner, WarmPlannerMatchesFreshPlanner) {
  // Memo warmth never shows in results: a planner that has planned every
  // relative position answers byte for byte like a fresh one, family bytes
  // included.
  const HyperButterfly hb(2, 4);
  const auto num = static_cast<std::uint32_t>(hb.num_nodes());
  HbFaultPlanner warm(hb);
  const std::vector<char> none;
  for (std::uint32_t r = num - 1; r >= 1; --r) {
    (void)warm.route(HbNode{}, hb.node_at(r), none);
  }
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<std::uint32_t> pick(0, num - 1);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint32_t su = pick(rng), sv = pick(rng);
    std::vector<char> mask(num, 0);
    for (int f = 0; f < 5; ++f) mask[pick(rng)] = 1;
    const std::vector<std::uint32_t> banned{pick(rng)};
    HbFaultPlanner fresh(hb);
    const FaultRouteResult a =
        warm.route(hb.node_at(su), hb.node_at(sv), mask, banned);
    const FaultRouteResult b =
        fresh.route(hb.node_at(su), hb.node_at(sv), mask, banned);
    ASSERT_EQ(a.path, b.path) << "trial=" << trial;
    ASSERT_EQ(a.paths_tried, b.paths_tried) << "trial=" << trial;
    if (su == sv) continue;
    const HbNode r = hb.relative(hb.node_at(su), hb.node_at(sv));
    std::vector<std::uint8_t> planned;
    HbFaultPlanner::plan(hb, r, planned);
    const std::vector<std::uint8_t> memo(warm.family(r),
                                         warm.family(r) + planned.size());
    ASSERT_EQ(memo, planned) << "trial=" << trial;
  }
}

TEST(FaultPlanner, FamilyIsOrderedByLengthThenConstruction) {
  const HyperButterfly hb(2, 3);
  HbFaultPlanner planner(hb);
  for (HbIndex r = 1; r < hb.num_nodes(); ++r) {
    const auto family = hb.disjoint_paths(HbNode{}, hb.node_at(r));
    std::vector<std::size_t> lengths;
    for (const auto& p : family) lengths.push_back(p.size() - 1);
    // The stored members, walked from the identity, in stored order.
    const std::uint8_t* p = planner.family(hb.node_at(r));
    std::vector<std::vector<HbNode>> stored;
    for (unsigned k = 0; k < hb.degree(); ++k) {
      std::vector<HbNode> path{HbNode{}};
      HbFaultPlanner::walk(hb, HbNode{}, p,
                           [&](HbNode x) { path.push_back(x); });
      while (*p != HbFaultPlanner::kEnd) ++p;
      ++p;
      stored.push_back(std::move(path));
    }
    std::vector<bool> used(family.size(), false);
    std::size_t prev_len = 0, prev_index = 0;
    for (std::size_t k = 0; k < stored.size(); ++k) {
      std::size_t index = 0;
      while (index < family.size() &&
             (used[index] || family[index] != stored[k])) {
        ++index;
      }
      ASSERT_LT(index, family.size()) << "r=" << r << " member " << k;
      used[index] = true;
      const std::size_t len = stored[k].size() - 1;
      if (k > 0) {
        ASSERT_TRUE(prev_len < len || (prev_len == len && prev_index < index))
            << "r=" << r << " member " << k;
      }
      prev_len = len;
      prev_index = index;
    }
  }
}

TEST(FaultPlanner, RouteAvoidingAcceptsShortMask) {
  // topology.hpp allows a fault mask shorter than num_nodes(): ids past its
  // end are healthy.
  const auto topo = make_hyper_butterfly_sim(2, 3);
  const std::uint32_t num = topo->num_nodes();
  const std::uint32_t src = 40, dst = 90;
  const std::vector<std::uint32_t> native = topo->route(src, dst);
  ASSERT_GT(native.size(), 2u);
  const std::uint32_t blocked = native[1];
  std::vector<char> short_mask(blocked + 1, 0);
  short_mask[blocked] = 1;
  std::vector<char> full_mask(num, 0);
  full_mask[blocked] = 1;
  const SimFaultRoute a = topo->route_avoiding(src, dst, short_mask);
  const SimFaultRoute b = topo->route_avoiding(src, dst, full_mask);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.path, b.path);
  for (const std::uint32_t v : a.path) EXPECT_NE(v, blocked);
  EXPECT_TRUE(topo->route_avoiding(src, dst, std::vector<char>{}).ok());
}

}  // namespace
}  // namespace hbnet

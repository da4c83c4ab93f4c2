// The neighborhood-provider layer (graph/adjacency.hpp): CSR / implicit
// equivalence on real HB instances, fingerprint compatibility between the
// generic digest and graph_fingerprint, Nagamochi-Ibaraki certificate
// properties (edge bound, cut preservation, determinism), and the orbit
// representative map (cube permutations and the level reflection).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "core/hyper_butterfly.hpp"
#include "graph/adjacency.hpp"
#include "graph/bfs.hpp"
#include "graph/builder.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/sparsify.hpp"
#include "topology/hb_implicit.hpp"

namespace hbnet {
namespace {

Graph random_graph(NodeId n, double p, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  GraphBuilder b(n);
  for (NodeId u = 1; u < n; ++u) {
    b.add_edge(u, std::uniform_int_distribution<NodeId>(0, u - 1)(rng));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (coin(rng) < p) b.add_edge(u, v);
    }
  }
  return b.build();
}

/// Minimal provider that forwards to a Graph but keeps the *base-class*
/// fingerprint / degree_range, so the generic defaults are what gets tested.
class ForwardingProvider final : public AdjacencyProvider {
 public:
  explicit ForwardingProvider(const Graph& g) : g_(g) {}
  NodeId num_nodes() const override { return g_.num_nodes(); }
  std::uint64_t num_edges() const override { return g_.num_edges(); }
  std::uint32_t degree(NodeId v) const override { return g_.degree(v); }
  std::span<const NodeId> neighbors(NodeId v,
                                    NodeId* /*scratch*/) const override {
    return g_.neighbors(v);
  }
  std::string describe() const override { return "forwarding"; }

 private:
  const Graph& g_;
};

TEST(Adjacency, CsrViewMatchesGraph) {
  Graph g = HyperButterfly(2, 3).to_graph();
  CsrAdjacency csr(g);
  EXPECT_EQ(csr.num_nodes(), g.num_nodes());
  EXPECT_EQ(csr.num_edges(), g.num_edges());
  EXPECT_EQ(csr.degree_range(), g.degree_range());
  EXPECT_EQ(csr.fingerprint(), graph_fingerprint(g));
  EXPECT_EQ(csr.describe(), "csr");
  NeighborScratch scratch(csr);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto span = csr.neighbors(v, scratch.data());
    ASSERT_EQ(span.size(), g.neighbors(v).size());
    EXPECT_TRUE(std::equal(span.begin(), span.end(), g.neighbors(v).begin()));
  }
}

TEST(Adjacency, DefaultFingerprintReproducesGraphFingerprint) {
  // The base-class digest enumerates neighborhoods and must land on the
  // exact CSR digest -- this is what keeps v1 checkpoints byte-compatible
  // for any provider that doesn't opt into a mode tag.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Graph g = random_graph(24, 0.3, seed);
    ForwardingProvider fwd(g);
    EXPECT_EQ(fwd.fingerprint(), graph_fingerprint(g)) << "seed " << seed;
    EXPECT_EQ(fwd.degree_range(), g.degree_range()) << "seed " << seed;
  }
}

TEST(Adjacency, ImplicitMatchesCsrOnHbInstances) {
  for (auto [m, n] : {std::pair<unsigned, unsigned>{2, 3}, {3, 3}}) {
    Graph g = HyperButterfly(m, n).to_graph();
    CsrAdjacency csr(g);
    HbImplicitAdjacency imp(m, n);
    ASSERT_EQ(imp.num_nodes(), csr.num_nodes());
    EXPECT_EQ(imp.num_edges(), csr.num_edges());
    const std::pair<std::uint32_t, std::uint32_t> regular{m + 4, m + 4};
    EXPECT_EQ(imp.degree_range(), regular);
    NeighborScratch scratch(imp);
    for (NodeId v = 0; v < imp.num_nodes(); ++v) {
      auto got = imp.neighbors(v, scratch.data());
      auto want = g.neighbors(v);
      ASSERT_EQ(got.size(), want.size()) << "HB(" << m << "," << n
                                         << ") v=" << v;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << "HB(" << m << "," << n << ") v=" << v;
    }
    // Mode-tagged digest: stable across instances, distinct from CSR.
    EXPECT_EQ(imp.fingerprint(), HbImplicitAdjacency(m, n).fingerprint());
    EXPECT_NE(imp.fingerprint(), csr.fingerprint());
  }
}

TEST(Adjacency, ProviderBfsMatchesCsrBfs) {
  HbImplicitAdjacency imp(2, 3);
  Graph g = HyperButterfly(2, 3).to_graph();
  BfsResult want = bfs(g, 0);
  BfsResult got = bfs(imp, 0);
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_TRUE(is_connected(imp));
}

TEST(Adjacency, ConnectivityEntryPointsAcceptProviders) {
  HbImplicitAdjacency imp(2, 3);
  Graph g = HyperButterfly(2, 3).to_graph();
  CsrAdjacency csr(g);
  EXPECT_EQ(vertex_connectivity(imp), 6u);
  EXPECT_EQ(vertex_connectivity(csr), 6u);
  EXPECT_EQ(edge_connectivity(imp), 6u);
  EXPECT_EQ(edge_connectivity(csr, 0, /*sparsify=*/true), 6u);
}

/// The butterfly level reflection sigma(c, w, l) = (c, reverse_n(w),
/// -l mod n), written out from its definition.
HbNode reflect(unsigned n, HbNode v) {
  std::uint32_t reversed = 0;
  for (unsigned k = 0; k < n; ++k) {
    if ((v.bfly.word >> k) & 1) reversed |= 1u << (n - 1 - k);
  }
  return {v.cube, {reversed, (n - v.bfly.level) % n}};
}

/// Brute-force orbit minimum of v under the group generated by the cube-bit
/// transpositions (i, i+1) and sigma.
NodeId orbit_minimum(const HyperButterfly& hb, NodeId v) {
  const unsigned m = hb.cube_dimension(), n = hb.butterfly_dimension();
  std::vector<char> seen(hb.num_nodes(), 0);
  std::vector<NodeId> stack{v};
  seen[v] = 1;
  NodeId best = v;
  while (!stack.empty()) {
    const HbNode x = hb.node_at(stack.back());
    stack.pop_back();
    std::vector<HbNode> images{reflect(n, x)};
    for (unsigned i = 0; i + 1 < m; ++i) {
      HbNode y = x;
      const CubeWord lo = (x.cube >> i) & 1, hi = (x.cube >> (i + 1)) & 1;
      if (lo != hi) y.cube ^= CubeWord{3} << i;
      images.push_back(y);
    }
    for (const HbNode& y : images) {
      const auto id = static_cast<NodeId>(hb.index_of(y));
      if (seen[id] == 0) {
        seen[id] = 1;
        best = std::min(best, id);
        stack.push_back(id);
      }
    }
  }
  return best;
}

TEST(OrbitRepresentative, LevelReflectionIsAutomorphismFixingIdentity) {
  for (unsigned m = 1; m <= 3; ++m) {
    for (unsigned n = 3; n <= 8; ++n) {
      const HyperButterfly hb(m, n);
      const Graph g = hb.to_graph();
      EXPECT_EQ(hb.index_of(reflect(n, HbNode{})), 0u);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        const HbNode su = reflect(n, hb.node_at(u));
        ASSERT_EQ(hb.index_of(reflect(n, su)), u) << "not an involution";
        const auto image = static_cast<NodeId>(hb.index_of(su));
        for (NodeId v : g.neighbors(u)) {
          const HbNode sv = reflect(n, hb.node_at(v));
          ASSERT_TRUE(g.has_edge(image, static_cast<NodeId>(hb.index_of(sv))))
              << "HB(" << m << "," << n << ") edge " << u << "-" << v;
        }
      }
    }
  }
}

TEST(OrbitRepresentative, IsCanonicalAndPreservesKappa) {
  for (auto [m, n] : {std::pair<unsigned, unsigned>{2, 3}, {3, 3}, {2, 4}}) {
    const HyperButterfly hb(m, n);
    const Graph g = hb.to_graph();
    for (NodeId v = 0; v < hb.num_nodes(); ++v) {
      const NodeId rep = hb_cube_orbit_representative(m, n, v);
      // The minimum id of the orbit under cube permutations and sigma.
      ASSERT_EQ(rep, orbit_minimum(hb, v))
          << "HB(" << m << "," << n << ") v=" << v;
      EXPECT_EQ(hb_cube_orbit_representative(m, n, rep), rep);
      // Same local connectivity from the fixed source 0.
      if (v != 0) {
        EXPECT_EQ(max_disjoint_paths(g, 0, v), max_disjoint_paths(g, 0, rep))
            << "v=" << v;
      }
    }
    EXPECT_EQ(hb_cube_orbit_representative(m, n, 0), 0u);
  }
}

TEST(SparseCertificate, EdgeBoundAndDegenerateInputs) {
  Graph g = random_graph(30, 0.6, 99);
  for (std::uint32_t k : {0u, 1u, 2u, 4u, 8u}) {
    SparseCertificate cert = sparse_certificate(g, k);
    EXPECT_EQ(cert.k, k);
    EXPECT_EQ(cert.graph.num_nodes(), g.num_nodes());
    EXPECT_LE(cert.graph.num_edges(),
              static_cast<std::uint64_t>(k) * (g.num_nodes() - 1));
    EXPECT_LE(cert.graph.num_edges(), g.num_edges());
  }
  EXPECT_EQ(sparse_certificate(g, 0).graph.num_edges(), 0u);
  // k >= max degree keeps everything: the certificate IS the graph.
  SparseCertificate full = sparse_certificate(g, g.num_nodes());
  EXPECT_EQ(full.graph.num_edges(), g.num_edges());
  EXPECT_EQ(graph_fingerprint(full.graph), graph_fingerprint(g));
}

TEST(SparseCertificate, PreservesConnectivityUpToK) {
  // min(kappa(cert), k) == min(kappa(G), k) and the same for lambda, over
  // random graphs spanning sparse trees to near-cliques.
  std::uint64_t seed = 400;
  for (NodeId n : {8, 12, 16}) {
    for (double p : {0.2, 0.5, 0.8}) {
      Graph g = random_graph(n, p, seed++);
      const std::uint32_t kappa = vertex_connectivity(g);
      const std::uint32_t lambda = edge_connectivity(g);
      for (std::uint32_t k : {1u, 2u, 3u, 5u, 9u}) {
        SparseCertificate cert = sparse_certificate(g, k);
        EXPECT_EQ(std::min(vertex_connectivity(cert.graph), k),
                  std::min(kappa, k))
            << "n=" << n << " p=" << p << " k=" << k;
        EXPECT_EQ(std::min(edge_connectivity(cert.graph), k),
                  std::min(lambda, k))
            << "n=" << n << " p=" << p << " k=" << k;
      }
    }
  }
}

TEST(SparseCertificate, DeterministicAndProviderGeneric) {
  Graph g = HyperButterfly(2, 3).to_graph();
  CsrAdjacency csr(g);
  HbImplicitAdjacency imp(2, 3);
  SparseCertificate a = sparse_certificate(csr, 3);
  SparseCertificate b = sparse_certificate(g, 3);
  SparseCertificate c = sparse_certificate(imp, 3);
  // Same scan order regardless of entry point or adjacency mode: the
  // certificate graphs are byte-for-byte the same CSR.
  EXPECT_EQ(graph_fingerprint(a.graph), graph_fingerprint(b.graph));
  EXPECT_EQ(graph_fingerprint(a.graph), graph_fingerprint(c.graph));
}

TEST(SparseCertificate, RealWinOnDenseGraph) {
  // Two K_48 cliques joined by 3 bridges: kappa = 3 << min degree = 47.
  // This is the regime sparsification exists for -- the certificate must
  // be several times smaller than the graph (2259 edges vs <= 4*95).
  GraphBuilder b(96);
  for (NodeId u = 0; u < 48; ++u) {
    for (NodeId v = u + 1; v < 48; ++v) {
      b.add_edge(u, v);
      b.add_edge(u + 48, v + 48);
    }
  }
  for (NodeId i = 0; i < 3; ++i) b.add_edge(i, 48 + i);
  Graph g = b.build();
  const std::uint32_t kappa = vertex_connectivity(g);
  ASSERT_EQ(kappa, 3u);
  SparseCertificate cert = sparse_certificate(g, kappa + 1);
  EXPECT_EQ(vertex_connectivity(cert.graph), 3u);
  EXPECT_GE(g.num_edges(), 4 * cert.graph.num_edges());
}

}  // namespace
}  // namespace hbnet

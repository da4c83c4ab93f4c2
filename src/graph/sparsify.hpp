// Nagamochi-Ibaraki sparse connectivity certificates.
//
// sparse_certificate(G, k) runs one scan-first-search forest decomposition
// (Nagamochi & Ibaraki 1992): vertices are scanned in order of their current
// scan count r(v), each unscanned neighbor y of the scanned vertex x assigns
// the edge (x,y) to forest E_{r(y)+1} and increments r(y). The union
// E_1 + ... + E_k is a *k-certificate*: a subgraph with at most k(n-1)
// edges in which, for every vertex pair (u,v),
//
//     min(kappa_cert(u,v), k) == min(kappa_G(u,v), k)   and
//     min(lambda_cert(u,v), k) == min(lambda_G(u,v), k),
//
// i.e. every vertex or edge cut of size < k survives with its exact size and
// larger cuts stay >= k. A max-flow solve truncated at limit <= k therefore
// returns the identical value on the certificate and on the full graph --
// which is how the connectivity sweeps shrink the graph their flow solves
// walk from O(|E|) to O(k |V|) edges without perturbing a single recorded
// result.
//
// The scan is serial, deterministic (max-r bucket queue with LIFO
// tie-breaks, no RNG), and O(n + m) plus the certificate's CSR build; it
// reads adjacency only through the provider interface, so it runs on
// implicit topologies without materializing them. At k >= max degree the
// scan would keep every edge (an edge lands in forest r(y)+1 <= deg(y)), so
// it is skipped and the certificate is a plain CSR copy of the provider
// (to_graph): the case of every regular graph proved at its degree.
#pragma once

#include <cstdint>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"

namespace hbnet {

/// A k-connectivity certificate of the provider's graph.
struct SparseCertificate {
  Graph graph;        // the certificate subgraph, same vertex ids
  std::uint32_t k = 0;  // the cut size up to which it is exact
};

/// Builds the Nagamochi-Ibaraki k-certificate (see file comment). k == 0
/// yields the edgeless graph on the same vertex set.
[[nodiscard]] SparseCertificate sparse_certificate(const AdjacencyProvider& adj,
                                                   std::uint32_t k);

/// Convenience overload for materialized graphs.
[[nodiscard]] SparseCertificate sparse_certificate(const Graph& g,
                                                   std::uint32_t k);

}  // namespace hbnet

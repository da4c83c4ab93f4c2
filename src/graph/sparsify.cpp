#include "graph/sparsify.hpp"

#include <vector>

#include "graph/builder.hpp"

namespace hbnet {

SparseCertificate sparse_certificate(const AdjacencyProvider& adj,
                                     std::uint32_t k) {
  const NodeId n = adj.num_nodes();
  if (k == 0 || n == 0) return {GraphBuilder(n).build(), k};
  // Edge (x,y) lands in forest r(y)+1 <= deg(y): at k >= max degree every
  // edge is kept, and the certificate is the graph itself.
  if (k >= adj.max_degree()) return {to_graph(adj), k};
  GraphBuilder builder(n);

  // Scan-first search: always scan an unscanned vertex with maximum scan
  // count r. The bucket queue holds one entry per r-increment; entries go
  // stale when the vertex is scanned or bumped again, and are skipped on
  // pop. r(v) < degree(v) <= max_degree bounds the bucket count.
  std::vector<std::uint32_t> r(n, 0);
  std::vector<char> scanned(n, 0);
  std::vector<std::vector<NodeId>> buckets(adj.max_degree() + 2);
  buckets[0].reserve(n);
  // Seed descending so LIFO pops scan vertex 0 first; any scan order that
  // respects max-r is a valid certificate, this one is also deterministic.
  for (NodeId v = n; v-- > 0;) buckets[0].push_back(v);

  NeighborScratch scratch(adj);
  std::size_t rmax = 0;
  for (NodeId remaining = n; remaining > 0; --remaining) {
    NodeId x;
    for (;;) {
      while (buckets[rmax].empty()) --rmax;
      x = buckets[rmax].back();
      buckets[rmax].pop_back();
      if (!scanned[x] && r[x] == rmax) break;
    }
    scanned[x] = 1;
    for (NodeId y : adj.neighbors(x, scratch.data())) {
      if (scanned[y]) continue;
      // The edge (x,y) lands in forest E_{r(y)+1}; the union of the first
      // k forests is the certificate.
      if (r[y] < k) builder.add_edge(x, y);
      ++r[y];
      buckets[r[y]].push_back(y);
      if (r[y] > rmax) rmax = r[y];
    }
  }
  return {builder.build(), k};
}

SparseCertificate sparse_certificate(const Graph& g, std::uint32_t k) {
  const CsrAdjacency csr(g);
  return sparse_certificate(csr, k);
}

}  // namespace hbnet

#include "graph/adjacency.hpp"

#include "check/check.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/validate.hpp"

namespace hbnet {

std::pair<std::uint32_t, std::uint32_t> AdjacencyProvider::degree_range()
    const {
  const NodeId n = num_nodes();
  if (n == 0) return {0, 0};
  std::uint32_t lo = degree(0), hi = lo;
  for (NodeId v = 1; v < n; ++v) {
    const std::uint32_t d = degree(v);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  return {lo, hi};
}

std::uint64_t AdjacencyProvider::fingerprint() const {
  // Digest the same byte stream graph_fingerprint() reads off the CSR
  // arrays (node count, the n+1 cumulative row offsets, then every
  // adjacency list), so a provider and the Graph it describes agree.
  const NodeId n = num_nodes();
  std::uint64_t h = detail::kFnv1aBasis;
  detail::fnv1a_mix(h, n);
  std::uint64_t offset = 0;
  detail::fnv1a_mix(h, offset);
  for (NodeId v = 0; v < n; ++v) {
    offset += degree(v);
    detail::fnv1a_mix(h, offset);
  }
  NeighborScratch scratch(*this);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : neighbors(v, scratch.data())) detail::fnv1a_mix(h, u);
  }
  return h;
}

std::uint64_t CsrAdjacency::fingerprint() const {
  return graph_fingerprint(g_);
}

Graph to_graph(const AdjacencyProvider& adj) {
  const NodeId n = adj.num_nodes();
  std::vector<std::uint64_t> offsets(std::size_t{n} + 1, 0);
  std::vector<NodeId> columns;
  columns.reserve(2 * adj.num_edges());
  NeighborScratch scratch(adj);
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const NodeId> nb = adj.neighbors(v, scratch.data());
    columns.insert(columns.end(), nb.begin(), nb.end());
    offsets[v + 1] = columns.size();
  }
  Graph g(std::move(offsets), std::move(columns));
  HBNET_DCHECK_OK(check::validate(g));
  return g;
}

}  // namespace hbnet

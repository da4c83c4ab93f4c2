// Vertex connectivity of undirected graphs via max-flow (Menger's theorem).
//
// The fault-tolerance claim of the paper (Corollary 1: kappa(HB(m,n)) = m+4)
// is verified on *constructed* graphs with these routines, independently of
// the constructive disjoint-path algorithm in src/core.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"

namespace hbnet {

/// Maximum number of internally vertex-disjoint s-t paths (s != t, and
/// (s,t) not required to be non-adjacent; adjacent pairs count the direct
/// edge as one path). One VertexFlow solve (graph/maxflow.hpp).
[[nodiscard]] std::uint32_t max_disjoint_paths(const Graph& g, NodeId s,
                                               NodeId t);

/// Exact vertex connectivity kappa(G).
///
/// Delegates to the Even-Tarjan engine (graph/connectivity_sweep.hpp):
/// at most kappa(G)+1 sources are scanned against their non-neighbors (the
/// source set re-shrinks as the best cut bound drops), pairs whose local
/// connectivity provably reaches the bound are pruned without flow work,
/// and every solve runs on a per-worker VertexFlow over one shared graph.
/// Distributed over a hbnet::par thread pool (`threads`; 0 =
/// par::default_threads()); the result is exact and identical for every
/// thread count. For checkpointed long runs, schedule options, and
/// instrumentation use ConnectivitySweep directly.
[[nodiscard]] std::uint32_t vertex_connectivity(const Graph& g,
                                                unsigned threads = 0);

/// Provider-generic variant: same engine, any adjacency source (CSR view
/// or an implicit topology such as HbImplicitAdjacency).
[[nodiscard]] std::uint32_t vertex_connectivity(const AdjacencyProvider& adj,
                                                unsigned threads = 0);

/// Cheaper probabilistic lower-bound check: verifies that `target` disjoint
/// paths exist between `pairs` randomly chosen vertex pairs. Returns true if
/// all sampled pairs achieve at least `target` disjoint paths. The pair list
/// is drawn up front from `seed` (identical for every thread count); the
/// flow solves run on the pool and stop early once any pair fails.
[[nodiscard]] bool check_local_connectivity_sampled(const Graph& g,
                                                    std::uint32_t target,
                                                    std::uint32_t pairs,
                                                    std::uint64_t seed = 1,
                                                    unsigned threads = 0);

/// Exact edge connectivity lambda(G) (used for sanity cross-checks in tests;
/// lambda >= kappa for any graph). One max-flow per target vertex on a
/// single network built once and cleared with undo_flow() between solves,
/// distributed over the pool with the same exact best-so-far pruning as
/// vertex_connectivity.
[[nodiscard]] std::uint32_t edge_connectivity(const Graph& g,
                                              unsigned threads = 0);

/// Provider-generic variant. With `sparsify`, every flow runs on one
/// Nagamochi-Ibaraki certificate built once at k = deg(0) + 1 (lambda <=
/// deg(0), and no solve's limit exceeds deg(0)+1, so all truncated flow
/// values -- and therefore the result -- are identical with it on or off).
[[nodiscard]] std::uint32_t edge_connectivity(const AdjacencyProvider& adj,
                                              unsigned threads = 0,
                                              bool sparsify = false);

}  // namespace hbnet

// Neighborhood-provider abstraction: the read-only adjacency interface the
// graph algorithms (BFS, connectivity sweeps, sparse certificates, the Dinic
// network builders) consume instead of a concrete CSR `Graph&`.
//
// Two implementations ship with the library:
//  * CsrAdjacency -- zero-copy view over a materialized Graph; neighbors()
//    returns the CSR span directly and ignores the scratch buffer.
//  * HbImplicitAdjacency (topology/hb_implicit.hpp) -- enumerates the m+4
//    neighbors of a hyper-butterfly vertex arithmetically from the Cayley
//    generator set, so HB instances are analyzed without ever materializing
//    O(|E|) adjacency (the same pattern the sharded simulator uses for O(1)
//    routing).
//
// Contract: neighbors(v, scratch) returns the adjacency of v sorted strictly
// ascending, with no self loops and no duplicates -- exactly the CSR
// invariants -- either as a view into provider-owned storage or written into
// `scratch` (caller-supplied, at least max_degree() entries). Every provider
// is safe for concurrent reads from multiple threads as long as each thread
// passes its own scratch buffer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace hbnet {

namespace detail {

/// One FNV-1a step over the 8 bytes of `v` (little-endian byte order).
/// Shared by every adjacency fingerprint so CSR and generic enumeration
/// digest identical inputs to identical values.
inline void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (unsigned byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
}

inline constexpr std::uint64_t kFnv1aBasis = 1469598103934665603ull;

}  // namespace detail

/// Abstract read-only neighborhood source (see file comment for the
/// contract). Algorithms written against this interface run unchanged on
/// materialized CSR graphs and on implicit, generator-defined topologies.
class AdjacencyProvider {
 public:
  virtual ~AdjacencyProvider() = default;

  /// Number of vertices (dense ids 0..num_nodes()-1).
  [[nodiscard]] virtual NodeId num_nodes() const = 0;

  /// Number of undirected edges.
  [[nodiscard]] virtual std::uint64_t num_edges() const = 0;

  /// Degree of `v`.
  [[nodiscard]] virtual std::uint32_t degree(NodeId v) const = 0;

  /// Neighbors of `v`, sorted strictly ascending. `scratch` must hold at
  /// least max_degree() entries; providers that own contiguous storage
  /// (CSR) return a view and leave it untouched.
  [[nodiscard]] virtual std::span<const NodeId> neighbors(
      NodeId v, NodeId* scratch) const = 0;

  /// Minimum and maximum degree; {0,0} for the empty graph. The default
  /// scans every vertex; regular providers override with O(1).
  [[nodiscard]] virtual std::pair<std::uint32_t, std::uint32_t> degree_range()
      const;

  /// Stable identity digest of the adjacency structure, stored in sweep
  /// checkpoints. The default enumerates the graph and reproduces
  /// graph_fingerprint() of the equivalent CSR; implicit providers override
  /// with a mode-tagged digest so a checkpoint taken in one adjacency mode
  /// is never resumed in another.
  [[nodiscard]] virtual std::uint64_t fingerprint() const;

  /// Human-readable mode tag ("csr", "hb-implicit(5,4)").
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Largest degree (upper bound for scratch sizing).
  [[nodiscard]] std::uint32_t max_degree() const {
    return degree_range().second;
  }
};

/// Caller-owned scratch buffer sized for one provider, one per thread.
class NeighborScratch {
 public:
  explicit NeighborScratch(const AdjacencyProvider& adj)
      : buf_(adj.max_degree()) {}
  [[nodiscard]] NodeId* data() { return buf_.data(); }

 private:
  std::vector<NodeId> buf_;
};

/// Zero-copy provider over a materialized CSR Graph. The graph must outlive
/// the adjacency view.
class CsrAdjacency final : public AdjacencyProvider {
 public:
  explicit CsrAdjacency(const Graph& g) : g_(g) {}

  [[nodiscard]] NodeId num_nodes() const override { return g_.num_nodes(); }
  [[nodiscard]] std::uint64_t num_edges() const override {
    return g_.num_edges();
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const override {
    return g_.degree(v);
  }
  [[nodiscard]] std::span<const NodeId> neighbors(
      NodeId v, NodeId* /*scratch*/) const override {
    return g_.neighbors(v);
  }
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> degree_range()
      const override {
    return g_.degree_range();
  }
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] std::string describe() const override { return "csr"; }

  [[nodiscard]] const Graph& graph() const { return g_; }

 private:
  const Graph& g_;
};

/// A CSR copy of the provider's graph: its rows, in vertex order. The
/// provider contract (sorted rows, no loops, no duplicates) makes this the
/// graph GraphBuilder would build from the same edges, without the sort.
[[nodiscard]] Graph to_graph(const AdjacencyProvider& adj);

}  // namespace hbnet

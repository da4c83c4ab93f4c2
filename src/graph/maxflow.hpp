// Max-flow kernels.
//
//  * Dinic -- generic max flow on an explicit arc list, with residual-graph
//    inspection so callers can decompose the final flow into vertex-disjoint
//    paths (flow_disjoint_paths, node_to_set) or run un-split edge flows
//    (edge_connectivity).
//  * VertexFlow -- the library's vertex-disjoint path counter (Menger
//    solver): unit-capacity flow on the vertex-split network of a CSR
//    Graph, with the split kept implicit so the network costs O(n) state
//    next to the shared, read-only adjacency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace hbnet {

/// Dinic's algorithm. Vertices are dense 0-based ids supplied by the caller.
/// Arc capacities are small signed 32-bit integers.
class Dinic {
 public:
  explicit Dinic(std::uint32_t num_vertices)
      : head_(num_vertices, -1), level_(num_vertices), iter_(num_vertices) {}

  /// Adds a directed arc with the given capacity plus its zero-capacity
  /// residual twin. Returns the arc index (twin is index^1).
  std::uint32_t add_arc(std::uint32_t from, std::uint32_t to,
                        std::int32_t capacity);

  /// Pre-sizes the arc store for `arcs` add_arc calls (2 entries each), so
  /// prototype builders that know the arc count up front avoid the
  /// re-allocation churn of incremental push_back.
  void reserve_arcs(std::size_t arcs) { arcs_.reserve(2 * arcs); }

  /// Number of arcs added with add_arc (residual twins not counted).
  [[nodiscard]] std::size_t num_arcs() const { return arcs_.size() / 2; }

  /// Max flow from s to t, stopping early once flow >= limit.
  std::int64_t max_flow(std::uint32_t s, std::uint32_t t, std::int64_t limit);

  /// Restores every arc to the capacity it was added with, undoing all flow
  /// pushed so far, in O(flow pushed): every augment since the last
  /// undo_flow() records the arcs it modified, and only those are restored.
  /// Lets callers with one solve per target (edge_connectivity, the
  /// split-network reference) reuse one network instead of rebuilding it.
  void undo_flow();

  /// Overrides the current AND the undo_flow() capacity of an arc (the twin
  /// is zeroed). Used to mark the terminals of the vertex-split network
  /// before a solve and to restore them afterwards; a set_arc_capacity is
  /// also a flow reset for that arc pair.
  void set_arc_capacity(std::uint32_t arc_index, std::int32_t capacity) {
    arcs_[arc_index].cap = capacity;
    arcs_[arc_index].cap0 = capacity;
    arcs_[arc_index ^ 1].cap = 0;
    arcs_[arc_index ^ 1].cap0 = 0;
  }

  /// Flow pushed through arc `arc_index` (capacity consumed).
  [[nodiscard]] std::int32_t flow_on(std::uint32_t arc_index) const {
    return arcs_[arc_index ^ 1].cap;  // residual of the twin == pushed flow
  }

  /// Arc target.
  [[nodiscard]] std::uint32_t arc_to(std::uint32_t arc_index) const {
    return arcs_[arc_index].to;
  }

  [[nodiscard]] std::uint32_t num_vertices() const {
    return static_cast<std::uint32_t>(head_.size());
  }

 private:
  struct Arc {
    std::uint32_t to;
    std::int32_t next;  // next arc out of the same tail, or -1
    std::int32_t cap;   // residual capacity
    std::int32_t cap0;  // capacity at add_arc time, restored by undo_flow()
  };

  bool build_levels(std::uint32_t s, std::uint32_t t);
  // One augmenting path through the level graph, found with an explicit arc
  // stack (a path may be as long as the network).
  std::int64_t augment(std::uint32_t s, std::uint32_t t, std::int64_t up_to);

  std::vector<std::int32_t> head_;
  std::vector<Arc> arcs_;
  std::vector<std::int32_t> level_;
  std::vector<std::int32_t> iter_;
  std::vector<std::uint32_t> bfs_queue_;  // reused across build_levels calls
  std::vector<std::uint32_t> touched_;    // arcs modified since last restore
  std::vector<std::int32_t> path_;        // augment()'s arc stack
};

/// Counts internally vertex-disjoint s-t paths of a CSR graph, up to a
/// limit: the value of the unit-capacity vertex-split flow network (v_in ->
/// v_out arc of capacity 1 per non-terminal v, an arc u_out -> v_in per
/// direction of every edge; source s_out, sink t_in). An s-t edge counts as
/// exactly one path.
///
/// The split network is never built. Its states are v_in = 2v and v_out =
/// 2v+1, and a flow is one predecessor and one successor per non-terminal
/// vertex (every non-terminal carries at most one unit), so each state's
/// residual arcs follow from the CSR row and those two arrays. Each Dinic
/// phase labels states with their residual distance *to t*, by a reverse
/// BFS that stops when it reaches s; the blocking-flow DFS from s then only
/// steps to states one closer to t, so it meets dead ends only where the
/// phase has saturated arcs. Both searches are iterative.
///
/// State is O(n) and reused across solves: a label is valid only above the
/// current phase's base, so nothing is cleared between phases, and a solve
/// resets only the vertices its flow touched. The graph is read-only, so
/// any number of VertexFlow objects (one per worker) may share it; it must
/// outlive them.
class VertexFlow {
 public:
  explicit VertexFlow(const Graph& g);

  /// min(kappa(s, t), limit), where kappa(s, t) is the maximum number of
  /// internally vertex-disjoint s-t paths (the direct edge, if any, counts
  /// once). Requires s != t.
  std::uint32_t solve(NodeId s, NodeId t, std::uint32_t limit);

 private:
  // What the reverse BFS reads about one vertex, in 16 bytes: the labels of
  // its two states (in = 2v, out = 2v+1) and the flow through it. A label
  // is base_ + distance to t_in; anything below base_ is unlabelled.
  struct Vertex {
    std::uint32_t level[2] = {0, 0};
    NodeId pred = kInvalidNode;
    NodeId succ = kInvalidNode;
  };

  std::uint32_t& level(std::uint32_t x) { return nodes_[x >> 1].level[x & 1]; }
  bool build_levels();
  void label_out(NodeId u, std::uint32_t dist);
  std::uint32_t next_state(std::uint32_t x);
  void push_path();
  void label(std::uint32_t x, std::uint32_t dist) {
    std::uint32_t& l = level(x);
    if (l >= base_) return;
    l = base_ + dist;
    next_.push_back(x);
  }

  const Graph* g_;
  std::uint32_t span_;                  // base_ step: above any distance
  std::uint32_t base_ = 0;              // labels of this phase are >= base_
  NodeId s_ = 0, t_ = 0;
  bool direct_ = false;                 // flow on the s-t edge
  std::vector<Vertex> nodes_;
  std::vector<std::uint32_t> cursor_;   // DFS position in each v_out's arcs
  std::vector<NodeId> cursor_used_;     // vertices whose cursor moved
  std::vector<NodeId> touched_;         // vertices whose pred/succ were set
  // Reverse-BFS levels: the one being expanded, the next one, and the one
  // after it (in-states of flow-free vertices are labelled two ahead).
  std::vector<std::uint32_t> frontier_, next_, skip_;
  std::vector<std::uint32_t> stack_;    // DFS path, s_out first
};

}  // namespace hbnet

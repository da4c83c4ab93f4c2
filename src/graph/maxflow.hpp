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
#include <span>
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
/// residual arcs follow from the CSR row and those two arrays.
///
/// Each Dinic phase finds the residual s_out -> t_in distance D by a
/// bidirectional level search: a forward BFS from s_out over residual arcs
/// and a backward BFS from t_in over reversed ones, each round expanding the
/// side with the smaller frontier. A side never labels a state the other
/// side holds; it records the meeting length instead, and the search stops
/// once the shortest meeting reaches the lower bound depth_f + depth_b + 1
/// (or a side runs out, when the shortest meeting, if any, is D). Every
/// state of every shortest path is then labelled with its exact distance
/// from its own side, so its position on the path is known: forward
/// distance q, or backward distance D - q. The blocking-flow DFS from s_out
/// steps from position q to q + 1 only. Every path it can complete is a
/// shortest augmenting path and every shortest augmenting path is open to
/// it, so Dinic's phase argument holds as for a one-sided level graph: a
/// blocking flow raises D. Dead ends now also lie in the forward ball, off
/// every shortest path. Both searches are iterative.
///
/// A caller that solves many targets from one source can pass the BFS
/// distances from s (one value per vertex) as a seed. Phase 0 is then a
/// walk back from t that steps only to an unused neighbour exactly one
/// distance closer to s, and claims every path that reaches s: with true
/// BFS distances, a blocking set of vertex-disjoint shortest paths, found
/// without a level search. The seed is only a hint. Every step is a real
/// edge along which the array strictly decreases, and a vertex is entered at
/// most once per solve, so any array yields internally disjoint s-t paths,
/// which the Dinic phases after it then augment to the maximum.
///
/// State is O(n) and reused across solves: a label is valid only above the
/// current phase's base, so nothing is cleared between phases, and a solve
/// resets only the vertices its flow touched. The graph is read-only, so
/// any number of VertexFlow objects (one per worker) may share it; it must
/// outlive them. Each object starts on its own cache line, so the per-worker
/// kernels of a pool never share one.
class alignas(64) VertexFlow {
 public:
  explicit VertexFlow(const Graph& g);

  /// min(kappa(s, t), limit), where kappa(s, t) is the maximum number of
  /// internally vertex-disjoint s-t paths (the direct edge, if any, counts
  /// once). Requires s != t. `dist`, if not empty, has one entry per vertex
  /// and seeds phase 0 (see above): the BFS distances from s on this graph
  /// make it fast, and any other values still give the exact result.
  std::uint32_t solve(NodeId s, NodeId t, std::uint32_t limit,
                      std::span<const std::uint32_t> dist = {});

 private:
  // What the level search reads about one vertex, in 16 bytes: the labels
  // of its two states (in = 2v, out = 2v+1) and the flow through it. A
  // label below base_ is unlabelled; base_ + d is backward distance d (to
  // t_in), base_ + span_ + d forward distance d (from s_out).
  struct Vertex {
    std::uint32_t level[2] = {0, 0};
    NodeId pred = kInvalidNode;
    NodeId succ = kInvalidNode;
  };

  // One side of the level search: the level being expanded, the next one,
  // and the one after it (a flow-free vertex's far state is labelled two
  // ahead of the state the side enters it by).
  struct Side {
    std::vector<std::uint32_t> frontier, next, skip;
    std::uint32_t depth = 0;  // distance of the frontier's states

    void start(std::uint32_t x) {
      frontier.assign(1, x);
      next.clear();
      skip.clear();
      depth = 0;
    }
    [[nodiscard]] bool exhausted() const {
      return frontier.empty() && next.empty();
    }
    void advance() {
      frontier.swap(next);
      next.swap(skip);
      skip.clear();
      ++depth;
    }
  };

  std::uint32_t& level(std::uint32_t x) { return nodes_[x >> 1].level[x & 1]; }
  // Moves base_ past every label, so each one reads as unlabelled.
  void new_phase();
  std::uint32_t seed_paths(std::span<const std::uint32_t> dist,
                           std::uint32_t limit);
  bool build_levels();
  void expand_forward();
  void expand_backward();
  // The per-arc steps of the level search and the DFS, forced inline into
  // their loops (defined in maxflow.cpp, their only caller).
  [[gnu::always_inline]] inline void reach(Side& side, std::uint32_t own,
                                           NodeId v, unsigned state,
                                           std::uint32_t dist);
  [[gnu::always_inline]] inline std::uint32_t next_state(std::uint32_t x,
                                                         std::uint32_t q);
  void push_path();

  const Graph* g_;
  std::uint32_t span_;                  // label range of one side
  std::uint32_t base_ = 0;              // labels of this phase are >= base_
  std::uint32_t meet_ = 0;              // shortest meeting found so far
  std::uint32_t dist_ = 0;              // D: s_out -> t_in distance
  NodeId s_ = 0, t_ = 0;
  bool direct_ = false;                 // flow on the s-t edge
  std::vector<Vertex> nodes_;
  std::vector<std::uint32_t> cursor_;   // DFS position in each v_out's arcs
  std::vector<NodeId> touched_;         // vertices whose pred/succ were set
  Side fwd_, bwd_;                      // search from s_out, search from t_in
  std::vector<std::uint32_t> stack_;    // DFS path, s_out first; in the
                                        // seed walk, vertices, t first
};

}  // namespace hbnet

#include "graph/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <span>

#include "check/check.hpp"

namespace hbnet {

std::uint32_t Dinic::add_arc(std::uint32_t from, std::uint32_t to,
                             std::int32_t capacity) {
  std::uint32_t index = static_cast<std::uint32_t>(arcs_.size());
  arcs_.push_back({to, head_[from], capacity, capacity});
  head_[from] = static_cast<std::int32_t>(index);
  arcs_.push_back({from, head_[to], 0, 0});
  head_[to] = static_cast<std::int32_t>(index) + 1;
  return index;
}

void Dinic::undo_flow() {
  // Entries may repeat (one per augmenting path through the arc); restoring
  // to cap0 is idempotent, so duplicates are harmless.
  for (std::uint32_t a : touched_) {
    arcs_[a].cap = arcs_[a].cap0;
    arcs_[a ^ 1].cap = arcs_[a ^ 1].cap0;
  }
  touched_.clear();
}

bool Dinic::build_levels(std::uint32_t s, std::uint32_t t) {
  std::fill(level_.begin(), level_.end(), -1);
  bfs_queue_.clear();
  level_[s] = 0;
  bfs_queue_.push_back(s);
  for (std::size_t qi = 0; qi < bfs_queue_.size(); ++qi) {
    const std::uint32_t u = bfs_queue_[qi];
    for (std::int32_t a = head_[u]; a != -1; a = arcs_[a].next) {
      if (arcs_[a].cap > 0 && level_[arcs_[a].to] < 0) {
        level_[arcs_[a].to] = level_[u] + 1;
        // Early exit: BFS labels level by level, so everything at a level
        // below t is already labelled, and vertices labelled after t could
        // only sit at t's level or deeper -- no augmenting shortest path
        // uses them. Unlabelled vertices keep level -1 and are skipped by
        // the DFS level check.
        if (arcs_[a].to == t) return true;
        bfs_queue_.push_back(arcs_[a].to);
      }
    }
  }
  return level_[t] >= 0;
}

std::int64_t Dinic::augment(std::uint32_t s, std::uint32_t t,
                            std::int64_t up_to) {
  // Depth-first walk of the level graph with path_ as the arc stack. Arcs
  // are tried in the same order as the textbook recursion (iter_ cursors,
  // advanced past an arc only once the subtree behind it is exhausted), so
  // the flow found is identical arc for arc.
  path_.clear();
  std::uint32_t u = s;
  while (u != t) {
    std::int32_t& a = iter_[u];
    while (a != -1 &&
           (arcs_[a].cap <= 0 || level_[arcs_[a].to] != level_[u] + 1)) {
      a = arcs_[a].next;
    }
    if (a != -1) {
      path_.push_back(a);
      u = arcs_[a].to;
      continue;
    }
    if (path_.empty()) return 0;
    path_.pop_back();  // u is a dead end: retreat past the arc into it
    u = path_.empty() ? s : arcs_[path_.back()].to;
    iter_[u] = arcs_[iter_[u]].next;
  }
  std::int64_t pushed = up_to;
  for (std::int32_t a : path_) {
    pushed = std::min<std::int64_t>(pushed, arcs_[a].cap);
  }
  for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
    arcs_[*it].cap -= static_cast<std::int32_t>(pushed);
    arcs_[*it ^ 1].cap += static_cast<std::int32_t>(pushed);
    touched_.push_back(static_cast<std::uint32_t>(*it));
  }
  return pushed;
}

std::int64_t Dinic::max_flow(std::uint32_t s, std::uint32_t t,
                             std::int64_t limit) {
  std::int64_t flow = 0;
  while (flow < limit && build_levels(s, t)) {
    iter_ = head_;
    while (flow < limit) {
      std::int64_t pushed = augment(s, t, limit - flow);
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

namespace {

constexpr std::uint32_t kNoState = static_cast<std::uint32_t>(-1);

}  // namespace

VertexFlow::VertexFlow(const Graph& g)
    : g_(&g),
      span_(2 * g.num_nodes() + 2),
      nodes_(g.num_nodes()),
      cursor_(g.num_nodes(), 0) {}

bool VertexFlow::build_levels() {
  if (base_ > std::numeric_limits<std::uint32_t>::max() - 2 * span_) {
    for (Vertex& v : nodes_) v.level[0] = v.level[1] = 0;  // wrap-around
    base_ = 0;
  }
  base_ += span_;
  // Level-synchronous BFS from t_in over reversed residual arcs; states at
  // distance d-1 are expanded into labels at distance d.
  level(2 * t_) = base_;
  frontier_.assign(1, 2 * t_);
  next_.clear();
  skip_.clear();
  for (std::uint32_t d = 1; !frontier_.empty() || !next_.empty(); ++d) {
    for (const std::uint32_t y : frontier_) {
      const NodeId v = y >> 1;
      const Vertex& vy = nodes_[v];
      if ((y & 1) != 0) {
        // v_out of a vertex with flow: its one residual in-arc cancels
        // v -> succ(v), from succ(v)_in.
        if (vy.succ != t_) label(2 * vy.succ, d);
        continue;
      }
      // Residual arcs into v_in: u_out -> v_in from every neighbour whose
      // edge arc into v is empty, plus v_out -> v_in when v carries flow.
      if (v != t_ && vy.pred != kInvalidNode) label(2 * v + 1, d);
      for (const NodeId u : g_->neighbors(v)) {
        if (u == s_) {
          if (v == t_ ? !direct_ : vy.pred != s_) {
            // BFS found s at distance d: every state closer to t is
            // labelled, which is all the DFS from s can step to.
            level(2 * s_ + 1) = base_ + d;
            return true;
          }
        } else if (u != t_ && nodes_[u].succ != v) {
          label_out(u, d);
        }
      }
    }
    frontier_.swap(next_);
    next_.swap(skip_);
    skip_.clear();
  }
  return false;
}

void VertexFlow::label_out(NodeId u, std::uint32_t dist) {
  Vertex& vu = nodes_[u];
  if (vu.level[1] >= base_) return;
  vu.level[1] = base_ + dist;
  if (vu.pred != kInvalidNode) {
    next_.push_back(2 * u + 1);
    return;
  }
  // Without flow through u, u_in's one residual arc is u_in -> u_out: u_in
  // is one step further from t, and u_out has nothing else to expand.
  vu.level[0] = base_ + dist + 1;
  skip_.push_back(2 * u);
}

std::uint32_t VertexFlow::next_state(std::uint32_t x) {
  // Admissible steps go one level closer to t. Every arc has capacity 1: an
  // arc tried once either led to a dead state or was saturated by a path,
  // and stays useless for the rest of the phase.
  const std::uint32_t want = level(x) - 1;
  const NodeId v = x >> 1;
  Vertex& vx = nodes_[v];
  if ((x & 1) == 0) {
    // v_in of a non-terminal has one residual arc, recomputed on each
    // visit: once tried it points at a dead state or one level up.
    const NodeId p = vx.pred;
    const std::uint32_t y = p == kInvalidNode ? 2 * v + 1
                            : p == s_         ? kNoState
                                              : 2 * p + 1;
    return y != kNoState && level(y) == want ? y : kNoState;
  }
  const std::span<const NodeId> row = g_->neighbors(v);
  const std::uint32_t deg = static_cast<std::uint32_t>(row.size());
  std::uint32_t& next = cursor_[v];
  if (next == 0) cursor_used_.push_back(v);
  while (next < deg) {
    const NodeId w = row[next++];
    if (w == s_) continue;
    const bool free = v == s_ ? (w == t_ ? !direct_ : nodes_[w].pred != s_)
                              : vx.succ != w;
    if (free && level(2 * w) == want) return 2 * w;
  }
  if (next == deg) {
    ++next;
    // v_out -> v_in cancels the flow through v.
    if (v != s_ && vx.pred != kInvalidNode && level(2 * v) == want) {
      return 2 * v;
    }
  }
  return kNoState;
}

void VertexFlow::push_path() {
  // Forward edge arcs set pred/succ; a reverse edge arc clears the pair it
  // cancels unless a forward arc earlier on the path already replaced it.
  for (std::size_t i = 0; i + 1 < stack_.size(); ++i) {
    const std::uint32_t x = stack_[i], y = stack_[i + 1];
    const NodeId a = x >> 1, b = y >> 1;
    if (a == b) continue;  // v_in <-> v_out: implied by the edge arcs
    if ((x & 1) != 0) {    // a_out -> b_in
      if (a == s_ && b == t_) {
        direct_ = true;
        continue;
      }
      if (a != s_) {
        nodes_[a].succ = b;
        touched_.push_back(a);
      }
      if (b != t_) {
        nodes_[b].pred = a;
        touched_.push_back(b);
      }
    } else {  // a_in -> b_out: cancel b -> a
      if (nodes_[a].pred == b) nodes_[a].pred = kInvalidNode;
      if (nodes_[b].succ == a) nodes_[b].succ = kInvalidNode;
    }
  }
}

std::uint32_t VertexFlow::solve(NodeId s, NodeId t, std::uint32_t limit) {
  HBNET_DCHECK_MSG(s != t && s < g_->num_nodes() && t < g_->num_nodes(),
                   "VertexFlow::solve needs two distinct vertices");
  s_ = s;
  t_ = t;
  const std::uint32_t s_out = 2 * s + 1, t_in = 2 * t;
  std::uint32_t flow = 0;
  while (flow < limit && build_levels()) {
    const std::uint32_t dead = base_ + span_ - 1;  // above every distance
    stack_.assign(1, s_out);
    while (flow < limit) {
      const std::uint32_t x = stack_.back();
      if (x == t_in) {
        push_path();
        ++flow;
        stack_.resize(1);
        continue;
      }
      const std::uint32_t y = next_state(x);
      if (y != kNoState) {
        stack_.push_back(y);
        continue;
      }
      level(x) = dead;
      stack_.pop_back();
      if (stack_.empty()) break;  // blocking flow reached
    }
    for (NodeId v : cursor_used_) cursor_[v] = 0;
    cursor_used_.clear();
  }
  for (NodeId v : touched_) nodes_[v].pred = nodes_[v].succ = kInvalidNode;
  touched_.clear();
  direct_ = false;
  return flow;
}

}  // namespace hbnet

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

void VertexFlow::new_phase() {
  if (base_ > std::numeric_limits<std::uint32_t>::max() - 4 * span_) {
    for (Vertex& v : nodes_) v.level[0] = v.level[1] = 0;  // wrap-around
    base_ = 0;
  }
  base_ += 2 * span_;
}

std::uint32_t VertexFlow::seed_paths(std::span<const std::uint32_t> dist,
                                     std::uint32_t limit) {
  HBNET_DCHECK_MSG(dist.size() == nodes_.size(),
                   "VertexFlow::solve seed needs one distance per vertex");
  // A DFS back from t on the edges along which dist drops by exactly one.
  // level[0] >= base_ marks a vertex the walk has entered: it lies on a
  // claimed path or reaches no unused vertex one step closer to s, and the
  // walk only ever uses up more vertices, so it stays dead. Each vertex is
  // entered once and each arc tried once, and the paths claimed are
  // internally disjoint whatever dist holds.
  new_phase();
  nodes_[t_].level[0] = base_;
  stack_.assign(1, t_);
  cursor_[t_] = 0;
  std::uint32_t flow = 0;
  while (flow < limit) {
    const NodeId v = stack_.back();
    const std::span<const NodeId> row = g_->neighbors(v);
    const std::uint32_t deg = static_cast<std::uint32_t>(row.size());
    const std::uint32_t dv = dist[v];
    std::uint32_t next = dv == 0 ? deg : cursor_[v];
    NodeId u = kInvalidNode;
    while (next < deg) {
      const NodeId w = row[next++];
      if (dist[w] + 1 == dv && (w == s_ || nodes_[w].level[0] < base_)) {
        u = w;
        break;
      }
    }
    cursor_[v] = next;
    if (u == s_) {
      // The stack t, w_k, ..., w_1 closes the path s, w_1, ..., w_k, t (the
      // direct edge when the stack is t alone; t's cursor passes s once).
      if (stack_.size() == 1) direct_ = true;
      for (std::size_t i = 1; i < stack_.size(); ++i) {
        Vertex& w = nodes_[stack_[i]];
        w.succ = stack_[i - 1];
        w.pred = i + 1 < stack_.size() ? stack_[i + 1] : s_;
        touched_.push_back(stack_[i]);
      }
      ++flow;
      stack_.resize(1);
    } else if (u != kInvalidNode) {
      nodes_[u].level[0] = base_;
      cursor_[u] = 0;
      stack_.push_back(u);
    } else {
      stack_.pop_back();
      if (stack_.empty()) break;
    }
  }
  return flow;
}

bool VertexFlow::build_levels() {
  new_phase();
  level(2 * t_) = base_;
  level(2 * s_ + 1) = base_ + span_;
  bwd_.start(2 * t_);
  fwd_.start(2 * s_ + 1);
  meet_ = kNoState;
  // While the search goes on, every s_out -> t_in path is at least
  // depth_f + depth_b + 1 long, so a meeting of that length is shortest. A
  // side that runs out has expanded every state it reaches: a shortest path
  // then leaves its ball straight into the other side's, so the shortest
  // meeting recorded is D (kNoState if t_in is cut off), even when it is
  // above the bound.
  while (meet_ > fwd_.depth + bwd_.depth + 1 && !fwd_.exhausted() &&
         !bwd_.exhausted()) {
    if (fwd_.frontier.size() <= bwd_.frontier.size()) {
      expand_forward();
    } else {
      expand_backward();
    }
  }
  dist_ = meet_;
  return meet_ != kNoState;
}

void VertexFlow::reach(Side& side, std::uint32_t own, NodeId v,
                       unsigned state, std::uint32_t dist) {
  Vertex& vx = nodes_[v];
  std::uint32_t& l = vx.level[state];
  if (l >= base_) {
    // If the other side holds the state (l in [other, other + span_); the
    // unsigned difference wraps for l below it), record the meeting. Never
    // relabel.
    const std::uint32_t other = own == base_ ? base_ + span_ : base_;
    if (l - other < span_) meet_ = std::min(meet_, dist + (l - other));
    return;
  }
  l = own + dist;
  if (vx.pred != kInvalidNode) {
    side.next.push_back(2 * v + state);
    return;
  }
  // A side enters a flow-free vertex only by its near state (forward: v_in,
  // backward: v_out), whose one residual arc on that side is the v_in ->
  // v_out arc: the far state is one step further, and the near state has
  // nothing else to expand. Nothing else reaches the far state, so it is
  // free.
  vx.level[state ^ 1] = own + dist + 1;
  side.skip.push_back(2 * v + (state ^ 1));
}

void VertexFlow::expand_forward() {
  const std::uint32_t own = base_ + span_, d = fwd_.depth + 1;
  const std::uint32_t bound = fwd_.depth + bwd_.depth + 1;
  for (const std::uint32_t x : fwd_.frontier) {
    const NodeId u = x >> 1;
    const Vertex& vu = nodes_[u];
    if ((x & 1) == 0) {
      // u_in of a vertex with flow: its one residual arc cancels pred(u) ->
      // u, into pred(u)_out.
      reach(fwd_, own, vu.pred, 1, d);
    } else {
      // Residual arcs out of u_out: u_out -> w_in to every neighbour whose
      // edge arc from u is empty, plus u_out -> u_in when u carries flow.
      if (vu.pred != kInvalidNode) reach(fwd_, own, u, 0, d);
      for (const NodeId w : g_->neighbors(u)) {
        if (w == s_) continue;
        const bool free = u == s_ ? (w == t_ ? !direct_ : nodes_[w].pred != s_)
                                  : vu.succ != w;
        if (free) reach(fwd_, own, w, 0, d);
      }
    }
    if (meet_ <= bound) return;
  }
  fwd_.advance();
}

void VertexFlow::expand_backward() {
  const std::uint32_t d = bwd_.depth + 1;
  const std::uint32_t bound = fwd_.depth + bwd_.depth + 1;
  for (const std::uint32_t y : bwd_.frontier) {
    const NodeId v = y >> 1;
    const Vertex& vy = nodes_[v];
    if ((y & 1) != 0) {
      // v_out of a vertex with flow: its one residual in-arc cancels v ->
      // succ(v), from succ(v)_in.
      reach(bwd_, base_, vy.succ, 0, d);
    } else {
      // Residual arcs into v_in: u_out -> v_in from every neighbour whose
      // edge arc into v is empty, plus v_out -> v_in when v carries flow.
      if (vy.pred != kInvalidNode) reach(bwd_, base_, v, 1, d);
      for (const NodeId u : g_->neighbors(v)) {
        if (u == t_) continue;
        const bool free = u == s_ ? (v == t_ ? !direct_ : vy.pred != s_)
                                  : nodes_[u].succ != v;
        if (free) reach(bwd_, base_, u, 1, d);
      }
    }
    if (meet_ <= bound) return;
  }
  bwd_.advance();
}

std::uint32_t VertexFlow::next_state(std::uint32_t x, std::uint32_t q) {
  // x sits at position q < D of a shortest path. Admissible steps go to
  // position q + 1: a state at backward distance D - q - 1 or at forward
  // distance q + 1, except that position D is t_in alone. Every arc has
  // capacity 1: an arc tried once either led to a dead state or was
  // saturated by a path, and stays useless for the rest of the phase.
  const std::uint32_t want_b = base_ + dist_ - q - 1;
  const std::uint32_t want_f = q + 1 < dist_ ? base_ + span_ + q + 1 : want_b;
  auto admissible = [&](std::uint32_t y) {
    const std::uint32_t l = level(y);
    return l == want_b || l == want_f;
  };
  const NodeId v = x >> 1;
  Vertex& vx = nodes_[v];
  if ((x & 1) == 0) {
    // v_in of a non-terminal has one residual arc, recomputed on each
    // visit: once tried it points at a dead state or one position back
    // (s_out, at forward distance 0, is never admissible).
    const NodeId p = vx.pred;
    const std::uint32_t y = p == kInvalidNode ? 2 * v + 1 : 2 * p + 1;
    return admissible(y) ? y : kNoState;
  }
  const std::span<const NodeId> row = g_->neighbors(v);
  const std::uint32_t deg = static_cast<std::uint32_t>(row.size());
  std::uint32_t& next = cursor_[v];
  while (next < deg) {
    const NodeId w = row[next++];
    if (w == s_) continue;
    const bool free = v == s_ ? (w == t_ ? !direct_ : nodes_[w].pred != s_)
                              : vx.succ != w;
    if (free && admissible(2 * w)) return 2 * w;
  }
  if (next == deg) {
    ++next;
    // v_out -> v_in cancels the flow through v.
    if (v != s_ && vx.pred != kInvalidNode && admissible(2 * v)) {
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

std::uint32_t VertexFlow::solve(NodeId s, NodeId t, std::uint32_t limit,
                               std::span<const std::uint32_t> dist) {
  HBNET_DCHECK_MSG(s != t && s < g_->num_nodes() && t < g_->num_nodes(),
                   "VertexFlow::solve needs two distinct vertices");
  s_ = s;
  t_ = t;
  const std::uint32_t s_out = 2 * s + 1, t_in = 2 * t;
  std::uint32_t flow = dist.empty() || limit == 0 ? 0 : seed_paths(dist, limit);
  while (flow < limit && build_levels()) {
    // Above every forward label, below the next phase's base.
    const std::uint32_t dead = base_ + 2 * span_ - 1;
    stack_.assign(1, s_out);
    cursor_[s] = 0;
    while (flow < limit) {
      const std::uint32_t x = stack_.back();
      if (x == t_in) {
        push_path();
        ++flow;
        stack_.resize(1);
        continue;
      }
      const std::uint32_t y =
          next_state(x, static_cast<std::uint32_t>(stack_.size() - 1));
      if (y != kNoState) {
        // An out-state is entered at most once per phase: it leaves the
        // stack dead, or on a path, after which its only residual in-arc
        // comes from the next position. So its arc cursor restarts on
        // entry.
        if ((y & 1) != 0) cursor_[y >> 1] = 0;
        stack_.push_back(y);
        continue;
      }
      level(x) = dead;
      stack_.pop_back();
      if (stack_.empty()) break;  // blocking flow reached
    }
  }
  for (NodeId v : touched_) nodes_[v].pred = nodes_[v].succ = kInvalidNode;
  touched_.clear();
  direct_ = false;
  return flow;
}

}  // namespace hbnet

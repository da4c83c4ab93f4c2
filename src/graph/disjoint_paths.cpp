#include "graph/disjoint_paths.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_set>

#include "graph/maxflow.hpp"

namespace hbnet {

PathFamilyCheck check_path(const Graph& g, const Path& p, NodeId s, NodeId t) {
  PathFamilyCheck r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.error = msg;
    return r;
  };
  if (p.empty()) return fail("empty path");
  if (p.front() != s) return fail("path does not start at s");
  if (p.back() != t) return fail("path does not end at t");
  std::unordered_set<NodeId> seen;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (!seen.insert(p[i]).second) {
      std::ostringstream os;
      os << "repeated vertex " << p[i] << " at position " << i;
      return fail(os.str());
    }
    if (i > 0 && !g.has_edge(p[i - 1], p[i])) {
      std::ostringstream os;
      os << "non-edge (" << p[i - 1] << "," << p[i] << ") at position " << i;
      return fail(os.str());
    }
  }
  return r;
}

PathFamilyCheck check_disjoint_paths(const Graph& g,
                                     std::span<const Path> paths, NodeId s,
                                     NodeId t) {
  PathFamilyCheck r;
  std::unordered_set<NodeId> interior;  // union of interiors seen so far
  for (std::size_t k = 0; k < paths.size(); ++k) {
    PathFamilyCheck single = check_path(g, paths[k], s, t);
    if (!single.ok) {
      std::ostringstream os;
      os << "path " << k << ": " << single.error;
      r.ok = false;
      r.error = os.str();
      return r;
    }
    for (std::size_t i = 1; i + 1 < paths[k].size(); ++i) {
      if (!interior.insert(paths[k][i]).second) {
        std::ostringstream os;
        os << "paths share interior vertex " << paths[k][i] << " (path " << k
           << ")";
        r.ok = false;
        r.error = os.str();
        return r;
      }
    }
  }
  return r;
}

std::vector<Path> flow_disjoint_paths(const Graph& g, NodeId s, NodeId t,
                                      std::pair<NodeId, NodeId> forbidden_edge) {
  // Vertex-split network: v_in = 2v, v_out = 2v+1; unit in->out arcs except
  // at the terminals; unit arcs u_out -> v_in per direction of each edge.
  const NodeId n = g.num_nodes();
  Dinic dinic(2 * n);
  dinic.reserve_arcs(std::size_t{n} + g.row_offsets().back());
  constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max() / 2;
  for (NodeId v = 0; v < n; ++v) {
    dinic.add_arc(2 * v, 2 * v + 1, (v == s || v == t) ? kInf : 1);
  }
  auto is_forbidden = [&](NodeId a, NodeId b) {
    auto [x, y] = forbidden_edge;
    return (a == x && b == y) || (a == y && b == x);
  };
  // The edge arcs leaving u_out are added in one contiguous run; cursor[u]
  // starts one past the last of them (arc ids step by 2 over the residual
  // twins), and the decomposition below only ever moves it down.
  std::vector<std::uint32_t> cursor(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (!is_forbidden(u, v)) dinic.add_arc(2 * u + 1, 2 * v, 1);
    }
    cursor[u] = static_cast<std::uint32_t>(2 * dinic.num_arcs());
  }
  std::int64_t limit =
      static_cast<std::int64_t>(std::min(g.degree(s), g.degree(t))) + 1;
  std::int64_t flow = dinic.max_flow(2 * s + 1, 2 * t, limit);

  // Decompose: from s, repeatedly follow saturated arcs, consuming them
  // last-added first.
  std::vector<Path> paths;
  paths.reserve(static_cast<std::size_t>(flow));
  for (std::int64_t k = 0; k < flow; ++k) {
    Path p{s};
    NodeId cur = s;
    while (cur != t) {
      // Flow conservation guarantees a saturated arc below the cursor.
      std::uint32_t arc = cursor[cur];
      do {
        arc -= 2;
      } while (dinic.flow_on(arc) <= 0);
      cursor[cur] = arc;             // consume it
      cur = dinic.arc_to(arc) / 2;  // v_in -> vertex id
      p.push_back(cur);
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

std::size_t max_path_length(std::span<const Path> paths) {
  std::size_t best = 0;
  for (const Path& p : paths) {
    if (!p.empty()) best = std::max(best, p.size() - 1);
  }
  return best;
}

}  // namespace hbnet

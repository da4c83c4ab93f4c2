// Theorem 5: m+4 internally vertex-disjoint paths between any two vertices
// of HB(m,n) -- the constructive heart of the paper's "optimally fault
// tolerant" claim (Corollary 1), and the basis of fault-tolerant routing
// (Remark 10).
//
// The paper's proof sketch has three cases; its Case 3 glosses over corner
// collisions (e.g. when h and h' are cube-adjacent the butterfly segments of
// cube-type and butterfly-type paths land in the same layer). The
// construction below is a tightened version with a full disjointness proof:
//
// Let P_1..P_m be the classical internally disjoint h->h' hypercube paths
// (rotation + detour family; their first internal vertices are the m
// distinct neighbors of h) and Q_1..Q_4 internally disjoint b->b' butterfly
// paths (unit-capacity max flow; when b ~ b' the direct edge is forced to be
// one of them). Designate a "spine" cube path P_{i0} (the direct edge when
// it exists, so every other P_i has internal vertices) and a spine butterfly
// path Q_{j0} (likewise). The m+4 paths of Case 3 are
//
//   C_i   (i != i0): u -> (p_i1, b) -> [Q_{j0} in cube layer p_i1]
//                      -> (p_i1, b') -> [P_i suffix in butterfly layer b'] -> v
//   C_i0           : u -> [Q_{j0} in cube layer h] -> (h, b')
//                      -> [P_{i0} suffix in butterfly layer b'] -> v
//   B_j   (j != j0): u -> (h, q_j1) -> [P_{i0} in butterfly layer q_j1]
//                      -> (h', q_j1) -> [Q_j suffix in cube layer h'] -> v
//   B_j0           : u -> [P_{i0} in butterfly layer b] -> (h', b)
//                      -> [Q_{j0} suffix in cube layer h'] -> v
//
// where p_i1 / q_j1 are first internal vertices and "suffix" drops the first
// vertex. Sharing the spines P_{i0} / Q_{j0} across different layers is what
// makes the cross collisions impossible: a cube-layer segment (x fixed) and
// a butterfly-layer segment (y fixed) can only meet at the single vertex
// (x, y), and in every pairing either x is not on the relevant cube path or
// y is not on the relevant butterfly path. Cases 1 and 2 (one coordinate
// equal) follow the paper directly. All families are revalidated in tests
// via graph/disjoint_paths.hpp on exhaustive small sweeps.
//
// Translation. HB(m,n) is a Cayley graph (Theorem 1), so left translation
// by u, x -> u·x = (h_u ^ h, (w_u ^ rotl_n(w, l_u), (l + l_u) mod n)), is
// an automorphism that keeps every generator label and maps the identity
// e = (0, (0, 0)) to u. The construction above runs only from e:
// disjoint_paths(u, v) is the translate by u of the family from e to the
// relative position u^-1·v. Pairs with the same relative position therefore
// get the same family as generator sequences, which is what lets the
// fault planner (core/fault_routing.hpp) plan each relative position once
// and replay it from any source. Q_1..Q_4 depend only on the butterfly
// part b' of the relative position (theorem5_butterfly_paths), so the
// planner runs one B_n flow per butterfly position, not per relative
// position. The same translation argument lets audit_disjoint_paths check
// only the families from e. The members are listed in construction order
// (Case 1-3 order above); the fault router inspects them by (length,
// construction index).

#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "check/check.hpp"
#include "core/validate.hpp"
#include "core/hyper_butterfly.hpp"
#include "graph/disjoint_paths.hpp"
#include "par/pool.hpp"

namespace hbnet {
namespace {

using HbPath = std::vector<HbNode>;

}  // namespace

BflyPaths theorem5_butterfly_paths(const HyperButterfly& hb, BflyNode b2) {
  const Butterfly& bf = hb.butterfly();
  const Graph& layer = hb.butterfly_graph();
  const NodeId s = bf.index_of(BflyNode{}), t = bf.index_of(b2);
  std::vector<Path> raw;
  if (layer.has_edge(s, t)) {
    raw.push_back({s, t});
    for (Path& p : flow_disjoint_paths(layer, s, t, {s, t})) {
      raw.push_back(std::move(p));
    }
  } else {
    raw = flow_disjoint_paths(layer, s, t);
  }
  if (raw.size() != 4) {
    throw std::logic_error(
        "theorem5_butterfly_paths: expected exactly 4 disjoint paths, got " +
        std::to_string(raw.size()));
  }
  BflyPaths out;
  out.reserve(4);
  for (const Path& p : raw) {
    std::vector<BflyNode> nodes;
    nodes.reserve(p.size());
    for (NodeId id : p) nodes.push_back(bf.node_at(id));
    out.push_back(std::move(nodes));
  }
  return out;
}

std::vector<std::vector<HbNode>> theorem5_family(const HyperButterfly& hb,
                                                 HbNode v,
                                                 const BflyPaths& Q) {
  const Hypercube& cube = hb.hypercube();
  const Butterfly& bfly = hb.butterfly();
  const unsigned m = hb.cube_dimension();
  const HbNode u{};  // the identity e
  const CubeWord h = u.cube, h2 = v.cube;
  const BflyNode b = u.bfly, b2 = v.bfly;
  std::vector<HbPath> paths;
  paths.reserve(m + 4);

  if (b == b2) {
    // Case 1: same butterfly part. m cube paths inside layer b, plus 4
    // paths detouring through the butterfly neighbors of b.
    for (const auto& p : cube.disjoint_paths(h, h2)) {
      HbPath lifted;
      lifted.reserve(p.size());
      for (CubeWord x : p) lifted.push_back({x, b});
      paths.push_back(std::move(lifted));
    }
    const std::vector<CubeWord> cube_route = cube.route(h, h2);
    for (BflyNode nb : bfly.neighbors(b)) {
      HbPath p{u};
      for (CubeWord x : cube_route) p.push_back({x, nb});
      p.push_back(v);
      paths.push_back(std::move(p));
    }
    return paths;
  }

  if (h == h2) {
    // Case 2: same hypercube part. m paths detouring through the cube
    // neighbors of h, plus the 4 butterfly-disjoint paths inside layer h.
    const std::vector<BflyNode> bfly_route = bfly.route_nodes(b, b2);
    for (unsigned i = 0; i < m; ++i) {
      CubeWord hn = h ^ (CubeWord{1} << i);
      HbPath p{u};
      for (BflyNode z : bfly_route) p.push_back({hn, z});
      p.push_back(v);
      paths.push_back(std::move(p));
    }
    for (const auto& q : Q) {
      HbPath lifted;
      lifted.reserve(q.size());
      for (BflyNode z : q) lifted.push_back({h, z});
      paths.push_back(std::move(lifted));
    }
    return paths;
  }

  // Case 3: both parts differ.
  const auto P = cube.disjoint_paths(h, h2);
  // Spines: the direct edge (length-1 path) when present, else index 0.
  std::size_t i0 = 0, j0 = 0;
  for (std::size_t i = 0; i < P.size(); ++i) {
    if (P[i].size() == 2) i0 = i;
  }
  for (std::size_t j = 0; j < Q.size(); ++j) {
    if (Q[j].size() == 2) j0 = j;
  }

  for (std::size_t i = 0; i < P.size(); ++i) {
    HbPath p{u};
    if (i == i0) {
      for (std::size_t z = 1; z < Q[j0].size(); ++z) p.push_back({h, Q[j0][z]});
      for (std::size_t x = 1; x < P[i0].size(); ++x) p.push_back({P[i0][x], b2});
    } else {
      const CubeWord pi1 = P[i][1];
      p.push_back({pi1, b});
      for (std::size_t z = 1; z < Q[j0].size(); ++z) {
        p.push_back({pi1, Q[j0][z]});
      }
      for (std::size_t x = 2; x < P[i].size(); ++x) p.push_back({P[i][x], b2});
    }
    paths.push_back(std::move(p));
  }
  for (std::size_t j = 0; j < Q.size(); ++j) {
    HbPath p{u};
    if (j == j0) {
      for (std::size_t x = 1; x < P[i0].size(); ++x) p.push_back({P[i0][x], b});
      for (std::size_t z = 1; z < Q[j0].size(); ++z) {
        p.push_back({h2, Q[j0][z]});
      }
    } else {
      const BflyNode qj1 = Q[j][1];
      p.push_back({h, qj1});
      for (std::size_t x = 1; x < P[i0].size(); ++x) p.push_back({P[i0][x], qj1});
      for (std::size_t z = 2; z < Q[j].size(); ++z) p.push_back({h2, Q[j][z]});
    }
    paths.push_back(std::move(p));
  }
  return paths;
}

std::vector<std::vector<HbNode>> HyperButterfly::disjoint_paths(
    HbNode u, HbNode v) const {
  if (u == v) {
    throw std::invalid_argument("HyperButterfly::disjoint_paths: u == v");
  }
  const HbNode r = relative(u, v);
  const BflyPaths q = r.bfly == BflyNode{}
                          ? BflyPaths{}
                          : theorem5_butterfly_paths(*this, r.bfly);
  std::vector<HbPath> paths = theorem5_family(*this, r, q);
  for (HbPath& p : paths) {
    for (HbNode& x : p) x = translate(u, x);
  }
  return paths;
}

DisjointPathsAudit audit_disjoint_paths(const HyperButterfly& hb,
                                        unsigned threads) {
  HBNET_DCHECK_OK(check::validate(hb));
  const Graph g = hb.to_graph();
  // Materialize the lazy butterfly layer before fanning out: it is the only
  // mutable state disjoint_paths() touches, and initializing it here
  // happens-before every pool worker starts.
  (void)hb.butterfly_graph();
  const std::uint64_t n = hb.num_nodes();
  const std::uint32_t expected = hb.degree();
  // One family per target v != e; translation covers every other source.
  const std::uint64_t targets = n - 1;
  std::atomic<std::uint64_t> first_bad{targets};  // lowest failing task
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::string>> failures;
  par::ThreadPool pool(threads);
  pool.parallel_for(targets, [&](std::uint64_t k) {
    // Cheap early exit once some lower target already failed; harmless for
    // determinism because only the minimum failure index is reported.
    if (k > first_bad.load(std::memory_order_relaxed)) return;
    const std::uint64_t v = k + 1;
    std::string error;
    try {
      const auto family = hb.disjoint_paths(HbNode{}, hb.node_at(v));
      if (family.size() != expected) {
        std::ostringstream os;
        os << "expected " << expected << " paths, got " << family.size();
        error = os.str();
      } else {
        std::vector<Path> paths;
        paths.reserve(family.size());
        for (const auto& p : family) {
          Path ids;
          ids.reserve(p.size());
          for (const HbNode& w : p) ids.push_back(
              static_cast<NodeId>(hb.index_of(w)));
          paths.push_back(std::move(ids));
        }
        PathFamilyCheck check =
            check_disjoint_paths(g, paths, 0, static_cast<NodeId>(v));
        if (!check.ok) error = check.error;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!error.empty()) {
      std::uint64_t seen = first_bad.load(std::memory_order_relaxed);
      while (k < seen && !first_bad.compare_exchange_weak(
                             seen, k, std::memory_order_relaxed)) {
      }
      std::ostringstream os;
      os << "pair (0 -> " << v << "): " << error;
      std::lock_guard<std::mutex> lock(mu);
      // Completion order varies run to run, but the reported failure is
      // selected below by the minimal task index k (first_bad), which is
      // order-independent.
      failures.emplace_back(k, os.str());  // hblint: allow(parallel-capture)
    }
  });
  DisjointPathsAudit audit;
  audit.pairs_checked = n * (n - 1);
  const std::uint64_t bad = first_bad.load();
  if (bad != targets) {
    audit.ok = false;
    for (const auto& [k, msg] : failures) {
      if (k == bad) audit.error = msg;
    }
  }
  return audit;
}

}  // namespace hbnet

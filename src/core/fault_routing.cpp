#include "core/fault_routing.hpp"

#include <algorithm>
#include <numeric>

#include "check/check.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"

namespace hbnet {

namespace {

/// Records the outcome of one routing attempt into the sink.
void report(obs::Sink* sink, const HyperButterfly& hb, HbNode u, HbNode v,
            const FaultRouteResult& r) {
  if (sink == nullptr) return;
  obs::MetricsRegistry& reg = sink->metrics();
  reg.counter("fault_route.attempts").inc();
  reg.counter("fault_route.paths_tried").inc(r.paths_tried);
  if (r.used_fallback) reg.counter("fault_route.bfs_fallbacks").inc();
  if (!r.ok()) reg.counter("fault_route.failures").inc();
  HBNET_TRACE_INSTANT(
      sink, "routing", "route_around_faults", 0,
      static_cast<std::uint32_t>(hb.index_of(u)), 0,
      {{"src", hb.index_of(u)},
       {"dst", hb.index_of(v)},
       {"paths_tried", r.paths_tried},
       {"fallback", r.used_fallback ? 1u : 0u},
       {"hops", r.path.empty() ? 0 : r.path.size() - 1}});
}

/// The generator byte of the edge x -> y.
std::uint8_t generator_byte(const HyperButterfly& hb, HbNode x, HbNode y) {
  for (std::uint8_t gen = 0; gen < hb.degree(); ++gen) {
    if (hb.apply(x, gen) == y) return gen;
  }
  HBNET_CHECK_MSG(false, "generator_byte: x and y are not adjacent");
  return HbFaultPlanner::kEnd;
}

/// Materializes a selection as a node path from u.
FaultRouteResult to_result(const HyperButterfly& hb, HbNode u,
                           const HbFaultPlanner::Choice& c) {
  FaultRouteResult out;
  out.paths_tried = c.paths_tried;
  if (c.found) {
    out.path.push_back(u);
    HbFaultPlanner::walk(hb, u, c.member,
                         [&](HbNode x) { out.path.push_back(x); });
  }
  return out;
}

/// Shared core of both route_around_faults overloads. `banned_first` may be
/// null (no link bans); when set, the BFS fallback is unavailable because the
/// reference search cannot honor per-edge bans.
FaultRouteResult route_around_faults_impl(const HyperButterfly& hb, HbNode u,
                                          HbNode v, const HbFaultSet& faults,
                                          const std::vector<HbNode>* banned_first,
                                          bool bfs_fallback, obs::Sink* sink) {
  // One-shot planning: the family of this one relative position.
  std::vector<std::uint8_t> family;
  FaultRouteResult r = to_result(
      hb, u,
      HbFaultPlanner::select(
          hb, u, v, [&](HbNode x) { return faults.contains(hb, x); },
          [&](HbNode x) {
            return banned_first != nullptr &&
                   std::find(banned_first->begin(), banned_first->end(), x) !=
                       banned_first->end();
          },
          [&](HbNode rel) {
            HbFaultPlanner::plan(hb, rel, family);
            return family.data();
          }));
  if (!r.ok() && bfs_fallback && !faults.contains(hb, u) &&
      !faults.contains(hb, v)) {
    if (auto p = hb_bfs_path(hb, u, v, &faults)) {
      r.path = std::move(*p);
      r.used_fallback = true;
    }
  }
  report(sink, hb, u, v, r);
  return r;
}

/// Appends `family` (from the identity) to `out` in the stored form.
void append_family(const HyperButterfly& hb,
                   const std::vector<std::vector<HbNode>>& family,
                   std::vector<std::uint8_t>& out) {
  std::vector<std::size_t> order(family.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return family[a].size() < family[b].size();
                   });
  for (const std::size_t k : order) {
    const std::vector<HbNode>& path = family[k];
    for (std::size_t i = 1; i < path.size(); ++i) {
      out.push_back(generator_byte(hb, path[i - 1], path[i]));
    }
    out.push_back(HbFaultPlanner::kEnd);
  }
}

}  // namespace

void HbFaultPlanner::plan(const HyperButterfly& hb, HbNode r,
                          std::vector<std::uint8_t>& out) {
  append_family(hb, hb.disjoint_paths(HbNode{}, r), out);
}

BflyPaths HbFaultPlanner::butterfly_paths(BflyNode b) {
  const Butterfly& bfly = hb_->butterfly();
  if (bfly_offset_.empty()) bfly_offset_.assign(bfly.num_nodes(), kUnplanned);
  std::uint32_t& at = bfly_offset_[bfly.index_of(b)];
  if (at == kUnplanned) {
    at = static_cast<std::uint32_t>(bfly_arena_.size());
    const unsigned m = hb_->cube_dimension();
    for (const std::vector<BflyNode>& q : theorem5_butterfly_paths(*hb_, b)) {
      for (std::size_t i = 1; i < q.size(); ++i) {
        bfly_arena_.push_back(static_cast<std::uint8_t>(
            generator_byte(*hb_, {0, q[i - 1]}, {0, q[i]}) - m));
      }
      bfly_arena_.push_back(kEnd);
    }
  }
  BflyPaths out(Butterfly::degree());
  const std::uint8_t* p = bfly_arena_.data() + at;
  for (std::vector<BflyNode>& q : out) {
    q.push_back(BflyNode{});
    for (; *p != kEnd; ++p) {
      q.push_back(bfly.apply(q.back(), static_cast<BflyGen>(*p)));
    }
    ++p;
  }
  return out;
}

const std::uint8_t* HbFaultPlanner::family(HbNode r) {
  if (offset_.empty()) offset_.assign(hb_->num_nodes(), kUnplanned);
  std::uint32_t& at = offset_[hb_->index_of(r)];
  if (at == kUnplanned) {
    const auto start = static_cast<std::uint32_t>(arena_.size());
    const BflyPaths q =
        r.bfly == BflyNode{} ? BflyPaths{} : butterfly_paths(r.bfly);
    append_family(*hb_, theorem5_family(*hb_, r, q), arena_);
    at = start;
  }
  return arena_.data() + at;
}

HbFaultPlanner::Choice HbFaultPlanner::choose(
    HbNode u, HbNode v, const std::vector<char>& faulty,
    const std::vector<std::uint32_t>& banned_first) {
  const HyperButterfly& hb = *hb_;
  return select(
      hb, u, v,
      [&](HbNode x) {
        const HbIndex id = hb.index_of(x);
        return id < faulty.size() && faulty[id] != 0;
      },
      [&](HbNode x) {
        const HbIndex id = hb.index_of(x);
        return std::find(banned_first.begin(), banned_first.end(), id) !=
               banned_first.end();
      },
      [this](HbNode r) { return family(r); });
}

FaultRouteResult HbFaultPlanner::route(
    HbNode u, HbNode v, const std::vector<char>& faulty,
    const std::vector<std::uint32_t>& banned_first) {
  return to_result(*hb_, u, choose(u, v, faulty, banned_first));
}

FaultRouteResult route_around_faults(const HyperButterfly& hb, HbNode u,
                                     HbNode v, const HbFaultSet& faults,
                                     bool bfs_fallback, obs::Sink* sink) {
  return route_around_faults_impl(hb, u, v, faults, /*banned_first=*/nullptr,
                                  bfs_fallback, sink);
}

FaultRouteResult route_around_faults(const HyperButterfly& hb, HbNode u,
                                     HbNode v, const HbFaultSet& faults,
                                     const std::vector<HbNode>& banned_first,
                                     obs::Sink* sink) {
  return route_around_faults_impl(hb, u, v, faults, &banned_first,
                                  /*bfs_fallback=*/false, sink);
}

}  // namespace hbnet

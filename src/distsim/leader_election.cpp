#include "distsim/leader_election.hpp"

#include <algorithm>
#include <array>

namespace hbnet {
namespace {

ElectionResult finalize(const std::vector<std::int64_t>& best, RunResult run) {
  ElectionResult r;
  r.run = run;
  if (best.empty()) return r;
  r.agreement =
      std::all_of(best.begin(), best.end(),
                  [&best](std::int64_t b) { return b == best.front(); });
  if (r.agreement) r.leader = static_cast<NodeId>(best.front());
  return r;
}

}  // namespace

ElectionResult flood_max_election(const Graph& g) {
  std::vector<std::int64_t> best(g.num_nodes());
  Protocol p;
  p.on_init = [&best](ProcessContext& ctx) {
    best[ctx.id()] = static_cast<std::int64_t>(ctx.id());
    ctx.send_all({best[ctx.id()]});
  };
  p.on_round = [&best](ProcessContext& ctx, const std::vector<Delivery>& in) {
    bool improved = false;
    for (const Delivery& d : in) {
      if (d.payload[0] > best[ctx.id()]) {
        best[ctx.id()] = d.payload[0];
        improved = true;
      }
    }
    if (improved) ctx.send_all({best[ctx.id()]});
    // No explicit halt: the run ends by quiescence (no messages in flight).
  };
  RunResult run = run_protocol(g, p);
  return finalize(best, run);
}

ElectionResult hb_structured_election(const HyperButterfly& hb) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  const unsigned phase1 = m;
  const unsigned phase2 = 3 * n / 2;  // measured butterfly diameter
  Graph g = hb.to_graph();

  std::vector<std::int64_t> best(g.num_nodes());
  std::vector<std::uint32_t> round_of(g.num_nodes(), 0);

  // Precompute, per vertex, the link index of each generator image (the
  // engine's links are positions in the sorted adjacency list).
  auto link_to = [&g](NodeId v, NodeId w) {
    auto adj = g.neighbors(v);
    return static_cast<std::uint32_t>(
        std::lower_bound(adj.begin(), adj.end(), w) - adj.begin());
  };
  std::vector<std::array<std::uint32_t, 4>> bfly_links(g.num_nodes());
  std::vector<std::vector<std::uint32_t>> cube_links(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const HbNode node = hb.node_at(v);
    cube_links[v].resize(m);
    for (std::uint8_t g = 0; g < hb.degree(); ++g) {
      const std::uint32_t link =
          link_to(v, static_cast<NodeId>(hb.index_of(hb.apply(node, g))));
      (g < m ? cube_links[v][g] : bfly_links[v][g - m]) = link;
    }
  }

  auto send_phase = [&](ProcessContext& ctx) {
    const NodeId v = ctx.id();
    const std::uint32_t r = round_of[v];
    if (r < phase1) {
      ctx.send(cube_links[v][r], {best[v]});
    } else if (r < phase1 + phase2) {
      for (std::uint32_t l : bfly_links[v]) ctx.send(l, {best[v]});
    } else {
      ctx.halt();
    }
  };

  Protocol p;
  p.on_init = [&](ProcessContext& ctx) {
    best[ctx.id()] = static_cast<std::int64_t>(ctx.id());
    send_phase(ctx);
  };
  p.on_round = [&](ProcessContext& ctx, const std::vector<Delivery>& in) {
    for (const Delivery& d : in) {
      best[ctx.id()] = std::max(best[ctx.id()], d.payload[0]);
    }
    ++round_of[ctx.id()];
    send_phase(ctx);
  };
  RunResult run = run_protocol(g, p, phase1 + phase2 + 2);
  return finalize(best, run);
}

}  // namespace hbnet

#include "graph/connectivity.hpp"

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "graph/validate.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/maxflow.hpp"
#include "graph/sparsify.hpp"
#include "par/pool.hpp"

namespace hbnet {
namespace {

/// Atomic min-update; returns nothing, loops until the stored value is
/// <= candidate. Order independent, so parallel sweeps stay deterministic.
void atomic_min(std::atomic<std::uint32_t>& best, std::uint32_t candidate) {
  std::uint32_t seen = best.load(std::memory_order_relaxed);
  while (candidate < seen &&
         !best.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint32_t max_disjoint_paths(const Graph& g, NodeId s, NodeId t) {
  if (s == t) throw std::invalid_argument("max_disjoint_paths: s == t");
  VertexFlow flow(g);
  return flow.solve(s, t, std::min(g.degree(s), g.degree(t)) + 1);
}

std::uint32_t vertex_connectivity(const Graph& g, unsigned threads) {
  const CsrAdjacency csr(g);
  return vertex_connectivity(csr, threads);
}

std::uint32_t vertex_connectivity(const AdjacencyProvider& adj,
                                  unsigned threads) {
  // The Even-Tarjan engine (graph/connectivity_sweep.hpp): source-set
  // reduction to kappa+1 sources, structural pruning, per-worker network
  // reuse. Exact for every graph and identical for every thread count.
  return vertex_connectivity_even_tarjan(adj, threads);
}

bool check_local_connectivity_sampled(const Graph& g, std::uint32_t target,
                                      std::uint32_t pairs, std::uint64_t seed,
                                      unsigned threads) {
  if (g.num_nodes() < 2) return false;
  if (target == 0 || pairs == 0) return true;
  HBNET_DCHECK_OK(check::validate(g));
  // Draw the pair list up front with the exact serial sequence, then fan the
  // flow solves out over the pool.
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> pick(0, g.num_nodes() - 1);
  std::vector<std::pair<NodeId, NodeId>> tasks;
  tasks.reserve(pairs);
  for (std::uint32_t i = 0; i < pairs; ++i) {
    NodeId s = pick(rng);
    NodeId t = pick(rng);
    while (t == s) t = pick(rng);
    tasks.emplace_back(s, t);
  }
  par::ThreadPool pool(threads);
  std::vector<VertexFlow> flows(pool.size(), VertexFlow(g));
  std::atomic<bool> all_ok{true};
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, tasks.size() / (8 * pool.size()));
  pool.parallel_for_chunks(
      tasks.size(), chunk,
      [&](unsigned worker, std::uint64_t begin, std::uint64_t end) {
        VertexFlow& flow = flows[worker];
        for (std::uint64_t k = begin; k < end; ++k) {
          // flow >= target is all we need to know; once any pair failed
          // the remaining solves are skipped entirely.
          if (!all_ok.load(std::memory_order_relaxed)) return;
          auto [s, t] = tasks[k];
          if (flow.solve(s, t, target) < target) {
            all_ok.store(false, std::memory_order_relaxed);
          }
        }
      });
  return all_ok.load();
}

std::uint32_t edge_connectivity(const Graph& g, unsigned threads) {
  HBNET_DCHECK_OK(check::validate(g));
  const CsrAdjacency csr(g);
  return edge_connectivity(csr, threads, false);
}

std::uint32_t edge_connectivity(const AdjacencyProvider& adj, unsigned threads,
                                bool sparsify) {
  const NodeId n = adj.num_nodes();
  if (n <= 1) return 0;
  // lambda(G) = min over t != 0 of max-flow(0, t) on the un-split network.
  // The network is identical for every target, so it is built exactly once
  // and cleared with undo_flow() between solves (one clone per worker).
  // Every limit below is <= deg(0)+1, so flows on a (deg(0)+1)-certificate
  // equal flows on the full graph and the sparsified run is byte-identical.
  const std::uint32_t d0 = adj.degree(0);
  SparseCertificate cert;
  if (sparsify) cert = sparse_certificate(adj, d0 + 1);
  const AdjacencyProvider* net_adj = &adj;
  std::optional<CsrAdjacency> cert_view;
  if (sparsify) net_adj = &cert_view.emplace(cert.graph);
  Dinic prototype(n);
  prototype.reserve_arcs(2 * net_adj->num_edges());
  {
    NeighborScratch scratch(*net_adj);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : net_adj->neighbors(u, scratch.data())) {
        if (u < v) {
          prototype.add_arc(u, v, 1);
          prototype.add_arc(v, u, 1);
        }
      }
    }
  }
  std::atomic<std::uint32_t> lambda{d0};
  par::ThreadPool pool(threads);
  std::vector<Dinic> nets(pool.size(), prototype);
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, (n - 1) / (8 * pool.size()));
  pool.parallel_for_chunks(
      n - 1, chunk,
      [&](unsigned worker, std::uint64_t begin, std::uint64_t end) {
        Dinic& dinic = nets[worker];
        for (std::uint64_t k = begin; k < end; ++k) {
          const NodeId t = static_cast<NodeId>(k + 1);
          const std::int64_t limit =
              static_cast<std::int64_t>(
                  lambda.load(std::memory_order_relaxed)) + 1;
          std::int64_t flow = dinic.max_flow(0, t, limit);
          dinic.undo_flow();
          atomic_min(lambda, static_cast<std::uint32_t>(flow));
        }
      });
  return lambda.load();
}

}  // namespace hbnet

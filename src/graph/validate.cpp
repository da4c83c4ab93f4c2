#include "graph/validate.hpp"

#include <string>

#include "graph/adjacency.hpp"
#include "graph/connectivity_sweep.hpp"

namespace hbnet::check {
namespace {

std::string at_node(const char* what, std::uint64_t v) {
  return std::string(what) + " at node " + std::to_string(v);
}

}  // namespace

std::string validate(const Graph& g) {
  const NodeId n = g.num_nodes();
  const auto offsets = g.row_offsets();
  // A default-constructed Graph stores no offsets at all; the class treats
  // it as the empty graph, so the validator does too.
  if (offsets.empty()) return {};
  if (offsets.front() != 0) return "row_offsets[0] != 0";
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return at_node("row_offsets not monotone", i);
    }
  }
  std::uint64_t total = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto adj = g.neighbors(v);
    total += adj.size();
    for (std::size_t i = 0; i < adj.size(); ++i) {
      if (adj[i] >= n) return at_node("edge target out of range", v);
      if (adj[i] == v) return at_node("self loop", v);
      if (i > 0 && adj[i - 1] >= adj[i]) {
        return at_node("adjacency not strictly ascending", v);
      }
      if (!g.has_edge(adj[i], v)) {
        return "asymmetric edge (" + std::to_string(v) + "," +
               std::to_string(adj[i]) + ")";
      }
    }
  }
  if (total != 2 * g.num_edges()) {
    return "column count " + std::to_string(total) +
           " != 2 * num_edges() = " + std::to_string(2 * g.num_edges());
  }
  return {};
}

std::string validate(const SweepState& st) {
  if (st.version != SweepState::kVersion) {
    return "unsupported checkpoint version " + std::to_string(st.version);
  }
  if (st.block_size == 0) return "checkpoint block size is zero";
  if (st.num_nodes == 0 && (st.stages_done != 0 || st.bound != 0)) {
    return "nonzero sweep position on an empty graph";
  }
  if (st.stages_done > st.num_nodes) {
    return "stages_done " + std::to_string(st.stages_done) +
           " exceeds node count " + std::to_string(st.num_nodes);
  }
  if (st.num_nodes > 0 && st.bound > st.num_nodes - 1) {
    return "bound " + std::to_string(st.bound) +
           " exceeds the trivial kappa bound n-1";
  }
  // Every target of every stage is counted at most once as solved or
  // pruned, and a stage has at most n-1 targets.
  const std::uint64_t max_pairs =
      std::uint64_t{st.num_nodes} * st.num_nodes;
  if (st.solves > max_pairs || st.pruned > max_pairs ||
      st.solves + st.pruned > max_pairs) {
    return "work counters exceed the pair count";
  }
  if (st.complete && st.blocks_done != 0) {
    return "complete checkpoint sits mid-stage (position not normalized)";
  }
  if (st.orbit && !st.single_source) {
    return "orbit schedule recorded without single-source";
  }
  if (!st.orbit && (st.orbit_targets != 0 || st.orbit_digest != 0)) {
    return "orbit target list recorded without the orbit schedule";
  }
  if (st.orbit_targets > st.num_nodes) {
    return "orbit target count exceeds the node count";
  }
  return {};
}

std::string validate(const SweepState& st, const AdjacencyProvider& adj) {
  if (std::string err = validate(st); !err.empty()) return err;
  if (st.num_nodes != adj.num_nodes()) {
    return "checkpoint node count " + std::to_string(st.num_nodes) +
           " != graph node count " + std::to_string(adj.num_nodes());
  }
  if (st.num_edges != adj.num_edges()) {
    return "checkpoint edge count " + std::to_string(st.num_edges) +
           " != graph edge count " + std::to_string(adj.num_edges());
  }
  if (st.fingerprint != adj.fingerprint()) {
    return "checkpoint fingerprint does not match the graph";
  }
  return {};
}

std::string validate(const SweepState& st, const Graph& g) {
  const CsrAdjacency csr(g);
  return validate(st, csr);
}

}  // namespace hbnet::check

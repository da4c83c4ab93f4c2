// Measured structural properties of constructed networks -- the raw material
// for regenerating Figures 1 and 2 of the paper from real graphs rather than
// from the closed-form claims (the claims are cross-checked in tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "graph/graph.hpp"

namespace hbnet {

/// Everything a Figure-1/Figure-2 row needs about one network instance.
struct TopologySummary {
  std::string name;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t min_degree = 0;
  std::uint32_t max_degree = 0;
  bool regular = false;
  std::optional<std::uint32_t> diameter;       // exact, when affordable
  std::optional<std::uint32_t> connectivity;   // exact or sampled upper bound
  bool connectivity_exact = false;
};

struct SummaryOptions {
  /// Compute the exact diameter when nodes <= this (all-sources BFS).
  std::uint64_t diameter_node_cap = 20000;
  /// The graph is vertex transitive: one BFS suffices for the diameter.
  bool vertex_transitive = false;
  /// Compute exact vertex connectivity when nodes <= this.
  std::uint64_t connectivity_node_cap = 600;
  /// Otherwise estimate connectivity from this many sampled pairs (0 = skip).
  std::uint32_t connectivity_samples = 32;
  std::uint64_t seed = 7;
};

/// Measures `g` under the given budget caps.
[[nodiscard]] TopologySummary summarize(const std::string& name,
                                        const Graph& g,
                                        const SummaryOptions& options = {});

}  // namespace hbnet

// Even-Tarjan exact vertex-connectivity engine with checkpointed sweeps.
//
// The classical reduction (Even & Tarjan 1975; Even, "Graph Algorithms"
// ch. 6): kappa(G) is found by scanning *sources* v_1, v_2, ... in a fixed
// order, solving one unit-capacity max-flow on the vertex-split network per
// non-neighbor target, and stopping as soon as the number of fully scanned
// sources exceeds the best cut bound found so far. A minimum cut C has
// |C| = kappa vertices, so among any kappa+1 distinct sources at least one
// lies outside C; that source, scanned against every non-neighbor, meets a
// vertex of another component of G - C and its flow equals |C| exactly.
// Because the bound only decreases, the source set *re-shrinks* as the
// sweep improves: the engine never scans more than kappa(G)+1 sources,
// against the fixed min-degree+1 of the plain neighborhood schedule.
//
// On top of the reduction the engine adds:
//  * structural pruning -- a pair (s,t) is skipped without any flow work
//    when a lower bound on its local connectivity already reaches the
//    running cut bound (degree pigeonhole, then common-neighbor counting on
//    the sorted CSR adjacency; each common neighbor is an internally
//    disjoint length-2 path);
//  * single-source schedule for vertex-transitive graphs -- every Cayley
//    graph (the hyper butterfly included) admits an automorphism moving a
//    vertex outside any given minimum cut onto v_0, so scanning the single
//    source v_0 is exact; opt-in via SweepOptions::vertex_transitive;
//  * one flat flow kernel -- every solve runs a VertexFlow
//    (graph/maxflow.hpp) to its pruned limit: Dinic on the vertex-split
//    network with the split left implicit, levels by a bidirectional BFS
//    from s and t that stops where the two searches meet, and an O(n)-state
//    workspace per pool *worker* (on its own cache lines) that a solve
//    resets only where its flow went. All workers read one shared CSR graph
//    (the caller's, one materialized copy of an implicit provider, or the
//    sparse certificate) and one BFS of the stage's source on it, which
//    seeds the first phase of every solve, so nothing is built or allocated
//    inside a block;
//  * checkpoint/resume -- the schedule is a pure function of the graph
//    (no RNG, no wall clock), split into fixed-size blocks of targets; the
//    sweep state after every block is thread-count invariant and is
//    persisted as a versioned text checkpoint, so a killed multi-hour run
//    resumes at the last completed block and finishes byte-identically.
//
// Determinism contract: kappa, every SweepState field, and the checkpoint
// bytes are identical for every thread count. Pruning and flow limits read
// the bound frozen at the *block* start (not the live atomic), so the set
// of executed solves and every recorded flow value are schedule-determined;
// per-worker tallies are merged with commutative reductions only.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/adjacency.hpp"
#include "graph/graph.hpp"
#include "graph/maxflow.hpp"

namespace hbnet {

namespace obs {
class MetricsRegistry;
class ProgressBoard;
}

/// Tuning and environment for a ConnectivitySweep run.
struct SweepOptions {
  /// Pool size; 0 = par::default_threads().
  unsigned threads = 0;
  /// Single-source schedule. Only correct on vertex-transitive graphs
  /// (Cayley graphs: HB, hypercube, wrapped butterfly); the caller asserts
  /// transitivity, the engine only DCHECKs regularity (a necessary
  /// condition).
  bool vertex_transitive = false;
  /// Targets per checkpoint block: the granularity of pruning-bound
  /// refresh, checkpoint writes, and progress callbacks.
  std::uint32_t block_size = 256;
  /// Run every flow solve on a Nagamochi-Ibaraki certificate (built at the
  /// bound frozen for the block, rebuilt only when that bound drops) instead
  /// of the full graph. Exact: the certificate preserves every cut up to the
  /// frozen bound and the flow limits never exceed it, so kappa, all solve
  /// and prune counts, and the checkpoint bytes are identical with this on
  /// or off. Pays off when kappa << min degree (the graph every solve walks
  /// shrinks from O(|E|) to O(bound * |V|) edges).
  bool sparsify = false;
  /// Target-orbit reduction for the single-source schedule: maps a vertex
  /// to the canonical representative of its orbit under a subgroup of
  /// automorphisms fixing the scanned source, and must satisfy rep(rep(v))
  /// == rep(v) and rep(source) == source. Only targets that are their own
  /// representative are solved -- exact because kappa(source, v) ==
  /// kappa(source, rep(v)), and with `sparsify` too: a k-certificate C keeps
  /// kappa_C(s, t) == min(k, kappa_G(s, t)), so C agrees on t and rep(t)
  /// even where C itself is not invariant under the automorphism. Requires
  /// vertex_transitive. The checkpoint records the schedule token plus the
  /// count and digest of the resulting target list, so a checkpoint written
  /// under another map (or none) restarts cleanly.
  /// For HB(m,n) use hb_cube_orbit_representative (topology/hb_implicit.hpp):
  /// cube-coordinate permutations and the butterfly level reflection.
  std::function<NodeId(NodeId)> orbit_rep;
  /// Stop (with ExactConnectivityResult::complete == false) after this many
  /// blocks in this run; 0 = run to completion. Test hook for kill/resume.
  std::uint64_t max_blocks = 0;
  /// Checkpoint file; empty = no persistence. Written atomically after
  /// every block; an existing compatible file is resumed from.
  std::string checkpoint_path;
  /// Optional instrumentation: solve/prune counters, the bound gauge, and
  /// the flow-size histogram land here, updated once per block.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional live progress: connectivity.bound / .solves / .pruned /
  /// .blocks / .stages slots, updated once per block on the caller thread
  /// (relaxed atomic stores on a dedicated channel; sweep results,
  /// metrics, and checkpoint bytes are unaffected).
  obs::ProgressBoard* progress = nullptr;
  /// Called after every persisted state with that state and the block
  /// count of the stage the completed block belongs to. A stage's last
  /// block arrives already rolled over to (next stage, block 0); a call
  /// that completes no block (a stage without targets, or the final
  /// completion) passes 0.
  std::function<void(const struct SweepState&, std::uint32_t stage_blocks)>
      on_block;
};

/// The resumable sweep position plus identity of the graph it belongs to.
/// This struct *is* the checkpoint payload (format v1); every field is
/// deterministic given (graph, schedule, blocks processed).
struct SweepState {
  static constexpr std::uint32_t kVersion = 1;

  std::uint32_t version = kVersion;
  // Graph identity: a resumed run must match all three.
  std::uint32_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t fingerprint = 0;  // AdjacencyProvider::fingerprint() -- the
                                  // FNV-1a CSR digest in csr mode, the
                                  // mode-tagged digest for implicit providers
  // Schedule identity.
  bool single_source = false;
  bool orbit = false;  // single-source with target-orbit reduction
  std::uint32_t block_size = 0;
  // Orbit schedule only: size and FNV-1a digest of the scanned source's
  // target list, so a checkpoint never resumes block positions of another
  // representative map's targets (0 / 0 = not recorded).
  std::uint64_t orbit_targets = 0;
  std::uint64_t orbit_digest = 0;
  // Position: stages_done sources fully scanned, plus blocks_done blocks of
  // the current stage. Normalized: a finished stage rolls over to
  // (stages_done + 1, 0) before being persisted.
  std::uint32_t stages_done = 0;
  std::uint32_t blocks_done = 0;
  // Results so far.
  std::uint32_t bound = 0;     // best cut size found (seeded with min degree)
  std::uint64_t solves = 0;    // max-flow solves executed
  std::uint64_t pruned = 0;    // pairs skipped by the structural bounds
  bool complete = false;       // true once bound == kappa(G) is proven
};

/// Outcome of ConnectivitySweep::run().
struct ExactConnectivityResult {
  std::uint32_t kappa = 0;     // exact iff complete
  bool complete = false;       // false only when max_blocks stopped the run
  std::uint32_t stages = 0;    // sources fully scanned
  std::uint64_t solves = 0;
  std::uint64_t pruned = 0;
};

/// Order-independent 64-bit FNV-1a digest of the CSR arrays (node count,
/// offsets, columns) -- the graph identity stored in checkpoints.
[[nodiscard]] std::uint64_t graph_fingerprint(const Graph& g);

/// Serializes a SweepState as the versioned text checkpoint format. The
/// bytes are a pure function of the state: no timestamps, no hostnames.
[[nodiscard]] std::string serialize_checkpoint(const SweepState& st);

/// Parses checkpoint bytes; nullopt on any malformed or wrong-version
/// input (a corrupt checkpoint restarts the sweep, it never aborts it).
[[nodiscard]] std::optional<SweepState> parse_checkpoint(
    const std::string& text);

/// Writes `st` to `path` atomically (temp file + rename). Returns false on
/// I/O failure.
bool save_checkpoint(const std::string& path, const SweepState& st);

/// Reads and parses `path`; nullopt if missing or malformed.
[[nodiscard]] std::optional<SweepState> load_checkpoint(
    const std::string& path);

/// One exact vertex-connectivity computation, resumable across runs.
///
/// Typical use:
///   ConnectivitySweep sweep(g, opts);
///   ExactConnectivityResult r = sweep.run();   // r.kappa once r.complete
///
/// The graph reference must outlive the sweep.
class ConnectivitySweep {
 public:
  /// CSR mode: wraps `g` in an owned CsrAdjacency view.
  ConnectivitySweep(const Graph& g, SweepOptions opts);

  /// Provider mode: runs against any adjacency source (CSR or implicit).
  /// The provider must outlive the sweep.
  ConnectivitySweep(const AdjacencyProvider& adj, SweepOptions opts);

  /// Runs the sweep (to completion, or until SweepOptions::max_blocks),
  /// checkpointing after every block when a checkpoint path is set.
  ExactConnectivityResult run();

  /// Current (post-run: final) sweep state.
  [[nodiscard]] const SweepState& state() const { return state_; }

  /// True when the constructor adopted an on-disk checkpoint.
  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Why the on-disk checkpoint was NOT adopted (empty when resumed or when
  /// no checkpoint file existed).
  [[nodiscard]] const std::string& resume_note() const { return resume_note_; }

 private:
  [[nodiscard]] std::uint32_t sources_needed() const;
  void init();

  std::optional<CsrAdjacency> owned_csr_;  // set by the Graph constructor
  const AdjacencyProvider& adj_;
  SweepOptions opts_;
  SweepState state_;
  // The first sources in (degree, id) ascending order: as many as run()
  // can scan.
  std::vector<NodeId> source_order_;
  std::vector<NodeId> orbit_targets_;  // orbit schedule: source_order_[0]'s
  bool resumed_ = false;
  std::string resume_note_;
};

/// Convenience wrapper: the Even-Tarjan engine with default options.
/// Exact for every graph (general schedule); see vertex_connectivity in
/// graph/connectivity.hpp, which delegates here.
[[nodiscard]] std::uint32_t vertex_connectivity_even_tarjan(
    const Graph& g, unsigned threads = 0);

/// Provider-generic variant of the above.
[[nodiscard]] std::uint32_t vertex_connectivity_even_tarjan(
    const AdjacencyProvider& adj, unsigned threads = 0);

namespace detail {

// The explicit vertex-split network on a Dinic: the reference VertexFlow is
// tested against. No library code calls these.

/// Builds the vertex-split unit-capacity flow network: vertex v's in->out
/// arc has index 2v (state 2v -> 2v+1), then one arc u_out -> v_in per
/// direction of every edge.
[[nodiscard]] Dinic make_split_prototype(const AdjacencyProvider& adj);

/// CSR convenience overload.
[[nodiscard]] Dinic make_split_prototype(const Graph& g);

/// One (s,t) solve on the split network: widens the terminal arcs, runs
/// Dinic up to `limit`, restores the network. Returns min(kappa(s, t),
/// limit), the same value as VertexFlow::solve.
std::int64_t split_solve(Dinic& dinic, NodeId s, NodeId t, std::int64_t limit);

/// |a cap b| for two sorted adjacency spans, counting stops early at `cap`.
/// A lower bound on kappa(s, t) for non-adjacent s, t (each common neighbor
/// is an internally disjoint length-2 path).
[[nodiscard]] std::uint32_t common_neighbors_at_least(
    std::span<const NodeId> a, std::span<const NodeId> b, std::uint32_t cap);

}  // namespace detail

}  // namespace hbnet

#include "graph/connectivity_sweep.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/check.hpp"
#include "graph/sparsify.hpp"
#include "graph/validate.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "par/pool.hpp"

namespace hbnet {
namespace {

constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max() / 2;

/// Per-worker accumulator for one block: merged on the caller thread with
/// commutative operations only (sum, min, histogram bucket addition), so
/// the merged result is identical for every thread count and schedule.
struct BlockTally {
  std::uint64_t solves = 0;
  std::uint64_t pruned = 0;
  std::uint32_t min_flow = std::numeric_limits<std::uint32_t>::max();
  obs::Histogram flows;
};

/// The sorted adjacency of `s`, copied out of the provider.
std::vector<NodeId> adjacency_of(const AdjacencyProvider& adj, NodeId s) {
  NeighborScratch scratch(adj);
  const std::span<const NodeId> nb = adj.neighbors(s, scratch.data());
  return {nb.begin(), nb.end()};
}

/// The targets of source `s`: every non-neighbor, ascending (merge walk
/// against the sorted adjacency); with an orbit map, only orbit
/// representatives (kappa(s, t) == kappa(s, rep(t)), so the minimum over
/// representatives is the minimum over all targets).
std::vector<NodeId> targets_of(NodeId n, NodeId s,
                               const std::vector<NodeId>& s_adj,
                               const std::function<NodeId(NodeId)>& rep) {
  std::vector<NodeId> targets;
  targets.reserve(n - 1 - static_cast<NodeId>(s_adj.size()));
  std::size_t j = 0;
  for (NodeId t = 0; t < n; ++t) {
    if (t == s) continue;
    while (j < s_adj.size() && s_adj[j] < t) ++j;
    if (j < s_adj.size() && s_adj[j] == t) continue;
    if (rep && rep(t) != t) continue;
    targets.push_back(t);
  }
  return targets;
}

}  // namespace

namespace detail {

Dinic make_split_prototype(const AdjacencyProvider& adj) {
  const NodeId n = adj.num_nodes();
  Dinic dinic(2 * n);
  dinic.reserve_arcs(n + 2 * adj.num_edges());
  for (NodeId v = 0; v < n; ++v) {
    dinic.add_arc(2 * v, 2 * v + 1, 1);
  }
  NeighborScratch scratch(adj);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : adj.neighbors(u, scratch.data())) {
      dinic.add_arc(2 * u + 1, 2 * v, 1);  // each direction added once
    }
  }
  return dinic;
}

Dinic make_split_prototype(const Graph& g) {
  const CsrAdjacency csr(g);
  return make_split_prototype(csr);
}

std::int64_t split_solve(Dinic& dinic, NodeId s, NodeId t,
                         std::int64_t limit) {
  dinic.set_arc_capacity(2 * s, kInf);
  dinic.set_arc_capacity(2 * t, kInf);
  std::int64_t flow = dinic.max_flow(2 * s + 1, 2 * t, limit);
  dinic.set_arc_capacity(2 * s, 1);
  dinic.set_arc_capacity(2 * t, 1);
  dinic.undo_flow();
  return flow;
}

std::uint32_t common_neighbors_at_least(std::span<const NodeId> a,
                                        std::span<const NodeId> b,
                                        std::uint32_t cap) {
  std::uint32_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      if (++count >= cap) return count;
      ++i, ++j;
    }
  }
  return count;
}

}  // namespace detail

std::uint64_t graph_fingerprint(const Graph& g) {
  std::uint64_t h = detail::kFnv1aBasis;
  detail::fnv1a_mix(h, g.num_nodes());
  for (std::uint64_t o : g.row_offsets()) detail::fnv1a_mix(h, o);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) detail::fnv1a_mix(h, u);
  }
  return h;
}

std::string serialize_checkpoint(const SweepState& st) {
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016" PRIx64, st.fingerprint);
  std::ostringstream os;
  os << "hbnet-connectivity-checkpoint v" << st.version << '\n'
     << "graph nodes=" << st.num_nodes << " edges=" << st.num_edges
     << " fp=" << fp << '\n'
     << "schedule "
     << (st.orbit ? "single-source-orbits"
                  : st.single_source ? "single-source" : "even-tarjan")
     << " block=" << st.block_size << '\n';
  if (st.orbit) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, st.orbit_digest);
    os << "targets count=" << st.orbit_targets << " fnv=" << digest << '\n';
  }
  os << "progress stages=" << st.stages_done << " blocks=" << st.blocks_done
     << " bound=" << st.bound << '\n'
     << "work solves=" << st.solves << " pruned=" << st.pruned << '\n'
     << "complete " << (st.complete ? 1 : 0) << '\n';
  return os.str();
}

std::optional<SweepState> parse_checkpoint(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  SweepState st;

  if (!std::getline(is, line) ||
      line != "hbnet-connectivity-checkpoint v1") {
    return std::nullopt;
  }
  if (!std::getline(is, line) ||
      std::sscanf(line.c_str(),
                  "graph nodes=%" SCNu32 " edges=%" SCNu64 " fp=%" SCNx64,
                  &st.num_nodes, &st.num_edges, &st.fingerprint) != 3) {
    return std::nullopt;
  }
  char schedule[32] = {0};
  if (!std::getline(is, line) ||
      std::sscanf(line.c_str(), "schedule %31s block=%" SCNu32, schedule,
                  &st.block_size) != 2) {
    return std::nullopt;
  }
  const std::string sched = schedule;
  if (sched == "single-source") {
    st.single_source = true;
  } else if (sched == "single-source-orbits") {
    st.single_source = true;
    st.orbit = true;
  } else if (sched != "even-tarjan") {
    return std::nullopt;
  }
  if (!std::getline(is, line)) return std::nullopt;
  // The orbit schedule's target-list line; a checkpoint without it parses
  // (orbit_targets == 0) and is then refused as a schedule mismatch.
  if (st.orbit && line.starts_with("targets ")) {
    if (std::sscanf(line.c_str(),
                    "targets count=%" SCNu64 " fnv=%" SCNx64,
                    &st.orbit_targets, &st.orbit_digest) != 2 ||
        !std::getline(is, line)) {
      return std::nullopt;
    }
  }
  if (std::sscanf(line.c_str(),
                  "progress stages=%" SCNu32 " blocks=%" SCNu32
                  " bound=%" SCNu32,
                  &st.stages_done, &st.blocks_done, &st.bound) != 3) {
    return std::nullopt;
  }
  if (!std::getline(is, line) ||
      std::sscanf(line.c_str(), "work solves=%" SCNu64 " pruned=%" SCNu64,
                  &st.solves, &st.pruned) != 2) {
    return std::nullopt;
  }
  int complete = -1;
  if (!std::getline(is, line) ||
      std::sscanf(line.c_str(), "complete %d", &complete) != 1 ||
      (complete != 0 && complete != 1)) {
    return std::nullopt;
  }
  st.complete = complete == 1;
  // Anything after the complete line is not ours; reject it.
  if (std::getline(is, line) && !line.empty()) return std::nullopt;
  return st;
}

bool save_checkpoint(const std::string& path, const SweepState& st) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os << serialize_checkpoint(st);
    os.flush();
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<SweepState> load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  return parse_checkpoint(buf.str());
}

ConnectivitySweep::ConnectivitySweep(const Graph& g, SweepOptions opts)
    : owned_csr_(CsrAdjacency(g)), adj_(*owned_csr_), opts_(std::move(opts)) {
  HBNET_DCHECK_OK(check::validate(g));
  init();
}

ConnectivitySweep::ConnectivitySweep(const AdjacencyProvider& adj,
                                     SweepOptions opts)
    : adj_(adj), opts_(std::move(opts)) {
  init();
}

void ConnectivitySweep::init() {
  if (opts_.block_size == 0) opts_.block_size = 256;
  if (opts_.orbit_rep && !opts_.vertex_transitive) {
    throw std::invalid_argument(
        "SweepOptions::orbit_rep requires vertex_transitive (the orbit "
        "argument fixes the single scanned source)");
  }
  const NodeId n = adj_.num_nodes();
  state_.num_nodes = n;
  state_.num_edges = adj_.num_edges();
  state_.fingerprint = adj_.fingerprint();
  state_.single_source = opts_.vertex_transitive;
  state_.orbit = static_cast<bool>(opts_.orbit_rep);
  state_.block_size = opts_.block_size;
  if (n <= 1) {
    state_.complete = true;  // kappa of the empty/singleton graph is 0
    return;
  }
  auto [min_deg, max_deg] = adj_.degree_range();
  state_.bound = min_deg;
  if (opts_.vertex_transitive) {
    // Regularity is a necessary condition for vertex transitivity; the
    // caller vouches for the rest (the single-source schedule is only exact
    // on vertex-transitive graphs).
    HBNET_DCHECK_MSG(min_deg == max_deg,
                     "single-source schedule on a non-regular graph");
  }
  // Deterministic schedule: all vertices, (degree, id) ascending. Low
  // degree first both seeds the bound well and keeps the split networks'
  // terminal widening cheap.
  source_order_.resize(n);
  std::iota(source_order_.begin(), source_order_.end(), NodeId{0});
  std::sort(source_order_.begin(), source_order_.end(),
            [&](NodeId a, NodeId b) {
              return std::make_pair(adj_.degree(a), a) <
                     std::make_pair(adj_.degree(b), b);
            });
  if (state_.orbit) {
    const NodeId s = source_order_[0];
    HBNET_DCHECK_MSG(opts_.orbit_rep(s) == s,
                     "orbit_rep must fix the scanned source");
    const std::vector<NodeId> targets =
        targets_of(n, s, adjacency_of(adj_, s), opts_.orbit_rep);
    state_.orbit_targets = targets.size();
    state_.orbit_digest = detail::kFnv1aBasis;
    for (NodeId t : targets) detail::fnv1a_mix(state_.orbit_digest, t);
  }
  if (!opts_.checkpoint_path.empty()) {
    if (std::optional<SweepState> loaded =
            load_checkpoint(opts_.checkpoint_path)) {
      std::string err = check::validate(*loaded, adj_);
      if (err.empty() && loaded->single_source != state_.single_source) {
        err = "checkpoint schedule mismatch (single-source vs even-tarjan)";
      }
      if (err.empty() && loaded->orbit != state_.orbit) {
        err = "checkpoint schedule mismatch (orbit reduction)";
      }
      if (err.empty() && (loaded->orbit_targets != state_.orbit_targets ||
                          loaded->orbit_digest != state_.orbit_digest)) {
        err = "checkpoint schedule mismatch (orbit target list)";
      }
      if (err.empty() && loaded->block_size != state_.block_size) {
        err = "checkpoint block size mismatch";
      }
      if (err.empty()) {
        state_ = *loaded;
        resumed_ = true;
      } else {
        resume_note_ = err;
      }
    }
  }
}

std::uint32_t ConnectivitySweep::sources_needed() const {
  // Any bound+1 distinct fully-scanned sources prove the bound exact (one
  // of them avoids the minimum cut); a vertex-transitive graph needs one.
  return opts_.vertex_transitive ? 1 : state_.bound + 1;
}

ExactConnectivityResult ConnectivitySweep::run() {
  const NodeId n = adj_.num_nodes();
  auto result_from_state = [&] {
    ExactConnectivityResult r;
    r.kappa = state_.bound;
    r.complete = state_.complete;
    r.stages = state_.stages_done;
    r.solves = state_.solves;
    r.pruned = state_.pruned;
    return r;
  };
  auto persist = [&](std::uint32_t stage_blocks) {
    HBNET_DCHECK_OK(check::validate(state_));
    if (!opts_.checkpoint_path.empty()) {
      if (!save_checkpoint(opts_.checkpoint_path, state_)) {
        throw std::runtime_error("cannot write checkpoint " +
                                 opts_.checkpoint_path);
      }
      obs::FlightRecorder::record("checkpoint_write", state_.stages_done,
                                  state_.blocks_done, state_.bound);
    }
    if (opts_.on_block) opts_.on_block(state_, stage_blocks);
  };
  // Live progress slots, resolved once; block-granular updates happen on
  // the caller thread right after each serial merge.
  obs::ProgressBoard::Slot* prog_bound = nullptr;
  obs::ProgressBoard::Slot* prog_solves = nullptr;
  obs::ProgressBoard::Slot* prog_pruned = nullptr;
  obs::ProgressBoard::Slot* prog_blocks = nullptr;
  obs::ProgressBoard::Slot* prog_stages = nullptr;
  if (opts_.progress != nullptr) {
    prog_bound = &opts_.progress->slot("connectivity.bound");
    prog_solves = &opts_.progress->slot("connectivity.solves");
    prog_pruned = &opts_.progress->slot("connectivity.pruned");
    prog_blocks = &opts_.progress->slot("connectivity.blocks");
    prog_stages = &opts_.progress->slot("connectivity.stages");
    prog_bound->set(state_.bound);
    prog_solves->set(state_.solves);
    prog_pruned->set(state_.pruned);
    prog_stages->set(state_.stages_done);
  }

  if (state_.complete) return result_from_state();

  par::ThreadPool pool(opts_.threads);
  // Every solve runs on a VertexFlow per pool worker (O(n) state each) over
  // one shared read-only CSR graph: the caller's graph in CSR mode, one
  // materialized copy of an implicit provider, or -- with sparsification --
  // a Nagamochi-Ibaraki certificate, rebuilt whenever the frozen block bound
  // has dropped since the last build (the bound only decreases, and only at
  // block boundaries, so rebuilds are rare and schedule-determined).
  std::optional<Graph> materialized;
  std::optional<SparseCertificate> cert;
  std::vector<VertexFlow> flows;
  std::uint64_t arena_arcs_peak = 0;
  // The gauges describe the split network each solve runs on: n in->out
  // arcs plus one arc per direction of every edge.
  auto publish_arena = [&](const Graph& g) {
    const std::uint64_t arcs = g.num_nodes() + 2 * g.num_edges();
    arena_arcs_peak = std::max(arena_arcs_peak, arcs);
    if (opts_.metrics != nullptr) {
      obs::MetricsRegistry& m = *opts_.metrics;
      m.gauge("connectivity.cert_edges")
          .set(static_cast<double>(g.num_edges()));
      m.gauge("connectivity.arena_arcs_peak")
          .set(static_cast<double>(arena_arcs_peak));
    }
    return arcs;
  };
  auto ensure_flows = [&](std::uint32_t block_bound) {
    if (!opts_.sparsify) {
      if (flows.empty()) {
        const auto* csr = dynamic_cast<const CsrAdjacency*>(&adj_);
        const Graph& g = csr != nullptr ? csr->graph()
                                        : materialized.emplace(to_graph(adj_));
        publish_arena(g);
        flows.assign(pool.size(), VertexFlow(g));
      }
      return;
    }
    if (cert.has_value() && cert->k == block_bound) return;
    cert.emplace(sparse_certificate(adj_, block_bound));
    const std::uint64_t arcs = publish_arena(cert->graph);
    flows.assign(pool.size(), VertexFlow(cert->graph));
    obs::FlightRecorder::record("sweep_certificate", cert->k,
                                cert->graph.num_edges(), arcs);
  };
  std::vector<BlockTally> tallies(pool.size());
  // One neighbor-scratch buffer per worker for target adjacency reads
  // (zero-copy on CSR, filled arithmetically on implicit providers).
  std::vector<std::vector<NodeId>> scratches(
      pool.size(), std::vector<NodeId>(adj_.max_degree()));

  std::uint64_t blocks_this_run = 0;
  while (!state_.complete) {
    if (state_.stages_done >= sources_needed()) {
      state_.complete = true;
      persist(0);
      break;
    }
    const NodeId s = source_order_[state_.stages_done];
    // The source adjacency is read once per stage and shared by every
    // worker (pruning intersects against it).
    const std::vector<NodeId> s_adj = adjacency_of(adj_, s);
    const std::vector<NodeId> targets =
        targets_of(n, s, s_adj, opts_.orbit_rep);
    const std::uint32_t num_blocks = static_cast<std::uint32_t>(
        (targets.size() + opts_.block_size - 1) / opts_.block_size);
    if (num_blocks == 0) {
      // No non-neighbor at all (s is adjacent to everything): the stage is
      // vacuously complete.
      ++state_.stages_done;
      state_.blocks_done = 0;
      persist(0);
      continue;
    }
    bool stopped = false;
    for (std::uint32_t b = state_.blocks_done; b < num_blocks; ++b) {
      if (opts_.max_blocks != 0 && blocks_this_run >= opts_.max_blocks) {
        stopped = true;
        break;
      }
      // The bound frozen at block start drives pruning AND flow limits:
      // both therefore depend only on the schedule position, never on the
      // race between workers, which keeps solve counts, flow histograms
      // and checkpoint bytes thread-count invariant. Freezing is exact:
      // the frozen bound is always >= kappa, so the decisive solve (source
      // outside the minimum cut, target across it) is never pruned and
      // never truncated below its true flow -- kappa(s,t) <= min(ds, dt)
      // for non-adjacent pairs and <= bound inductively, so capping the
      // limit at the bound (rather than bound+1) loses nothing and skips
      // the final level-graph phase of every saturated solve.
      const std::uint32_t block_bound = state_.bound;
      ensure_flows(block_bound);
      const std::uint64_t begin = std::uint64_t{b} * opts_.block_size;
      const std::uint64_t end =
          std::min<std::uint64_t>(targets.size(), begin + opts_.block_size);
      for (BlockTally& tally : tallies) tally = BlockTally{};
      // Targets are claimed one at a time: a solve costs far more than a
      // claim, and a worker that runs out waits at most one solve for the
      // block's last one.
      pool.parallel_for_chunks(
          end - begin, 1,
          [&](unsigned worker, std::uint64_t lo, std::uint64_t hi) {
            BlockTally& tally = tallies[worker];
            VertexFlow& kernel = flows[worker];
            NodeId* scratch = scratches[worker].data();
            const std::span<const NodeId> sa = s_adj;
            const std::uint32_t ds = static_cast<std::uint32_t>(sa.size());
            for (std::uint64_t k = lo; k < hi; ++k) {
              const NodeId t = targets[begin + k];
              const std::uint32_t dt = adj_.degree(t);
              // kappa(s,t) >= |N(s) cap N(t)| (disjoint length-2 paths);
              // pigeonhole gives |N(s) cap N(t)| >= ds + dt - (n-2) for
              // free, the merge count is exact up to block_bound.
              std::uint32_t lb;
              if (std::uint64_t{ds} + dt >=
                  std::uint64_t{n} - 2 + block_bound) {
                lb = block_bound;
              } else {
                lb = detail::common_neighbors_at_least(
                    sa, adj_.neighbors(t, scratch), block_bound);
              }
              if (lb >= block_bound) {
                ++tally.pruned;
                continue;
              }
              const std::uint32_t flow =
                  kernel.solve(s, t, std::min({ds, dt, block_bound}));
              ++tally.solves;
              tally.flows.record(flow);
              tally.min_flow = std::min(tally.min_flow, flow);
            }
          });
      std::uint64_t solves = 0, pruned = 0;
      std::uint32_t block_min = std::numeric_limits<std::uint32_t>::max();
      for (const BlockTally& tally : tallies) {
        solves += tally.solves;
        pruned += tally.pruned;
        block_min = std::min(block_min, tally.min_flow);
      }
      state_.bound = std::min(state_.bound, block_min);
      state_.solves += solves;
      state_.pruned += pruned;
      ++blocks_this_run;
      if (b + 1 == num_blocks) {  // normalized stage rollover
        ++state_.stages_done;
        state_.blocks_done = 0;
      } else {
        state_.blocks_done = b + 1;
      }
      if (opts_.metrics != nullptr) {
        obs::MetricsRegistry& m = *opts_.metrics;
        m.counter("connectivity.solves").inc(solves);
        m.counter("connectivity.pruned").inc(pruned);
        m.counter("connectivity.blocks").inc();
        if (b + 1 == num_blocks) m.counter("connectivity.stages").inc();
        m.gauge("connectivity.bound").set(state_.bound);
        for (const BlockTally& tally : tallies) {
          m.histogram("connectivity.flow").merge(tally.flows);
        }
      }
      if (prog_bound != nullptr) {
        prog_bound->set(state_.bound);
        prog_solves->add(solves);
        prog_pruned->add(pruned);
        prog_blocks->add(1);
        prog_stages->set(state_.stages_done);
      }
      obs::FlightRecorder::record("sweep_block", state_.stages_done,
                                  state_.blocks_done, state_.bound);
      persist(num_blocks);
    }
    if (stopped) break;
  }
  return result_from_state();
}

std::uint32_t vertex_connectivity_even_tarjan(const Graph& g,
                                              unsigned threads) {
  const CsrAdjacency csr(g);
  return vertex_connectivity_even_tarjan(csr, threads);
}

std::uint32_t vertex_connectivity_even_tarjan(const AdjacencyProvider& adj,
                                              unsigned threads) {
  SweepOptions opts;
  opts.threads = threads;
  ConnectivitySweep sweep(adj, std::move(opts));
  return sweep.run().kappa;
}

}  // namespace hbnet

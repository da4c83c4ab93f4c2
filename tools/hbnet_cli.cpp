// hbnet command-line tool: inspect hyper-butterfly instances, compute
// routes and disjoint paths, export DOT/edge lists, run quick analyses,
// and drive the packet/wormhole simulators with full telemetry export.
//
// Usage:
//   hbnet_cli info <m> <n>
//   hbnet_cli route <m> <n> <src-id> <dst-id>
//   hbnet_cli disjoint <m> <n> <src-id> <dst-id>
//   hbnet_cli label <m> <n> <id>
//   hbnet_cli dot <m> <n> [file]
//   hbnet_cli edges <m> <n> [file]
//   hbnet_cli cuts <m> <n>
//   hbnet_cli election <m> <n>
//   hbnet_cli analyze <m> <n> [--threads N] [--audit]
//   hbnet_cli analyze <m> <n> --exact-connectivity [--checkpoint FILE]
//                             [--threads N] [--metrics-out FILE]
//                             [--sparsify] [--implicit] [--no-orbits]
//                             [--max-blocks N]
//   hbnet_cli wormhole <m> <n> [sim options]
//   hbnet_cli sim <m> <n> [sim options]
//   hbnet_cli campaign <m> <n> [campaign options]
//
// Sim options (wormhole/sim): --rate R --cycles C --warmup W --drain D
//   --pattern uniform|complement|reversal|shuffle|hotspot --seed S
//   --threads N --trace-out FILE --metrics-out FILE --links-csv FILE;
//   wormhole only: --vcs V --flits F --policy P --faults K --link-faults K;
//   sim only: --valiant --shards S. A flag of the other command is
//   rejected, not ignored.
//
// Live telemetry (campaign, analyze --exact-connectivity, wormhole, sim):
//   --stream-out FILE writes an NDJSON snapshot stream plus a Prometheus
//   text exposition (FILE.prom unless --prom-out overrides) while the run
//   is in flight; --progress renders a single rewriting status line on
//   stderr. Both are read-only observers -- results stay byte-identical
//   with them on or off (tools/test_stream_determinism.sh enforces it).
//
// Every numeric argv token goes through campaign/grid.hpp's checked
// parsers: a malformed or partial token ("4x", "", "1e999") prints usage
// and exits nonzero instead of dying on an uncaught std::stoul exception.
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/cuts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/grid.hpp"
#include "core/hyper_butterfly.hpp"
#include "distsim/leader_election.hpp"
#include "graph/bfs.hpp"
#include "graph/connectivity.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/io.hpp"
#include "graph/parallel_bfs.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "obs/snapshot.hpp"
#include "par/pool.hpp"
#include "topology/hb_implicit.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/wormhole.hpp"

namespace {

using hbnet::HbIndex;
using hbnet::HbNode;
using hbnet::HyperButterfly;

int usage() {
  std::cerr
      << "usage: hbnet_cli <command> <m> <n> [args]\n"
         "  info <m> <n>                   structural summary\n"
         "  route <m> <n> <src> <dst>      optimal route between dense ids\n"
         "  disjoint <m> <n> <src> <dst>   the m+4 disjoint paths (Thm 5)\n"
         "  label <m> <n> <id>             Cayley symbol label of a vertex\n"
         "  dot <m> <n> [file]             Graphviz export\n"
         "  edges <m> <n> [file]           edge-list export\n"
         "  cuts <m> <n>                   dimension cuts / bisection bound\n"
         "  election <m> <n>               run both leader elections\n"
         "  analyze <m> <n> [--threads N] [--audit]\n"
         "                                 parallel structural analysis\n"
         "                                 (--audit: verify Thm 5 on all pairs)\n"
         "  analyze <m> <n> --exact-connectivity [--checkpoint FILE]\n"
         "                  [--threads N] [--metrics-out FILE]\n"
         "                  [--sparsify] [--implicit] [--no-orbits]\n"
         "                  [--max-blocks N]\n"
         "                                 checkpointed Even-Tarjan sweep\n"
         "                                 proving kappa(HB(m,n)) = m+4\n"
         "                                 --sparsify: run flows on\n"
         "                                 Nagamochi-Ibaraki certificates\n"
         "                                 --implicit: generator-arithmetic\n"
         "                                 adjacency, no materialized CSR\n"
         "                                 --no-orbits: disable the cube-\n"
         "                                 permutation target reduction\n"
         "                                 --max-blocks: stop after N blocks\n"
         "                                 (resume via --checkpoint)\n"
         "  wormhole <m> <n> [options]     flit-level wormhole run on HB(m,n)\n"
         "  sim <m> <n> [options]          store-and-forward run on HB(m,n)\n"
         "  campaign <m> <n> [options]     deterministic fault-injection\n"
         "                                 campaign over the thread pool\n"
         "options for wormhole and sim:\n"
         "  --rate R            injection rate in (0,1] (default 0.05)\n"
         "  --cycles C --warmup W --drain D\n"
         "                      run phases; their sum must fit 64 bits,\n"
         "                      and stay below 2^32 for sim\n"
         "  --seed S --threads N\n"
         "  --pattern uniform|complement|reversal|shuffle|hotspot\n"
         "  --trace-out FILE    Chrome trace JSON (chrome://tracing, Perfetto)\n"
         "  --metrics-out FILE  metrics/links/timeseries JSON\n"
         "  --links-csv FILE    per-link utilization CSV\n"
         "wormhole only:\n"
         "  --vcs V --flits F\n"
         "  --policy any|dateline|segment|adaptive\n"
         "  --faults K          K static node faults derived from the seed\n"
         "                      (requires --policy adaptive)\n"
         "  --link-faults K     K static directed link faults\n"
         "                      (requires --policy adaptive)\n"
         "sim only:\n"
         "  --valiant           route through a random intermediate\n"
         "  --shards S          shard count of the store-and-forward engine\n"
         "                      (0 = auto). Results are identical for every\n"
         "                      --threads x --shards choice\n"
         "live telemetry (campaign / analyze --exact-connectivity /\n"
         "wormhole / sim; results stay byte-identical with it on or off):\n"
         "  --stream-out FILE   append-only NDJSON snapshot stream; also\n"
         "                      writes FILE.prom (Prometheus text format)\n"
         "  --prom-out FILE     override the Prometheus exposition path\n"
         "  --stream-interval-ms MS  snapshot interval (default 200)\n"
         "  --progress          single rewriting status line on stderr\n"
         "options for campaign:\n"
         "  --models M1,M2      random|adversarial|events|links (default\n"
         "                      random; events is sf-only, links wormhole-only)\n"
         "  --rates R1,R2       injection rates in (0,1] (default 0.05)\n"
         "  --faults K1,K2      fault counts per cell (default 0)\n"
         "  --trials T          repeats per grid cell (default 1)\n"
         "  --seed S            campaign master seed (default 1)\n"
         "  --engine sf|wormhole  simulator (default sf)\n"
         "  --cycles C          measurement cycles per trial\n"
         "  --threads N         pool size (0 = default)\n"
         "  --metrics-out FILE  merged campaign metrics JSON\n"
         "  --csv FILE          per-cell summary CSV\n";
  return 2;
}

// Checked argv-to-number conversions: report the offending flag and token
// on stderr and fail instead of throwing (satellite of the campaign PR;
// see campaign/grid.hpp for the parsing contract).
bool parse_flag_u64(const char* flag, const char* v, std::uint64_t& out) {
  const std::optional<std::uint64_t> p = hbnet::campaign::parse_u64(v);
  if (!p) {
    std::cerr << flag << ": expected a non-negative integer, got '" << v
              << "'\n";
    return false;
  }
  out = *p;
  return true;
}

bool parse_flag_unsigned(const char* flag, const char* v, unsigned& out) {
  const std::optional<unsigned> p = hbnet::campaign::parse_unsigned(v);
  if (!p) {
    std::cerr << flag << ": expected a non-negative integer, got '" << v
              << "'\n";
    return false;
  }
  out = *p;
  return true;
}

bool parse_flag_double(const char* flag, const char* v, double& out) {
  const std::optional<double> p = hbnet::campaign::parse_double(v);
  if (!p) {
    std::cerr << flag << ": expected a finite number, got '" << v << "'\n";
    return false;
  }
  out = *p;
  return true;
}

/// Injection rates must lie in (0, 1], as campaign --rates enforces.
bool check_rate(double rate) {
  if (rate > 0.0 && rate <= 1.0) return true;
  std::cerr << "--rate: injection rate must lie in (0, 1], got " << rate
            << "\n";
  return false;
}

/// warmup + cycles + drain must not overflow 64 bits, and the
/// store-and-forward engine counts cycles in 32 bits.
bool check_horizon(std::uint64_t warmup, std::uint64_t cycles,
                   std::uint64_t drain, bool store_forward) {
  const std::uint64_t limit =
      store_forward ? 0xffffffffu : ~std::uint64_t{0};
  if (warmup <= limit && cycles <= limit - warmup &&
      drain <= limit - warmup - cycles) {
    return true;
  }
  std::cerr << "warmup " << warmup << " + cycles " << cycles << " + drain "
            << drain
            << (store_forward
                    ? " must be < 2^32 for the store-and-forward engine\n"
                    : " overflows 64 bits\n");
  return false;
}

/// Shared flags for the telemetry-producing commands.
struct SimFlags {
  double rate = 0.05;
  std::uint64_t cycles = 400;
  std::optional<std::uint64_t> warmup;  // unset: the engine's default
  std::optional<std::uint64_t> drain;
  unsigned vcs = 6;
  unsigned flits = 4;
  unsigned shards = 0;  // 0 = auto
  std::uint64_t seed = 42;
  hbnet::TrafficPattern pattern = hbnet::TrafficPattern::kUniform;
  hbnet::VcPolicy policy = hbnet::VcPolicy::kSegmentDateline;
  bool valiant = false;
  // Wormhole static faults, derived from the seed exactly the way campaign
  // trials derive theirs (campaign::derived_fault_nodes / _links).
  unsigned faults = 0;
  unsigned link_faults = 0;
  std::string trace_out, metrics_out, links_csv;
  // Live telemetry: NDJSON stream / Prometheus exposition / TTY line.
  std::string stream_out, prom_out;
  std::uint64_t stream_interval_ms = 200;
  bool progress = false;
};

/// Parses the flags of `wormhole` (wormhole = true) or `sim`.
bool parse_sim_flags(int argc, char** argv, int first, bool wormhole,
                     SimFlags& f) {
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    const bool sim_only = a == "--valiant" || a == "--shards";
    const bool wormhole_only = a == "--vcs" || a == "--flits" ||
                               a == "--policy" || a == "--faults" ||
                               a == "--link-faults";
    if (wormhole ? sim_only : wormhole_only) {
      std::cerr << a << ": not an option of "
                << (wormhole ? "wormhole" : "sim") << "\n";
      return false;
    }
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--valiant") {
      f.valiant = true;
    } else if (a == "--progress") {
      f.progress = true;
    } else if (a == "--stream-out") {
      const char* v = next("--stream-out");
      if (!v) return false;
      f.stream_out = v;
    } else if (a == "--prom-out") {
      const char* v = next("--prom-out");
      if (!v) return false;
      f.prom_out = v;
    } else if (a == "--stream-interval-ms") {
      const char* v = next("--stream-interval-ms");
      if (!v ||
          !parse_flag_u64("--stream-interval-ms", v, f.stream_interval_ms)) {
        return false;
      }
    } else if (a == "--rate") {
      const char* v = next("--rate");
      if (!v || !parse_flag_double("--rate", v, f.rate) ||
          !check_rate(f.rate)) {
        return false;
      }
    } else if (a == "--cycles") {
      const char* v = next("--cycles");
      if (!v || !parse_flag_u64("--cycles", v, f.cycles)) return false;
    } else if (a == "--warmup") {
      const char* v = next("--warmup");
      std::uint64_t warmup = 0;
      if (!v || !parse_flag_u64("--warmup", v, warmup)) return false;
      f.warmup = warmup;
    } else if (a == "--drain") {
      const char* v = next("--drain");
      std::uint64_t drain = 0;
      if (!v || !parse_flag_u64("--drain", v, drain)) return false;
      f.drain = drain;
    } else if (a == "--shards") {
      const char* v = next("--shards");
      if (!v || !parse_flag_unsigned("--shards", v, f.shards)) return false;
    } else if (a == "--vcs") {
      const char* v = next("--vcs");
      if (!v || !parse_flag_unsigned("--vcs", v, f.vcs)) return false;
    } else if (a == "--flits") {
      const char* v = next("--flits");
      if (!v || !parse_flag_unsigned("--flits", v, f.flits)) return false;
    } else if (a == "--faults") {
      const char* v = next("--faults");
      if (!v || !parse_flag_unsigned("--faults", v, f.faults)) return false;
    } else if (a == "--link-faults") {
      const char* v = next("--link-faults");
      if (!v || !parse_flag_unsigned("--link-faults", v, f.link_faults)) {
        return false;
      }
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (!v || !parse_flag_u64("--seed", v, f.seed)) return false;
    } else if (a == "--threads") {
      const char* v = next("--threads");
      unsigned threads = 0;
      if (!v || !parse_flag_unsigned("--threads", v, threads)) return false;
      hbnet::par::set_default_threads(threads);
    } else if (a == "--pattern") {
      const char* v = next("--pattern");
      if (!v) return false;
      const std::string p = v;
      if (p == "uniform") {
        f.pattern = hbnet::TrafficPattern::kUniform;
      } else if (p == "complement") {
        f.pattern = hbnet::TrafficPattern::kBitComplement;
      } else if (p == "reversal") {
        f.pattern = hbnet::TrafficPattern::kBitReversal;
      } else if (p == "shuffle") {
        f.pattern = hbnet::TrafficPattern::kShuffle;
      } else if (p == "hotspot") {
        f.pattern = hbnet::TrafficPattern::kHotspot;
      } else {
        std::cerr << "unknown pattern " << p << "\n";
        return false;
      }
    } else if (a == "--policy") {
      const char* v = next("--policy");
      if (!v) return false;
      const std::string p = v;
      if (p == "any") {
        f.policy = hbnet::VcPolicy::kAnyFree;
      } else if (p == "dateline") {
        f.policy = hbnet::VcPolicy::kDateline;
      } else if (p == "segment") {
        f.policy = hbnet::VcPolicy::kSegmentDateline;
      } else if (p == "adaptive") {
        f.policy = hbnet::VcPolicy::kFaultAdaptive;
      } else {
        std::cerr << "unknown policy " << p << "\n";
        return false;
      }
    } else if (a == "--trace-out") {
      const char* v = next("--trace-out");
      if (!v) return false;
      f.trace_out = v;
    } else if (a == "--metrics-out") {
      const char* v = next("--metrics-out");
      if (!v) return false;
      f.metrics_out = v;
    } else if (a == "--links-csv") {
      const char* v = next("--links-csv");
      if (!v) return false;
      f.links_csv = v;
    } else {
      std::cerr << "unknown option " << a << "\n";
      return false;
    }
  }
  if (wormhole) {
    const hbnet::WormholeConfig defaults;
    return check_horizon(f.warmup.value_or(defaults.warmup_cycles), f.cycles,
                         f.drain.value_or(defaults.drain_cycles), false);
  }
  const hbnet::SimConfig defaults;
  return check_horizon(f.warmup.value_or(defaults.warmup_cycles), f.cycles,
                       f.drain.value_or(defaults.drain_cycles), true);
}

/// Single rewriting status line on stderr, sampling a ProgressBoard at
/// ~10 Hz from its own thread. Shows unlabeled slots only (per-cell slots
/// would overflow one line); stop() renders the final state and moves to
/// a fresh line. Tools scope: wall-clock pacing is fine here.
class ProgressLine {
 public:
  explicit ProgressLine(const hbnet::obs::ProgressBoard& board)
      : board_(board), thread_([this] { run(); }) {}
  ~ProgressLine() { stop(); }
  ProgressLine(const ProgressLine&) = delete;
  ProgressLine& operator=(const ProgressLine&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    render();
    std::fputc('\n', stderr);
    std::fflush(stderr);
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopped_) {
      cv_.wait_for(lock, std::chrono::milliseconds(100),
                   [this] { return stopped_; });
      if (stopped_) break;
      lock.unlock();
      render();
      lock.lock();
    }
  }

  void render() {
    std::string line;
    for (const auto& [name, value] : board_.sample()) {
      if (name.find('{') != std::string::npos) continue;  // labeled slots
      if (!line.empty()) line += "  ";
      line += name + "=" + std::to_string(value);
    }
    // \r + erase-to-end keeps it a single rewriting line on a TTY.
    std::fprintf(stderr, "\r\033[K%s", line.c_str());
    std::fflush(stderr);
  }

  const hbnet::obs::ProgressBoard& board_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// The live-telemetry attachments of one run: the progress board the
/// engine writes into, plus (when requested) the Snapshotter exporting it
/// to files and/or the TTY status line. Everything here observes; the
/// engine result is byte-identical whether streaming is on or off.
struct Streaming {
  hbnet::obs::ProgressBoard board;
  std::unique_ptr<hbnet::obs::Snapshotter> snapshotter;
  std::unique_ptr<ProgressLine> line;

  ~Streaming() { stop(); }

  void start(const std::string& stream_out, const std::string& prom_out,
             std::uint64_t interval_ms, bool progress, const char* job) {
    if (!stream_out.empty() || !prom_out.empty()) {
      hbnet::obs::SnapshotterOptions opts;
      opts.stream_path = stream_out;
      opts.prom_path = !prom_out.empty()
                           ? prom_out
                           : (stream_out.empty() ? std::string()
                                                 : stream_out + ".prom");
      opts.interval_ms = interval_ms;
      opts.job = job;
      snapshotter =
          std::make_unique<hbnet::obs::Snapshotter>(board, std::move(opts));
      snapshotter->start();
    }
    if (progress) line = std::make_unique<ProgressLine>(board);
  }

  void start(const SimFlags& f, const char* job) {
    start(f.stream_out, f.prom_out, f.stream_interval_ms, f.progress, job);
  }

  /// The board when any surface is active, else nullptr -- so engines see
  /// a null progress pointer (and skip all slot work) on plain runs.
  [[nodiscard]] hbnet::obs::ProgressBoard* board_or_null() {
    return (snapshotter != nullptr || line != nullptr) ? &board : nullptr;
  }

  void stop() {
    if (line) line->stop();
    if (snapshotter) snapshotter->stop();
    line.reset();
    snapshotter.reset();
  }
};

/// Writes the sink's exports to the files requested by the flags.
/// Returns false on I/O failure.
bool export_sink(const hbnet::obs::Sink& sink, const SimFlags& f) {
  auto dump = [](const std::string& path, auto&& writer) {
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    writer(os);
    os << '\n';
    return true;
  };
  if (!f.trace_out.empty()) {
    if (sink.trace() == nullptr) return false;
    if (!dump(f.trace_out,
              [&](std::ostream& os) { sink.trace()->write_json(os); })) {
      return false;
    }
    std::cout << "trace:   " << f.trace_out << " (" << sink.trace()->size()
              << " events";
    if (sink.trace()->dropped() > 0) {
      std::cout << ", " << sink.trace()->dropped() << " dropped at capacity";
    }
    std::cout << ")\n";
  }
  if (!f.metrics_out.empty()) {
    if (!dump(f.metrics_out,
              [&](std::ostream& os) { sink.write_metrics_json(os); })) {
      return false;
    }
    std::cout << "metrics: " << f.metrics_out << " (" << sink.links().size()
              << " links)\n";
  }
  if (!f.links_csv.empty()) {
    if (!dump(f.links_csv,
              [&](std::ostream& os) { sink.write_links_csv(os); })) {
      return false;
    }
    std::cout << "links:   " << f.links_csv << "\n";
  }
  return true;
}

void print_node(const HyperButterfly& hb, HbNode v) {
  std::cout << "(" << v.cube << ",'" << hb.butterfly().label(v.bfly) << "')";
}

/// Mode switches for `analyze --exact-connectivity`.
struct ExactFlags {
  std::string checkpoint;
  std::string metrics_out;
  bool sparsify = false;   // run flows on Nagamochi-Ibaraki certificates
  bool implicit = false;   // generator-arithmetic adjacency, no CSR build
  bool orbits = true;      // cube-permutation target reduction
  std::uint64_t max_blocks = 0;  // 0 = run to completion
};

/// `analyze --exact-connectivity`: checkpointed Even-Tarjan sweep over the
/// HB(m,n) graph, single-source schedule (HB is a Cayley graph, hence
/// vertex transitive). Exit 0 only when the proven kappa equals the
/// Corollary-1 value m+4.
int run_exact_connectivity(const HyperButterfly& hb, const ExactFlags& ef,
                           const SimFlags& stream_flags) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  hbnet::obs::MetricsRegistry metrics;
  hbnet::par::ThreadPool probe;

  // Adjacency mode: materialized CSR (default) or generator arithmetic
  // (--implicit, O(1) memory for the topology itself).
  std::optional<hbnet::Graph> g;
  std::optional<hbnet::CsrAdjacency> csr;
  std::optional<hbnet::HbImplicitAdjacency> implicit;
  const hbnet::AdjacencyProvider* adj = nullptr;
  if (ef.implicit) {
    adj = &implicit.emplace(m, n);
  } else {
    g.emplace(hb.to_graph());
    adj = &csr.emplace(*g);
  }
  std::cout << "exact connectivity HB(" << m << "," << n << ")  "
            << adj->num_nodes() << " nodes, " << adj->num_edges()
            << " edges  (" << probe.size() << " threads, adjacency "
            << adj->describe() << (ef.sparsify ? ", sparsify" : "")
            << (ef.orbits ? ", orbit schedule" : "") << ")\n";

  Streaming streaming;
  streaming.start(stream_flags, "connectivity");

  hbnet::SweepOptions opts;
  opts.vertex_transitive = true;  // Cayley graph: single-source is exact
  opts.sparsify = ef.sparsify;
  opts.max_blocks = ef.max_blocks;
  if (ef.orbits) {
    // Cube-bit permutations are automorphisms fixing vertex 0, so targets
    // collapse to one representative per cube popcount class.
    opts.orbit_rep = [m, n](hbnet::NodeId v) {
      return hbnet::hb_cube_orbit_representative(m, n, v);
    };
  }
  opts.checkpoint_path = ef.checkpoint;
  opts.metrics = &metrics;
  opts.progress = streaming.board_or_null();
  opts.on_block = [](const hbnet::SweepState& st,
                     std::uint32_t stage_blocks) {
    std::cout << "  stage " << st.stages_done << " block " << st.blocks_done
              << "/" << stage_blocks << "  bound " << st.bound << "  solves "
              << st.solves << "  pruned " << st.pruned << "\n";
  };
  hbnet::ConnectivitySweep sweep(*adj, opts);
  if (sweep.resumed()) {
    const hbnet::SweepState& st = sweep.state();
    std::cout << "  resumed from " << ef.checkpoint << " at stage "
              << st.stages_done << " block " << st.blocks_done << " (solves "
              << st.solves << ", pruned " << st.pruned << ")\n";
  } else if (!sweep.resume_note().empty()) {
    std::cout << "  checkpoint not resumed: " << sweep.resume_note() << "\n";
  }

  const auto start = std::chrono::steady_clock::now();
  hbnet::ExactConnectivityResult r = sweep.run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  streaming.stop();

  if (!ef.metrics_out.empty()) {
    std::ofstream os(ef.metrics_out);
    if (!os) {
      std::cerr << "cannot open " << ef.metrics_out << "\n";
      return 1;
    }
    metrics.write_json(os);
    os << '\n';
    std::cout << "  metrics: " << ef.metrics_out << "\n";
  }
  if (!ef.checkpoint.empty()) {
    std::cout << "  checkpoint: " << ef.checkpoint << "\n";
  }
  if (!r.complete) {
    std::cout << "  stopped before completion (resume with the same "
                 "--checkpoint file)\n";
    return 1;
  }
  std::cout << "  kappa = " << r.kappa << "  (" << r.stages << " source"
            << (r.stages == 1 ? "" : "s") << ", " << r.solves << " solves, "
            << r.pruned << " pruned, " << secs << " s)\n";
  if (r.kappa != hb.degree()) {
    std::cerr << "FAILED: kappa " << r.kappa << " != degree " << hb.degree()
              << " (Corollary 1)\n";
    return 1;
  }
  std::cout << "  Corollary 1 verified: kappa = m+4 = " << hb.degree()
            << "\n";
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string cmd = argv[1];
  const std::optional<unsigned> m_arg = hbnet::campaign::parse_unsigned(argv[2]);
  const std::optional<unsigned> n_arg = hbnet::campaign::parse_unsigned(argv[3]);
  if (!m_arg || !n_arg) {
    std::cerr << "m and n must be non-negative integers, got '" << argv[2]
              << "' '" << argv[3] << "'\n";
    return usage();
  }
  const unsigned m = *m_arg;
  const unsigned n = *n_arg;
  HyperButterfly hb(m, n);

  if (cmd == "info") {
    std::cout << "HB(" << m << "," << n << ")\n"
              << "  nodes:            " << hb.num_nodes() << "\n"
              << "  edges:            " << hb.num_edges() << "\n"
              << "  degree (regular): " << hb.degree() << "\n"
              << "  diameter formula: " << hb.diameter_formula()
              << "  (measured: m + floor(3n/2) = " << m + 3 * n / 2 << ")\n"
              << "  connectivity:     " << hb.degree()
              << "  (maximally fault tolerant)\n"
              << "  tolerates any " << hb.degree() - 1 << " node faults\n";
    return 0;
  }
  if (cmd == "label" && argc >= 5) {
    const std::optional<std::uint64_t> id_arg =
        hbnet::campaign::parse_u64(argv[4]);
    if (!id_arg) {
      std::cerr << "bad vertex id '" << argv[4] << "'\n";
      return usage();
    }
    HbIndex id = *id_arg;
    if (id >= hb.num_nodes()) {
      std::cerr << "id out of range\n";
      return 1;
    }
    HbNode v = hb.node_at(id);
    std::cout << "id " << id << " = ";
    print_node(hb, v);
    std::cout << "  [cube=" << v.cube << " word=" << v.bfly.word
              << " level=" << v.bfly.level
              << " PI=" << hb.butterfly().permutation_index(v.bfly)
              << " CI=" << hb.butterfly().complementation_index(v.bfly)
              << "]\n";
    return 0;
  }
  if ((cmd == "route" || cmd == "disjoint") && argc >= 6) {
    const std::optional<std::uint64_t> s_arg =
        hbnet::campaign::parse_u64(argv[4]);
    const std::optional<std::uint64_t> t_arg =
        hbnet::campaign::parse_u64(argv[5]);
    if (!s_arg || !t_arg) {
      std::cerr << "bad vertex ids '" << argv[4] << "' '" << argv[5]
                << "'\n";
      return usage();
    }
    HbIndex s = *s_arg, t = *t_arg;
    if (s >= hb.num_nodes() || t >= hb.num_nodes() || s == t) {
      std::cerr << "bad endpoints\n";
      return 1;
    }
    HbNode u = hb.node_at(s), v = hb.node_at(t);
    if (cmd == "route") {
      std::cout << "distance " << hb.distance(u, v) << "\n";
      for (const HbNode& w : hb.route(u, v)) {
        print_node(hb, w);
        std::cout << " ";
      }
      std::cout << "\n";
    } else {
      auto family = hb.disjoint_paths(u, v);
      std::cout << family.size() << " internally disjoint paths:\n";
      for (const auto& p : family) {
        std::cout << "  [" << p.size() - 1 << " hops] ";
        for (const HbNode& w : p) {
          print_node(hb, w);
          std::cout << " ";
        }
        std::cout << "\n";
      }
    }
    return 0;
  }
  if (cmd == "dot" || cmd == "edges") {
    std::ofstream file;
    std::ostream* os = &std::cout;
    if (argc >= 5) {
      file.open(argv[4]);
      if (!file) {
        std::cerr << "cannot open " << argv[4] << "\n";
        return 1;
      }
      os = &file;
    }
    hbnet::Graph g = hb.to_graph();
    if (cmd == "dot") {
      hbnet::DotOptions opts;
      opts.graph_name = "HB_" + std::to_string(m) + "_" + std::to_string(n);
      for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
        HbNode v = hb.node_at(id);
        opts.labels.push_back(std::to_string(v.cube) + "," +
                              hb.butterfly().label(v.bfly));
      }
      write_dot(*os, g, opts);
    } else {
      write_edge_list(*os, g);
    }
    return 0;
  }
  if (cmd == "cuts") {
    for (const auto& cut : hbnet::hb_dimension_cuts(hb)) {
      std::cout << "  " << cut.name << ": width " << cut.width
                << (cut.balanced ? " (balanced)" : " (unbalanced)") << "\n";
    }
    std::uint64_t ub =
        hbnet::sampled_bisection_upper_bound(hb.to_graph(), 3, 11);
    std::cout << "  sampled bisection upper bound: " << ub
              << "  => Thompson VLSI area lower bound ~ "
              << hbnet::thompson_area_lower_bound(ub) << " grid units\n";
    return 0;
  }
  if (cmd == "election") {
    auto flood = hbnet::flood_max_election(hb.to_graph());
    auto structured = hbnet::hb_structured_election(hb);
    std::cout << "flood-max:  leader " << flood.leader << ", "
              << flood.run.rounds << " rounds, " << flood.run.messages
              << " messages\n"
              << "structured: leader " << structured.leader << ", "
              << structured.run.rounds << " rounds, "
              << structured.run.messages << " messages\n";
    return 0;
  }
  if (cmd == "analyze") {
    bool audit = false;
    bool exact = false;
    ExactFlags exact_flags;
    SimFlags stream_flags;
    std::string exact_only;  // the first flag that needs --exact-connectivity
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      const bool takes_value =
          a == "--threads" || a == "--max-blocks" || a == "--checkpoint" ||
          a == "--metrics-out" || a == "--stream-out" || a == "--prom-out" ||
          a == "--stream-interval-ms";
      if (takes_value && i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        return usage();
      }
      const char* v = takes_value ? argv[++i] : nullptr;
      if (a != "--threads" && a != "--audit" && a != "--exact-connectivity" &&
          exact_only.empty()) {
        exact_only = a;
      }
      if (a == "--threads") {
        unsigned threads = 0;
        if (!parse_flag_unsigned("--threads", v, threads)) return usage();
        hbnet::par::set_default_threads(threads);
      } else if (a == "--audit") {
        audit = true;
      } else if (a == "--exact-connectivity") {
        exact = true;
      } else if (a == "--sparsify") {
        exact_flags.sparsify = true;
      } else if (a == "--implicit") {
        exact_flags.implicit = true;
      } else if (a == "--no-orbits") {
        exact_flags.orbits = false;
      } else if (a == "--max-blocks") {
        if (!parse_flag_u64("--max-blocks", v, exact_flags.max_blocks)) {
          return usage();
        }
      } else if (a == "--progress") {
        stream_flags.progress = true;
      } else if (a == "--checkpoint") {
        exact_flags.checkpoint = v;
      } else if (a == "--metrics-out") {
        exact_flags.metrics_out = v;
      } else if (a == "--stream-out") {
        stream_flags.stream_out = v;
      } else if (a == "--prom-out") {
        stream_flags.prom_out = v;
      } else if (a == "--stream-interval-ms") {
        if (!parse_flag_u64("--stream-interval-ms", v,
                            stream_flags.stream_interval_ms)) {
          return usage();
        }
      } else {
        std::cerr << "unknown option " << a << "\n";
        return usage();
      }
    }
    if (exact && audit) {
      std::cerr << "--audit: not an option of analyze --exact-connectivity\n";
      return usage();
    }
    if (!exact && !exact_only.empty()) {
      std::cerr << exact_only << ": needs --exact-connectivity\n";
      return usage();
    }
    if (exact) {
      return run_exact_connectivity(hb, exact_flags, stream_flags);
    }
    hbnet::par::ThreadPool probe;
    hbnet::Graph g = hb.to_graph();
    std::cout << "analyze HB(" << m << "," << n << ")  (" << probe.size()
              << " threads)\n"
              << "  nodes / edges:     " << g.num_nodes() << " / "
              << g.num_edges() << "\n"
              << "  diameter:          " << hbnet::parallel_diameter(g)
              << "  (formula " << hb.diameter_formula() << ")\n"
              << "  average distance:  "
              << hbnet::parallel_average_distance(g) << "\n"
              << "  vertex connectivity: " << hbnet::vertex_connectivity(g)
              << "  (degree " << hb.degree() << ")\n"
              << "  edge connectivity:   " << hbnet::edge_connectivity(g)
              << "\n";
    if (audit) {
      hbnet::DisjointPathsAudit a = hbnet::audit_disjoint_paths(hb);
      std::cout << "  Theorem-5 audit:   " << a.pairs_checked << " pairs, "
                << (a.ok ? "all families disjoint" : "FAILED: " + a.error)
                << "\n";
      if (!a.ok) return 1;
    }
    return 0;
  }
  if (cmd == "wormhole" || cmd == "sim") {
    SimFlags flags;
    if (!parse_sim_flags(argc, argv, 4, cmd == "wormhole", flags)) {
      return usage();
    }
    hbnet::obs::Sink sink;
    if (!flags.trace_out.empty()) sink.enable_trace();

    if (cmd == "wormhole") {
      auto topo = hbnet::make_hyper_butterfly_sim(m, n);
      hbnet::WormholeConfig cfg;
      cfg.vcs = flags.vcs;
      cfg.flits_per_packet = flags.flits;
      cfg.injection_rate = flags.rate;
      cfg.measure_cycles = flags.cycles;
      cfg.warmup_cycles = flags.warmup.value_or(cfg.warmup_cycles);
      cfg.drain_cycles = flags.drain.value_or(cfg.drain_cycles);
      cfg.seed = flags.seed;
      cfg.pattern = flags.pattern;
      cfg.policy = flags.policy;
      // Static faults, derived from the run seed the same way campaign
      // trials derive theirs: node ids from the fault stream (stream 1 of
      // the splittable counter), link picks from an independent stream.
      hbnet::WormholeFaults wf;
      if (flags.faults > 0 || flags.link_faults > 0) {
        namespace camp = hbnet::campaign;
        const std::uint64_t fault_seed = camp::split_seed(flags.seed, 0, 1);
        if (flags.faults > 0) {
          if (flags.faults >= topo->num_nodes()) {
            std::cerr << "--faults: must be < num nodes ("
                      << topo->num_nodes() << ")\n";
            return 1;
          }
          wf.nodes.assign(topo->num_nodes(), 0);
          for (const std::uint32_t v :
               camp::derived_fault_nodes(fault_seed, topo->num_nodes(),
                                         flags.faults)) {
            wf.nodes[v] = 1;
          }
        }
        if (flags.link_faults > 0) {
          if (flags.link_faults >= topo->num_nodes()) {
            std::cerr << "--link-faults: must be < num nodes ("
                      << topo->num_nodes() << ")\n";
            return 1;
          }
          wf.links =
              camp::derived_fault_links(fault_seed, *topo, flags.link_faults);
        }
        if (cfg.policy != hbnet::VcPolicy::kFaultAdaptive) {
          std::cerr << "--faults/--link-faults need --policy adaptive (vcs"
                       " >= "
                    << hbnet::vc_classes(hbnet::VcPolicy::kFaultAdaptive)
                    << ")\n";
          return 1;
        }
      }
      Streaming streaming;
      streaming.start(flags, "wormhole");
      // The butterfly level coordinate is node id mod n: the ring arity
      // the dateline VC classes are computed from.
      hbnet::WormholeStats s =
          hbnet::run_wormhole(*topo, cfg, n, wf.any() ? &wf : nullptr, &sink,
                              streaming.board_or_null());
      streaming.stop();
      std::cout << "wormhole HB(" << m << "," << n << ") "
                << topo->num_nodes() << " nodes, rate " << flags.rate
                << ", " << s.cycles << " cycles"
                << (s.deadlocked ? " [DEADLOCK]" : "") << "\n  "
                << s.packets.summary() << "\n  p50="
                << s.packets.latency_percentile(0.5)
                << " max=" << s.packets.max_latency() << "\n";
      if (wf.any()) {
        std::cout << "  faults: " << flags.faults << " nodes, "
                  << flags.link_faults << " links; misroutes=" << s.misroutes
                  << " escape_hops=" << s.escape_hops
                  << " unroutable=" << s.unroutable << "\n";
      }
      if (!export_sink(sink, flags)) return 1;
      return s.deadlocked ? 1 : 0;
    }

    hbnet::SimConfig cfg;
    cfg.injection_rate = flags.rate;
    cfg.measure_cycles = flags.cycles;
    cfg.warmup_cycles = flags.warmup.value_or(cfg.warmup_cycles);
    cfg.drain_cycles = flags.drain.value_or(cfg.drain_cycles);
    cfg.seed = flags.seed;
    cfg.pattern = flags.pattern;
    cfg.routing = flags.valiant ? hbnet::RoutingMode::kValiant
                                : hbnet::RoutingMode::kNative;
    // Telemetry aggregation is pay-for-what-you-watch: skip it entirely
    // when nothing will be exported (at 10^6+ nodes the link/occupancy
    // tables dominate an otherwise interactive run).
    hbnet::obs::Sink* sink_ptr = !flags.trace_out.empty() ||
                                         !flags.metrics_out.empty() ||
                                         !flags.links_csv.empty()
                                     ? &sink
                                     : nullptr;
    Streaming streaming;
    streaming.start(flags, "sim");
    const hbnet::SimStats s = hbnet::run_simulation_sharded(
        hb, cfg, flags.shards, 0, sink_ptr, streaming.board_or_null());
    streaming.stop();
    std::cout << "sim HB(" << m << "," << n << ") " << hb.num_nodes()
              << " nodes, rate " << flags.rate << "\n  " << s.summary()
              << "\n  p50=" << s.latency_percentile(0.5)
              << " max=" << s.max_latency() << "\n";
    if (!export_sink(sink, flags)) return 1;
    return 0;
  }
  if (cmd == "campaign") {
    namespace camp = hbnet::campaign;
    camp::CampaignConfig cfg;
    cfg.m = m;
    cfg.n = n;
    std::string metrics_out, csv_out;
    SimFlags stream_flags;
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      // Value-less flags come before the "needs a value" check.
      if (a == "--progress") {
        stream_flags.progress = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        return usage();
      }
      const char* v = argv[++i];
      if (a == "--models") {
        cfg.models.clear();
        std::string_view rest = v;
        while (true) {
          const std::size_t comma = rest.find(',');
          const std::string_view piece = rest.substr(0, comma);
          const std::optional<camp::FaultModel> model =
              camp::fault_model_from_name(piece);
          if (!model) {
            std::cerr << "--models: unknown fault model '" << piece
                      << "' (random|adversarial|events|links)\n";
            return usage();
          }
          cfg.models.push_back(*model);
          if (comma == std::string_view::npos) break;
          rest.remove_prefix(comma + 1);
        }
      } else if (a == "--rates") {
        const std::optional<std::vector<double>> rates =
            camp::parse_double_list(v);
        if (!rates) {
          std::cerr << "--rates: expected comma-separated numbers, got '"
                    << v << "'\n";
          return usage();
        }
        cfg.rates = *rates;
      } else if (a == "--faults") {
        const std::optional<std::vector<unsigned>> faults =
            camp::parse_unsigned_list(v);
        if (!faults) {
          std::cerr << "--faults: expected comma-separated integers, got '"
                    << v << "'\n";
          return usage();
        }
        cfg.fault_counts = *faults;
      } else if (a == "--trials") {
        if (!parse_flag_unsigned("--trials", v, cfg.trials)) return usage();
      } else if (a == "--seed") {
        if (!parse_flag_u64("--seed", v, cfg.seed)) return usage();
      } else if (a == "--engine") {
        const std::optional<camp::Engine> engine = camp::engine_from_name(v);
        if (!engine) {
          std::cerr << "--engine: expected sf|wormhole, got '" << v << "'\n";
          return usage();
        }
        cfg.engine = *engine;
      } else if (a == "--cycles") {
        std::uint64_t cycles = 0;
        if (!parse_flag_u64("--cycles", v, cycles)) return usage();
        cfg.sim.measure_cycles = cycles;
        cfg.wormhole.measure_cycles = cycles;
      } else if (a == "--threads") {
        if (!parse_flag_unsigned("--threads", v, cfg.threads)) return usage();
      } else if (a == "--metrics-out") {
        metrics_out = v;
      } else if (a == "--csv") {
        csv_out = v;
      } else if (a == "--stream-out") {
        stream_flags.stream_out = v;
      } else if (a == "--prom-out") {
        stream_flags.prom_out = v;
      } else if (a == "--stream-interval-ms") {
        if (!parse_flag_u64("--stream-interval-ms", v,
                            stream_flags.stream_interval_ms)) {
          return usage();
        }
      } else {
        std::cerr << "unknown option " << a << "\n";
        return usage();
      }
    }
    const bool sf = cfg.engine == camp::Engine::kStoreForward;
    if (sf ? !check_horizon(cfg.sim.warmup_cycles, cfg.sim.measure_cycles,
                            cfg.sim.drain_cycles, true)
           : !check_horizon(cfg.wormhole.warmup_cycles,
                            cfg.wormhole.measure_cycles,
                            cfg.wormhole.drain_cycles, false)) {
      return usage();
    }
    Streaming streaming;
    streaming.start(stream_flags, "campaign");
    const camp::CampaignResult result =
        camp::run_campaign(cfg, streaming.board_or_null());
    streaming.stop();
    std::cout << "campaign HB(" << m << "," << n << ") engine "
              << camp::engine_name(cfg.engine) << ", " << result.trials.size()
              << " trials over " << result.cells.size() << " cells (seed "
              << cfg.seed << ")\n";
    camp::write_campaign_table(std::cout, result);
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (!os) {
        std::cerr << "cannot open " << metrics_out << "\n";
        return 1;
      }
      result.metrics.write_json(os);
      os << '\n';
      std::cout << "metrics: " << metrics_out << "\n";
    }
    if (!csv_out.empty()) {
      std::ofstream os(csv_out);
      if (!os) {
        std::cerr << "cannot open " << csv_out << "\n";
        return 1;
      }
      camp::write_campaign_csv(os, result);
      std::cout << "csv:     " << csv_out << "\n";
    }
    return 0;
  }
  return usage();
}

int main(int argc, char** argv) {
  // Postmortem triage: an HBNET_CHECK failure or fatal signal dumps the
  // flight recorder's recent engine events (trial/sweep/checkpoint
  // context) to stderr before the process dies.
  hbnet::obs::FlightRecorder::install_crash_dump();
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

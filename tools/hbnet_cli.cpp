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
// usage() below is the one list of flags. Every subcommand is one row of
// kCommands, which counts its positional arguments after <m> <n>; its flags
// are a table of Flag rows applied by parse_flags, the one argv loop. A
// flag of another subcommand (say --shards on wormhole) is not in the
// table and is rejected, not ignored.
//
// Live telemetry (campaign, analyze --exact-connectivity, wormhole, sim):
//   --stream-out FILE writes an NDJSON snapshot stream plus a Prometheus
//   text exposition (FILE.prom unless --prom-out overrides) while the run
//   is in flight; --progress renders a single rewriting status line on
//   stderr. Both are read-only observers -- results stay byte-identical
//   with them on or off (tools/test_stream_determinism.sh enforces it).
//
// Every numeric argv token goes through campaign/grid.hpp's checked
// parsers. A malformed or partial token ("4x", "", "1e999"), an unknown
// flag or command, a value flag without its value or a stray argument
// prints a diagnostic whose first line names the token, then usage, and
// exits 2. Output files are opened before any run starts, so a bad path
// fails at once with exit 1.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
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

namespace camp = hbnet::campaign;
using hbnet::HbIndex;
using hbnet::HbNode;
using hbnet::HyperButterfly;

/// The argv tokens a subcommand receives: its positionals, or its flags.
using Args = std::span<char* const>;

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
         "                                 --no-orbits: solve every target,\n"
         "                                 not one per orbit under cube-bit\n"
         "                                 permutations and the butterfly\n"
         "                                 level reflection\n"
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

/// One flag of a subcommand. `set` receives the value token (nullptr when
/// the flag takes none) and returns false, after a diagnostic naming the
/// flag, when the value is malformed.
struct Flag {
  std::string_view name;
  bool takes_value;
  std::function<bool(const char*)> set;
};
using Flags = std::vector<Flag>;

/// The one argv loop: applies `flags` to `args` from left to right. An
/// unknown flag, a value flag without its value (a following flag is not
/// a value) or a malformed value prints a diagnostic naming the token and
/// returns false.
bool parse_flags(std::string_view command, Args args, const Flags& flags) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [a](const Flag& f) { return f.name == a; });
    if (flag == flags.end()) {
      std::cerr << a << ": not an option of " << command << "\n";
      return false;
    }
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 == args.size() ||
          std::string_view(args[i + 1]).starts_with("--")) {
        std::cerr << a << " needs a value\n";
        return false;
      }
      value = args[++i];
    }
    if (!flag->set(value)) return false;
  }
  return true;
}

/// Prints "<flag>: expected <expected>, got '<got>'" and returns false.
bool reject(std::string_view flag, std::string_view expected,
            const char* got) {
  std::cerr << flag << ": expected " << expected << ", got '" << got
            << "'\n";
  return false;
}

/// A value flag parsed by one of the checked parsers (campaign/grid.hpp or
/// a name lookup such as campaign::engine_from_name).
template <typename T>
Flag checked(std::string_view name, T& out,
             std::optional<T> (*parse)(std::string_view),
             std::string_view expected) {
  return {name, true, [name, &out, parse, expected](const char* v) {
            const std::optional<T> p = parse(v);
            if (!p) return reject(name, expected, v);
            out = *p;
            return true;
          }};
}

Flag u64(std::string_view name, std::uint64_t& out) {
  return checked(name, out, camp::parse_u64, "a non-negative integer");
}

Flag uint(std::string_view name, unsigned& out) {
  return checked(name, out, camp::parse_unsigned, "a non-negative integer");
}

Flag text(std::string_view name, std::string& out) {
  return {name, true, [&out](const char* v) {
            out = v;
            return true;
          }};
}

/// A flag without a value that stores `value`.
template <typename T>
Flag toggle(std::string_view name, T& out, T value) {
  return {name, false, [&out, value](const char*) {
            out = value;
            return true;
          }};
}

template <typename E>
struct Named {
  std::string_view name;
  E value;
};

/// A value flag naming one entry of `names`.
template <typename E, std::size_t N>
Flag choice(std::string_view flag, E& out, const Named<E> (&names)[N]) {
  return {flag, true, [flag, &out, &names](const char* v) {
            std::string all;
            for (const Named<E>& entry : names) {
              if (entry.name == v) {
                out = entry.value;
                return true;
              }
              all += (all.empty() ? "" : "|") + std::string(entry.name);
            }
            return reject(flag, all, v);
          }};
}

constexpr Named<hbnet::TrafficPattern> kPatterns[] = {
    {"uniform", hbnet::TrafficPattern::kUniform},
    {"complement", hbnet::TrafficPattern::kBitComplement},
    {"reversal", hbnet::TrafficPattern::kBitReversal},
    {"shuffle", hbnet::TrafficPattern::kShuffle},
    {"hotspot", hbnet::TrafficPattern::kHotspot}};

constexpr Named<hbnet::VcPolicy> kPolicies[] = {
    {"any", hbnet::VcPolicy::kAnyFree},
    {"dateline", hbnet::VcPolicy::kDateline},
    {"segment", hbnet::VcPolicy::kSegmentDateline},
    {"adaptive", hbnet::VcPolicy::kFaultAdaptive}};

/// --threads N: the process-wide pool size (0 = default). Every pool
/// worker is an OS thread, so N is capped at par::kMaxThreads.
Flag threads() {
  return {"--threads", true, [](const char* v) {
            const std::optional<unsigned> p = camp::parse_unsigned(v);
            if (!p || *p > hbnet::par::kMaxThreads) {
              return reject("--threads",
                            "a thread count in [0, " +
                                std::to_string(hbnet::par::kMaxThreads) +
                                "]",
                            v);
            }
            hbnet::par::set_default_threads(*p);
            return true;
          }};
}

/// --rate R: an injection rate in (0, 1], as campaign --rates enforces.
Flag rate(double& out) {
  return {"--rate", true, [&out](const char* v) {
            const std::optional<double> p = camp::parse_double(v);
            if (!p || !(*p > 0.0 && *p <= 1.0)) {
              return reject("--rate", "an injection rate in (0, 1]", v);
            }
            out = *p;
            return true;
          }};
}

/// warmup + cycles + drain must stay below 2^32: both engines count cycles
/// in 32 bits. Each partial sum is checked, so a sum that wraps 64 bits is
/// rejected too.
template <typename Config>
bool check_horizon(const Config& cfg) {
  const std::uint64_t warmup = cfg.warmup_cycles;
  const std::uint64_t cycles = cfg.measure_cycles;
  const std::uint64_t drain = cfg.drain_cycles;
  constexpr std::uint64_t limit = 0xffffffffu;
  if (warmup <= limit && cycles <= limit - warmup &&
      drain <= limit - warmup - cycles) {
    return true;
  }
  std::cerr << "warmup " << warmup << " + cycles " << cycles << " + drain "
            << drain << " must be < 2^32\n";
  return false;
}

/// A failed artifact write; main() prints "cannot write <path>" and exits 1.
struct WriteError : std::runtime_error {
  explicit WriteError(const std::string& path)
      : std::runtime_error("cannot write " + path) {}
};

/// An output file named on the command line. open() runs before the
/// engine starts, so a bad path fails before any work; the artifact is
/// written after the run, and close() reports a write that failed.
struct OutFile {
  std::string path;
  std::ofstream os;

  /// True when no file was requested or it opened; the one place a bad
  /// output path is reported.
  bool open() {
    if (path.empty()) return true;
    os.open(path);
    if (os) return true;
    std::cerr << "cannot open " << path << "\n";
    return false;
  }

  /// Closes a requested file; throws WriteError when any write failed.
  void close() {
    if (path.empty()) return;
    os.close();
    if (!os) throw WriteError(path);
  }
};

/// Writes a requested artifact and a trailing newline; returns false, and
/// writes nothing, when `file` was not requested.
template <typename Writer>
bool write_file(OutFile& file, Writer&& writer) {
  if (file.path.empty()) return false;
  writer(file.os);
  file.os << '\n';
  file.close();
  return true;
}

/// The sink artifacts of `wormhole` and `sim`.
struct SinkExports {
  OutFile trace, metrics, links;

  void add_flags(Flags& flags) {
    flags.push_back(text("--trace-out", trace.path));
    flags.push_back(text("--metrics-out", metrics.path));
    flags.push_back(text("--links-csv", links.path));
  }

  [[nodiscard]] bool any() const {
    return !trace.path.empty() || !metrics.path.empty() ||
           !links.path.empty();
  }

  /// Opens every requested file and enables tracing on `sink` if asked.
  bool open(hbnet::obs::Sink& sink) {
    if (!trace.open() || !metrics.open() || !links.open()) return false;
    if (!trace.path.empty()) sink.enable_trace();
    return true;
  }

  void write(const hbnet::obs::Sink& sink) {
    if (write_file(trace, [&](std::ostream& os) {
          sink.trace()->write_json(os);
        })) {
      std::cout << "trace:   " << trace.path << " (" << sink.trace()->size()
                << " events";
      if (sink.trace()->dropped() > 0) {
        std::cout << ", " << sink.trace()->dropped()
                  << " dropped at capacity";
      }
      std::cout << ")\n";
    }
    if (write_file(metrics, [&](std::ostream& os) {
          sink.write_metrics_json(os);
        })) {
      std::cout << "metrics: " << metrics.path << " (" << sink.links().size()
                << " links)\n";
    }
    if (write_file(links,
                   [&](std::ostream& os) { sink.write_links_csv(os); })) {
      std::cout << "links:   " << links.path << "\n";
    }
  }
};

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

/// The live-telemetry flags of one run and what they attach: the progress
/// board the engine writes into, plus (when requested) the Snapshotter
/// exporting it to files and/or the TTY status line. Everything here
/// observes; the engine result is byte-identical whether streaming is on
/// or off.
struct Streaming {
  std::string stream_out, prom_out;
  std::uint64_t interval_ms = 200;
  bool progress = false;
  hbnet::obs::ProgressBoard board;
  std::unique_ptr<hbnet::obs::Snapshotter> snapshotter;
  std::unique_ptr<ProgressLine> line;

  ~Streaming() { stop(); }

  void add_flags(Flags& flags) {
    flags.push_back(text("--stream-out", stream_out));
    flags.push_back(text("--prom-out", prom_out));
    flags.push_back(u64("--stream-interval-ms", interval_ms));
    flags.push_back(toggle("--progress", progress, true));
  }

  /// The exposition path: --prom-out, else FILE.prom beside --stream-out.
  [[nodiscard]] std::string prom_path() const {
    if (!prom_out.empty() || stream_out.empty()) return prom_out;
    return stream_out + ".prom";
  }

  /// True when every requested export path can be written; otherwise
  /// prints "cannot open <path>". The Snapshotter writes best-effort, so
  /// this runs before the engine, beside OutFile::open.
  bool open() const {
    for (const std::string& path : {stream_out, prom_path()}) {
      if (path.empty() || std::ofstream(path, std::ios::app)) continue;
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    return true;
  }

  void start(const char* job) {
    if (!stream_out.empty() || !prom_out.empty()) {
      hbnet::obs::SnapshotterOptions opts;
      opts.stream_path = stream_out;
      opts.prom_path = prom_path();
      opts.interval_ms = interval_ms;
      opts.job = job;
      snapshotter =
          std::make_unique<hbnet::obs::Snapshotter>(board, std::move(opts));
      snapshotter->start();
    }
    if (progress) line = std::make_unique<ProgressLine>(board);
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

void print_node(const HyperButterfly& hb, HbNode v) {
  std::cout << "(" << v.cube << ",'" << hb.butterfly().label(v.bfly) << "')";
}

void print_path(const HyperButterfly& hb, const std::vector<HbNode>& path) {
  for (const HbNode& w : path) {
    print_node(hb, w);
    std::cout << " ";
  }
  std::cout << "\n";
}

int cmd_info(const HyperButterfly& hb, Args /*args*/) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
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

int cmd_label(const HyperButterfly& hb, Args args) {
  const std::optional<HbIndex> id = camp::parse_u64(args[0]);
  if (!id) {
    std::cerr << "bad vertex id '" << args[0] << "'\n";
    return usage();
  }
  if (*id >= hb.num_nodes()) {
    std::cerr << "id out of range\n";
    return 1;
  }
  const HbNode v = hb.node_at(*id);
  std::cout << "id " << *id << " = ";
  print_node(hb, v);
  std::cout << "  [cube=" << v.cube << " word=" << v.bfly.word
            << " level=" << v.bfly.level
            << " PI=" << hb.butterfly().permutation_index(v.bfly)
            << " CI=" << hb.butterfly().complementation_index(v.bfly)
            << "]\n";
  return 0;
}

/// `route` (family = false) or `disjoint` between two dense ids.
int cmd_paths(const HyperButterfly& hb, Args args, bool family) {
  const std::optional<HbIndex> s = camp::parse_u64(args[0]);
  const std::optional<HbIndex> t = camp::parse_u64(args[1]);
  if (!s || !t) {
    std::cerr << "bad vertex ids '" << args[0] << "' '" << args[1] << "'\n";
    return usage();
  }
  if (*s >= hb.num_nodes() || *t >= hb.num_nodes() || *s == *t) {
    std::cerr << "bad endpoints\n";
    return 1;
  }
  const HbNode u = hb.node_at(*s);
  const HbNode v = hb.node_at(*t);
  if (!family) {
    std::cout << "distance " << hb.distance(u, v) << "\n";
    print_path(hb, hb.route(u, v));
    return 0;
  }
  const std::vector<std::vector<HbNode>> paths = hb.disjoint_paths(u, v);
  std::cout << paths.size() << " internally disjoint paths:\n";
  for (const std::vector<HbNode>& p : paths) {
    std::cout << "  [" << p.size() - 1 << " hops] ";
    print_path(hb, p);
  }
  return 0;
}

/// `dot` (Graphviz) or `edges` (edge list), to stdout or to args[0].
int cmd_export(const HyperButterfly& hb, Args args, bool dot) {
  OutFile file;
  if (!args.empty()) file.path = args[0];
  if (!file.open()) return 1;
  std::ostream& os = file.path.empty() ? std::cout : file.os;
  const hbnet::Graph g = hb.to_graph();
  if (!dot) {
    write_edge_list(os, g);
    file.close();
    return 0;
  }
  hbnet::DotOptions opts;
  opts.graph_name = "HB_" + std::to_string(hb.cube_dimension()) + "_" +
                    std::to_string(hb.butterfly_dimension());
  for (HbIndex id = 0; id < hb.num_nodes(); ++id) {
    const HbNode v = hb.node_at(id);
    opts.labels.push_back(std::to_string(v.cube) + "," +
                          hb.butterfly().label(v.bfly));
  }
  write_dot(os, g, opts);
  file.close();
  return 0;
}

int cmd_cuts(const HyperButterfly& hb, Args /*args*/) {
  for (const auto& cut : hbnet::hb_dimension_cuts(hb)) {
    std::cout << "  " << cut.name << ": width " << cut.width
              << (cut.balanced ? " (balanced)" : " (unbalanced)") << "\n";
  }
  const std::uint64_t ub =
      hbnet::sampled_bisection_upper_bound(hb.to_graph(), 3, 11);
  std::cout << "  sampled bisection upper bound: " << ub
            << "  => Thompson VLSI area lower bound ~ "
            << hbnet::thompson_area_lower_bound(ub) << " grid units\n";
  return 0;
}

int cmd_election(const HyperButterfly& hb, Args /*args*/) {
  const auto flood = hbnet::flood_max_election(hb.to_graph());
  const auto structured = hbnet::hb_structured_election(hb);
  std::cout << "flood-max:  leader " << flood.leader << ", "
            << flood.run.rounds << " rounds, " << flood.run.messages
            << " messages\n"
            << "structured: leader " << structured.leader << ", "
            << structured.run.rounds << " rounds, "
            << structured.run.messages << " messages\n";
  return 0;
}

/// Mode switches for `analyze --exact-connectivity`.
struct ExactFlags {
  std::string checkpoint;
  OutFile metrics;
  bool sparsify = false;   // run flows on Nagamochi-Ibaraki certificates
  bool implicit = false;   // generator-arithmetic adjacency, no CSR build
  bool orbits = true;      // target reduction modulo automorphisms of e
  std::uint64_t max_blocks = 0;  // 0 = run to completion
};

/// `analyze --exact-connectivity`: checkpointed Even-Tarjan sweep over the
/// HB(m,n) graph, single-source schedule (HB is a Cayley graph, hence
/// vertex transitive). Exit 0 only when the proven kappa equals the
/// Corollary-1 value m+4.
int run_exact_connectivity(const HyperButterfly& hb, ExactFlags& ef,
                           Streaming& streaming) {
  if (!ef.metrics.open() || !streaming.open()) return 1;
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

  streaming.start("connectivity");

  hbnet::SweepOptions opts;
  opts.vertex_transitive = true;  // Cayley graph: single-source is exact
  opts.sparsify = ef.sparsify;
  opts.max_blocks = ef.max_blocks;
  if (ef.orbits) {
    // Cube-bit permutations and the butterfly level reflection are
    // automorphisms fixing vertex 0, so one target per orbit is solved.
    opts.orbit_rep = [m, n](hbnet::NodeId v) {
      return hbnet::hb_cube_orbit_representative(m, n, v);
    };
  }
  opts.checkpoint_path = ef.checkpoint;
  opts.metrics = &metrics;
  opts.progress = streaming.board_or_null();
  opts.on_block = [](const hbnet::SweepState& st,
                     std::uint32_t stage_blocks) {
    // A stage's last block arrives rolled over to (next stage, block 0);
    // the completion call after the last stage has no block at all.
    if (stage_blocks == 0) return;
    const bool rolled = st.blocks_done == 0;
    std::cout << "  stage " << st.stages_done - (rolled ? 1 : 0) << " block "
              << (rolled ? stage_blocks : st.blocks_done) << "/"
              << stage_blocks << "  bound " << st.bound << "  solves "
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

  if (write_file(ef.metrics,
                 [&](std::ostream& os) { metrics.write_json(os); })) {
    std::cout << "  metrics: " << ef.metrics.path << "\n";
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

int cmd_analyze(const HyperButterfly& hb, Args args) {
  bool audit = false;
  bool exact = false;
  ExactFlags ef;
  Streaming streaming;
  Flags exact_only{toggle("--sparsify", ef.sparsify, true),
                   toggle("--implicit", ef.implicit, true),
                   toggle("--no-orbits", ef.orbits, false),
                   u64("--max-blocks", ef.max_blocks),
                   text("--checkpoint", ef.checkpoint),
                   text("--metrics-out", ef.metrics.path)};
  streaming.add_flags(exact_only);
  // The first of these flags names the diagnostic when
  // --exact-connectivity is missing.
  std::string_view first_exact_only;
  for (Flag& f : exact_only) {
    f.set = [&first_exact_only, name = f.name,
             set = std::move(f.set)](const char* v) {
      if (first_exact_only.empty()) first_exact_only = name;
      return set(v);
    };
  }
  Flags flags{threads(), toggle("--audit", audit, true),
              toggle("--exact-connectivity", exact, true)};
  flags.insert(flags.end(), exact_only.begin(), exact_only.end());
  if (!parse_flags("analyze", args, flags)) return usage();
  if (exact && audit) {
    std::cerr << "--audit: not an option of analyze --exact-connectivity\n";
    return usage();
  }
  if (!exact && !first_exact_only.empty()) {
    std::cerr << first_exact_only << ": needs --exact-connectivity\n";
    return usage();
  }
  if (exact) return run_exact_connectivity(hb, ef, streaming);

  hbnet::par::ThreadPool probe;
  const hbnet::Graph g = hb.to_graph();
  std::cout << "analyze HB(" << hb.cube_dimension() << ","
            << hb.butterfly_dimension() << ")  (" << probe.size()
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
    const hbnet::DisjointPathsAudit a = hbnet::audit_disjoint_paths(hb);
    std::cout << "  Theorem-5 audit:   " << a.pairs_checked << " pairs, "
              << (a.ok ? "all families disjoint" : "FAILED: " + a.error)
              << "\n";
    if (!a.ok) return 1;
  }
  return 0;
}

/// The flags `wormhole` and `sim` share, with the CLI's defaults for rate
/// and measured cycles set on `cfg`.
template <typename Config>
Flags run_flags(Config& cfg, SinkExports& exports, Streaming& streaming) {
  cfg.injection_rate = 0.05;
  cfg.measure_cycles = 400;
  Flags flags{rate(cfg.injection_rate),
              u64("--cycles", cfg.measure_cycles),
              u64("--warmup", cfg.warmup_cycles),
              u64("--drain", cfg.drain_cycles),
              u64("--seed", cfg.seed),
              threads(),
              choice("--pattern", cfg.pattern, kPatterns)};
  exports.add_flags(flags);
  streaming.add_flags(flags);
  return flags;
}

int cmd_wormhole(const HyperButterfly& hb, Args args) {
  const unsigned m = hb.cube_dimension();
  const unsigned n = hb.butterfly_dimension();
  hbnet::WormholeConfig cfg;
  cfg.vcs = 6;
  // Static faults, derived from the seed exactly the way campaign trials
  // derive theirs (campaign::derived_fault_nodes / _links).
  unsigned faults = 0;
  unsigned link_faults = 0;
  SinkExports exports;
  Streaming streaming;
  Flags flags = run_flags(cfg, exports, streaming);
  flags.insert(flags.end(),
               {uint("--vcs", cfg.vcs), uint("--flits", cfg.flits_per_packet),
                choice("--policy", cfg.policy, kPolicies),
                uint("--faults", faults),
                uint("--link-faults", link_faults)});
  if (!parse_flags("wormhole", args, flags) || !check_horizon(cfg)) {
    return usage();
  }
  auto topo = hbnet::make_hyper_butterfly_sim(m, n);
  // Node ids come from the fault stream (stream 1 of the splittable
  // counter), link picks from an independent stream.
  hbnet::WormholeFaults wf;
  if (faults > 0 || link_faults > 0) {
    const std::uint64_t fault_seed = camp::split_seed(cfg.seed, 0, 1);
    if (faults > 0) {
      if (faults >= topo->num_nodes()) {
        std::cerr << "--faults: must be < num nodes (" << topo->num_nodes()
                  << ")\n";
        return 1;
      }
      wf.nodes.assign(topo->num_nodes(), 0);
      for (const std::uint32_t v :
           camp::derived_fault_nodes(fault_seed, topo->num_nodes(), faults)) {
        wf.nodes[v] = 1;
      }
    }
    if (link_faults > 0) {
      if (link_faults >= topo->num_nodes()) {
        std::cerr << "--link-faults: must be < num nodes ("
                  << topo->num_nodes() << ")\n";
        return 1;
      }
      wf.links = camp::derived_fault_links(fault_seed, *topo, link_faults);
    }
    if (cfg.policy != hbnet::VcPolicy::kFaultAdaptive) {
      std::cerr << "--faults/--link-faults need --policy adaptive (vcs"
                   " >= "
                << hbnet::vc_classes(hbnet::VcPolicy::kFaultAdaptive)
                << ")\n";
      return 1;
    }
  }
  hbnet::obs::Sink sink;
  if (!exports.open(sink) || !streaming.open()) return 1;
  streaming.start("wormhole");
  // The butterfly level coordinate is node id mod n: the ring arity the
  // dateline VC classes are computed from. As on `sim`, telemetry is
  // gathered only when something will be exported.
  const hbnet::WormholeStats s = hbnet::run_wormhole(
      *topo, cfg, n, wf.any() ? &wf : nullptr,
      exports.any() ? &sink : nullptr, streaming.board_or_null());
  streaming.stop();
  std::cout << "wormhole HB(" << m << "," << n << ") " << topo->num_nodes()
            << " nodes, rate " << cfg.injection_rate << ", " << s.cycles
            << " cycles" << (s.deadlocked ? " [DEADLOCK]" : "") << "\n  "
            << s.packets.summary()
            << "\n  p50=" << s.packets.latency_percentile(0.5)
            << " max=" << s.packets.max_latency() << "\n";
  if (wf.any()) {
    std::cout << "  faults: " << faults << " nodes, " << link_faults
              << " links; misroutes=" << s.misroutes
              << " escape_hops=" << s.escape_hops
              << " unroutable=" << s.unroutable << "\n";
  }
  exports.write(sink);
  return s.deadlocked ? 1 : 0;
}

int cmd_sim(const HyperButterfly& hb, Args args) {
  hbnet::SimConfig cfg;
  unsigned shards = 0;  // 0 = auto
  SinkExports exports;
  Streaming streaming;
  Flags flags = run_flags(cfg, exports, streaming);
  flags.push_back(
      toggle("--valiant", cfg.routing, hbnet::RoutingMode::kValiant));
  flags.push_back(uint("--shards", shards));
  if (!parse_flags("sim", args, flags) || !check_horizon(cfg)) {
    return usage();
  }
  hbnet::obs::Sink sink;
  if (!exports.open(sink) || !streaming.open()) return 1;
  streaming.start("sim");
  // Telemetry aggregation is pay-for-what-you-watch: skip it entirely
  // when nothing will be exported (at 10^6+ nodes the link/occupancy
  // tables dominate an otherwise interactive run).
  const hbnet::SimStats s = hbnet::run_simulation_sharded(
      hb, cfg, shards, 0, exports.any() ? &sink : nullptr,
      streaming.board_or_null());
  streaming.stop();
  std::cout << "sim HB(" << hb.cube_dimension() << ","
            << hb.butterfly_dimension() << ") " << hb.num_nodes()
            << " nodes, rate " << cfg.injection_rate << "\n  " << s.summary()
            << "\n  p50=" << s.latency_percentile(0.5)
            << " max=" << s.max_latency() << "\n";
  exports.write(sink);
  return 0;
}

int cmd_campaign(const HyperButterfly& hb, Args args) {
  camp::CampaignConfig cfg;
  cfg.m = hb.cube_dimension();
  cfg.n = hb.butterfly_dimension();
  OutFile metrics, csv;
  Streaming streaming;
  Flags flags{
      {"--models", true,
       [&cfg](const char* v) {
         cfg.models.clear();
         for (std::string_view rest = v;;) {
           const std::size_t comma = rest.find(',');
           const std::optional<camp::FaultModel> model =
               camp::fault_model_from_name(rest.substr(0, comma));
           if (!model) {
             return reject("--models",
                           "a list of random|adversarial|events|links", v);
           }
           cfg.models.push_back(*model);
           if (comma == std::string_view::npos) return true;
           rest.remove_prefix(comma + 1);
         }
       }},
      checked("--rates", cfg.rates, camp::parse_double_list,
              "comma-separated numbers"),
      checked("--faults", cfg.fault_counts, camp::parse_unsigned_list,
              "comma-separated integers"),
      uint("--trials", cfg.trials),
      u64("--seed", cfg.seed),
      checked("--engine", cfg.engine, camp::engine_from_name, "sf|wormhole"),
      {"--cycles", true,
       [&cfg](const char* v) {
         const std::optional<std::uint64_t> cycles = camp::parse_u64(v);
         if (!cycles) return reject("--cycles", "a non-negative integer", v);
         cfg.sim.measure_cycles = *cycles;
         cfg.wormhole.measure_cycles = *cycles;
         return true;
       }},
      threads(),
      text("--metrics-out", metrics.path),
      text("--csv", csv.path)};
  streaming.add_flags(flags);
  if (!parse_flags("campaign", args, flags)) return usage();
  if (cfg.engine == camp::Engine::kStoreForward
          ? !check_horizon(cfg.sim)
          : !check_horizon(cfg.wormhole)) {
    return usage();
  }
  if (!metrics.open() || !csv.open() || !streaming.open()) return 1;
  streaming.start("campaign");
  const camp::CampaignResult result =
      camp::run_campaign(cfg, streaming.board_or_null());
  streaming.stop();
  std::cout << "campaign HB(" << cfg.m << "," << cfg.n << ") engine "
            << camp::engine_name(cfg.engine) << ", " << result.trials.size()
            << " trials over " << result.cells.size() << " cells (seed "
            << cfg.seed << ")\n";
  camp::write_campaign_table(std::cout, result);
  if (write_file(metrics,
                 [&](std::ostream& os) { result.metrics.write_json(os); })) {
    std::cout << "metrics: " << metrics.path << "\n";
  }
  if (!csv.path.empty()) {
    camp::write_campaign_csv(csv.os, result);
    csv.close();
    std::cout << "csv:     " << csv.path << "\n";
  }
  return 0;
}

/// One subcommand: the positional arguments it takes after <m> <n>,
/// whether flags may follow them, and the function that runs it.
struct Command {
  std::string_view name;
  std::size_t min_args;
  std::size_t max_args;
  bool flags;
  int (*run)(const HyperButterfly& hb, Args args);
};

constexpr Command kCommands[] = {
    {"info", 0, 0, false, cmd_info},
    {"route", 2, 2, false,
     [](const HyperButterfly& hb, Args a) { return cmd_paths(hb, a, false); }},
    {"disjoint", 2, 2, false,
     [](const HyperButterfly& hb, Args a) { return cmd_paths(hb, a, true); }},
    {"label", 1, 1, false, cmd_label},
    {"dot", 0, 1, false,
     [](const HyperButterfly& hb, Args a) { return cmd_export(hb, a, true); }},
    {"edges", 0, 1, false,
     [](const HyperButterfly& hb, Args a) { return cmd_export(hb, a, false); }},
    {"cuts", 0, 0, false, cmd_cuts},
    {"election", 0, 0, false, cmd_election},
    {"analyze", 0, 0, true, cmd_analyze},
    {"wormhole", 0, 0, true, cmd_wormhole},
    {"sim", 0, 0, true, cmd_sim},
    {"campaign", 0, 0, true, cmd_campaign},
};

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const Command* cmd =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [name](const Command& c) { return c.name == name; });
  if (cmd == std::end(kCommands)) {
    std::cerr << "unknown command '" << name << "'\n";
    return usage();
  }
  if (argc < 4) {
    std::cerr << name << ": expected <m> <n>\n";
    return usage();
  }
  const std::optional<unsigned> m = camp::parse_unsigned(argv[2]);
  const std::optional<unsigned> n = camp::parse_unsigned(argv[3]);
  if (!m || !n) {
    std::cerr << "m and n must be non-negative integers, got '" << argv[2]
              << "' '" << argv[3] << "'\n";
    return usage();
  }
  const HyperButterfly hb(*m, *n);
  const Args rest(argv + 4, static_cast<std::size_t>(argc - 4));
  // Positionals are the leading tokens that are not flags.
  std::size_t given = 0;
  while (given < rest.size() && given < cmd->max_args &&
         !std::string_view(rest[given]).starts_with("--")) {
    ++given;
  }
  if (given < cmd->min_args) {
    std::cerr << name << ": expected " << cmd->min_args
              << " argument(s) after <m> <n>, got " << given << "\n";
    return usage();
  }
  if (!cmd->flags && given < rest.size()) {
    std::cerr << name << ": unexpected argument '" << rest[given] << "'\n";
    return usage();
  }
  return cmd->run(hb, rest);
}

}  // namespace

int main(int argc, char** argv) {
  // Postmortem triage: an HBNET_CHECK failure or fatal signal dumps the
  // flight recorder's recent engine events (trial/sweep/checkpoint
  // context) to stderr before the process dies.
  hbnet::obs::FlightRecorder::install_crash_dump();
  try {
    return run(argc, argv);
  } catch (const WriteError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

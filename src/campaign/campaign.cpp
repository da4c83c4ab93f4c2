#include "campaign/campaign.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/cuts.hpp"
#include "check/check.hpp"
#include "core/hyper_butterfly.hpp"
#include "graph/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/progress.hpp"
#include "par/pool.hpp"
#include "sim/topology.hpp"

namespace hbnet::campaign {
namespace {

// Derivation streams of split_seed: one per independent random quantity a
// trial consumes, so adding a stream never perturbs the others.
constexpr std::uint64_t kStreamSimSeed = 0;
constexpr std::uint64_t kStreamFaults = 1;
constexpr std::uint64_t kStreamShuffle = 2;
constexpr std::uint64_t kStreamLinkPick = 3;

/// Latency histogram key the engine's simulator registers in its sink.
const char* latency_metric(Engine engine) {
  return engine == Engine::kWormhole ? "wormhole.packet_latency"
                                     : "sim.packet_latency";
}

/// Deterministic text form of an injection rate for label sets / CSV.
std::string format_rate(double rate) {
  std::ostringstream os;
  os << rate;
  return os.str();
}

obs::LabelSet cell_labels(const TrialSpec& spec) {
  return {{"model", fault_model_name(spec.model)},
          {"rate", format_rate(spec.rate)},
          {"faults", std::to_string(spec.fault_count)}};
}

std::vector<char> static_fault_mask(const CampaignConfig& config,
                                    const TrialSpec& spec,
                                    const std::vector<std::uint32_t>& ranking,
                                    std::uint32_t num_nodes) {
  if (spec.fault_count == 0) return {};
  std::vector<char> mask(num_nodes, 0);
  if (spec.model == FaultModel::kAdversarial) {
    HBNET_CHECK(spec.fault_count <= ranking.size());
    for (unsigned i = 0; i < spec.fault_count; ++i) mask[ranking[i]] = 1;
  } else {
    const std::uint64_t fault_seed =
        split_seed(config.seed, spec.index, kStreamFaults);
    for (std::uint32_t id :
         derived_fault_nodes(fault_seed, num_nodes, spec.fault_count)) {
      mask[id] = 1;
    }
  }
  return mask;
}

/// kEvents schedule: `fault_count` node deaths at cycles spread evenly
/// through the measurement window, nodes drawn from the fault stream.
std::vector<FaultEvent> fault_event_schedule(const CampaignConfig& config,
                                             const TrialSpec& spec,
                                             std::uint32_t num_nodes) {
  std::vector<FaultEvent> events;
  if (spec.fault_count == 0) return events;
  const std::uint64_t fault_seed =
      split_seed(config.seed, spec.index, kStreamFaults);
  const std::vector<std::uint32_t> nodes =
      derived_fault_nodes(fault_seed, num_nodes, spec.fault_count);
  events.reserve(nodes.size());
  for (unsigned e = 0; e < nodes.size(); ++e) {
    FaultEvent ev;
    ev.cycle = config.sim.warmup_cycles +
               ((e + 1) * config.sim.measure_cycles) / (spec.fault_count + 1);
    ev.node = nodes[e];
    events.push_back(ev);
  }
  return events;
}

void run_trial(const SimTopology& topo, const CampaignConfig& config,
               const TrialSpec& spec,
               const std::vector<std::uint32_t>& ranking, obs::Sink& sink,
               TrialResult& out) {
  out.spec = spec;
  if (config.engine == Engine::kWormhole) {
    WormholeConfig cfg = config.wormhole;
    cfg.injection_rate = spec.rate;
    cfg.seed = spec.seed;
    WormholeFaults wf;
    if (spec.fault_count > 0) {
      if (spec.model == FaultModel::kLinks) {
        wf.links = derived_fault_links(
            split_seed(config.seed, spec.index, kStreamFaults), topo,
            spec.fault_count);
      } else {
        wf.nodes = static_fault_mask(config, spec, ranking, topo.num_nodes());
      }
    }
    // The butterfly level coordinate is node id mod n (the dateline ring
    // arity), exactly as the CLI wormhole command passes it.
    const WormholeStats s =
        run_wormhole(topo, cfg, config.n, wf.any() ? &wf : nullptr, &sink);
    out.injected = s.packets.injected();
    out.delivered = s.packets.delivered();
    out.dropped = s.packets.dropped();
    out.deadlocked = s.deadlocked;
    return;
  }
  SimConfig cfg = config.sim;
  cfg.injection_rate = spec.rate;
  cfg.seed = spec.seed;
  SimStats s;
  if (spec.model == FaultModel::kEvents) {
    s = run_simulation_with_fault_events(
        topo, cfg, fault_event_schedule(config, spec, topo.num_nodes()),
        &sink);
  } else {
    s = run_simulation(
        topo, cfg, static_fault_mask(config, spec, ranking, topo.num_nodes()),
        &sink);
  }
  out.injected = s.injected();
  out.delivered = s.delivered();
  out.dropped = s.dropped();
}

}  // namespace

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::kRandom:
      return "random";
    case FaultModel::kAdversarial:
      return "adversarial";
    case FaultModel::kEvents:
      return "events";
    case FaultModel::kLinks:
      return "links";
  }
  return "?";
}

std::optional<FaultModel> fault_model_from_name(std::string_view name) {
  if (name == "random") return FaultModel::kRandom;
  if (name == "adversarial") return FaultModel::kAdversarial;
  if (name == "events") return FaultModel::kEvents;
  if (name == "links") return FaultModel::kLinks;
  return std::nullopt;
}

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kStoreForward:
      return "sf";
    case Engine::kWormhole:
      return "wormhole";
  }
  return "?";
}

std::optional<Engine> engine_from_name(std::string_view name) {
  if (name == "sf") return Engine::kStoreForward;
  if (name == "wormhole") return Engine::kWormhole;
  return std::nullopt;
}

std::uint64_t split_seed(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t stream) {
  // SplitMix64 finalizer over a linear combination of the coordinates; the
  // odd multipliers make (index, stream) -> input injective enough that
  // every trial/stream pair lands in its own statistical neighborhood.
  std::uint64_t z = seed;
  z += 0x9e3779b97f4a7c15ull * (index + 1);
  z += 0xbf58476d1ce4e5b9ull * (stream + 1);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

std::vector<std::uint32_t> derived_fault_nodes(std::uint64_t fault_seed,
                                               std::uint32_t num_nodes,
                                               unsigned count) {
  HBNET_CHECK(count < num_nodes);
  // A partial Fisher-Yates shuffle of the ids 0..num_nodes-1, kept sparse:
  // position i holds i unless it appears in `displaced` as (i, value).
  // Step e swaps positions e and j >= e and never reads position e again,
  // so only the value moved to j has to be remembered.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> displaced;
  auto at = [&](std::uint32_t i) {
    for (const auto& [pos, value] : displaced) {
      if (pos == i) return value;
    }
    return i;
  };
  std::vector<std::uint32_t> picked;
  picked.reserve(count);
  for (unsigned e = 0; e < count; ++e) {
    const std::uint64_t r = split_seed(fault_seed, e, kStreamShuffle);
    const std::uint32_t j =
        e + static_cast<std::uint32_t>(r % (num_nodes - e));
    const std::uint32_t moved = at(e);
    picked.push_back(at(j));
    auto it = std::find_if(displaced.begin(), displaced.end(),
                           [&](const auto& d) { return d.first == j; });
    if (it != displaced.end()) {
      it->second = moved;
    } else {
      displaced.emplace_back(j, moved);
    }
  }
  return picked;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> derived_fault_links(
    std::uint64_t fault_seed, const SimTopology& topo, unsigned count) {
  // Distinct sources guarantee distinct directed links even when two picks
  // land on the same neighbor index.
  const std::vector<std::uint32_t> srcs =
      derived_fault_nodes(fault_seed, topo.num_nodes(), count);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  links.reserve(srcs.size());
  for (unsigned e = 0; e < srcs.size(); ++e) {
    const std::vector<std::uint32_t> nbrs = topo.neighbors(srcs[e]);
    HBNET_CHECK_MSG(!nbrs.empty(),
                    "derived_fault_links: topology exposes no adjacency");
    const std::uint64_t r = split_seed(fault_seed, e, kStreamLinkPick);
    links.emplace_back(srcs[e],
                       nbrs[static_cast<std::size_t>(r % nbrs.size())]);
  }
  return links;
}

std::vector<std::uint32_t> adversarial_fault_ranking(unsigned m, unsigned n) {
  const HyperButterfly hb(m, n);
  const Graph g = hb.to_graph();
  const NodeId num = g.num_nodes();

  // Candidate cuts mirror hb_dimension_cuts (analysis/cuts): one per cube
  // bit, one per butterfly word bit, and the level-half split. Keep the
  // narrowest *balanced* one -- the empirical bisection bottleneck.
  std::vector<char> best_side;
  std::uint64_t best_width = ~std::uint64_t{0};
  auto consider = [&](auto&& pred) {
    std::vector<char> side(num);
    NodeId ones = 0;
    for (NodeId v = 0; v < num; ++v) {
      side[v] = pred(hb.node_at(v)) ? 1 : 0;
      ones += side[v];
    }
    const bool balanced = (2 * static_cast<std::uint64_t>(ones) + 1 >= num) &&
                          (2 * static_cast<std::uint64_t>(ones) <= num + 1);
    if (!balanced) return;
    const std::uint64_t width = cut_width(g, side);
    if (width < best_width) {
      best_width = width;
      best_side = std::move(side);
    }
  };
  for (unsigned i = 0; i < hb.cube_dimension(); ++i) {
    consider([i](const HbNode& v) { return (v.cube >> i) & 1u; });
  }
  for (unsigned j = 0; j < hb.butterfly_dimension(); ++j) {
    consider([j](const HbNode& v) { return (v.bfly.word >> j) & 1u; });
  }
  const unsigned half = hb.butterfly_dimension() / 2;
  consider([half](const HbNode& v) { return v.bfly.level < half; });
  HBNET_CHECK_MSG(!best_side.empty(),
                  "adversarial_fault_ranking: no balanced dimension cut");

  // Rank nodes by how many crossing edges they touch; nodes clear of the
  // cut follow in id order so every prefix length below num_nodes is a
  // valid fault set.
  std::vector<std::uint64_t> crossing(num, 0);
  for (NodeId u = 0; u < num; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v && best_side[u] != best_side[v]) {
        ++crossing[u];
        ++crossing[v];
      }
    }
  }
  std::vector<std::uint32_t> order(num);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (crossing[a] != crossing[b]) return crossing[a] > crossing[b];
              return a < b;
            });
  return order;
}

std::vector<TrialSpec> enumerate_trials(const CampaignConfig& config) {
  if (config.models.empty() || config.rates.empty() ||
      config.fault_counts.empty() || config.trials == 0) {
    throw std::invalid_argument(
        "campaign: models/rates/fault_counts/trials must all be non-empty");
  }
  for (double r : config.rates) {
    if (!(r > 0.0) || r > 1.0) {
      throw std::invalid_argument(
          "campaign: injection rates must lie in (0, 1]");
    }
  }
  if (config.engine == Engine::kWormhole) {
    // Caught here so the failure is a clean exception on the calling
    // thread; run_wormhole's own throw would escape a pool worker. The
    // validator derives the per-policy VC minimum from vc_classes(), so a
    // config whose vcs undercuts its policy (e.g. the WormholeConfig{}
    // default vcs = 2 with any dateline policy) gets a self-explanatory
    // message.
    if (const std::string err = validate_wormhole_config(config.wormhole);
        !err.empty()) {
      throw std::invalid_argument("campaign: " + err);
    }
  }
  // Validates m/n too (the constructor throws on an invalid instance).
  const HyperButterfly hb(config.m, config.n);
  bool any_faults = false;
  for (unsigned k : config.fault_counts) {
    if (k >= hb.num_nodes()) {
      throw std::invalid_argument(
          "campaign: fault count must be below num_nodes");
    }
    any_faults = any_faults || k != 0;
  }
  // Engine/model compatibility, still on the calling thread: a simulator
  // throw inside a pool worker would terminate the process.
  for (FaultModel model : config.models) {
    if (config.engine == Engine::kWormhole && model == FaultModel::kEvents) {
      throw std::invalid_argument(
          "campaign: the events fault model is store-and-forward only; the "
          "wormhole engine takes static node (random/adversarial) or links "
          "faults");
    }
    if (config.engine == Engine::kStoreForward &&
        model == FaultModel::kLinks) {
      throw std::invalid_argument(
          "campaign: the links fault model is wormhole-only (the "
          "store-and-forward engine models node faults)");
    }
  }
  if (config.engine == Engine::kWormhole && any_faults &&
      config.wormhole.policy != VcPolicy::kFaultAdaptive) {
    throw std::invalid_argument(
        "campaign: wormhole fault injection requires the 'adaptive' VC "
        "policy (its online re-planner needs the reserved escape class; "
        "set wormhole.policy = VcPolicy::kFaultAdaptive with vcs >= " +
        std::to_string(vc_classes(VcPolicy::kFaultAdaptive)) + ")");
  }

  std::vector<TrialSpec> specs;
  specs.reserve(config.models.size() * config.rates.size() *
                config.fault_counts.size() * config.trials);
  std::uint64_t index = 0;
  for (FaultModel model : config.models) {
    for (double rate : config.rates) {
      for (unsigned k : config.fault_counts) {
        for (unsigned repeat = 0; repeat < config.trials; ++repeat) {
          TrialSpec spec;
          spec.index = index;
          spec.model = model;
          spec.rate = rate;
          spec.fault_count = k;
          spec.repeat = repeat;
          spec.seed = split_seed(config.seed, index, kStreamSimSeed);
          specs.push_back(spec);
          ++index;
        }
      }
    }
  }
  return specs;
}

CampaignResult run_campaign(const CampaignConfig& config,
                            obs::ProgressBoard* progress) {
  const std::vector<TrialSpec> specs = enumerate_trials(config);

  std::vector<std::uint32_t> ranking;
  const bool wants_adversarial = std::any_of(
      specs.begin(), specs.end(), [](const TrialSpec& s) {
        return s.model == FaultModel::kAdversarial && s.fault_count > 0;
      });
  if (wants_adversarial) {
    ranking = adversarial_fault_ranking(config.m, config.n);
  }

  par::ThreadPool pool(config.threads);
  // One topology adapter per worker: route_avoiding fills the adapter's
  // Theorem-5 planner memo and lazily materializes the butterfly-layer
  // graph, so adapters must not be shared across threads. Memo contents
  // never change a result, so the per-worker warm-up order is invisible.
  std::vector<std::unique_ptr<SimTopology>> topos;
  topos.reserve(pool.size());
  for (unsigned w = 0; w < pool.size(); ++w) {
    topos.push_back(make_hyper_butterfly_sim(config.m, config.n));
  }

  // Live progress slots, resolved up front so workers only do relaxed
  // atomic adds. Per-cell drop slots share the metrics key convention
  // (campaign.dropped{model=...,rate=...,faults=...}); cell index =
  // spec.index / trials because repeats are the innermost enumeration
  // axis.
  obs::ProgressBoard::Slot* prog_done = nullptr;
  obs::ProgressBoard::Slot* prog_injected = nullptr;
  obs::ProgressBoard::Slot* prog_delivered = nullptr;
  obs::ProgressBoard::Slot* prog_dropped = nullptr;
  obs::ProgressBoard::Slot* prog_deadlocks = nullptr;
  std::vector<obs::ProgressBoard::Slot*> cell_dropped;
  if (progress != nullptr) {
    progress->slot("campaign.trials_total").set(specs.size());
    prog_done = &progress->slot("campaign.trials_done");
    prog_injected = &progress->slot("campaign.injected");
    prog_delivered = &progress->slot("campaign.delivered");
    prog_dropped = &progress->slot("campaign.dropped");
    prog_deadlocks = &progress->slot("campaign.deadlocks");
    cell_dropped.resize(specs.size() / config.trials, nullptr);
    for (const TrialSpec& spec : specs) {
      if (spec.repeat == 0) {
        cell_dropped[spec.index / config.trials] = &progress->slot(
            obs::MetricsRegistry::key_of("campaign.dropped",
                                         cell_labels(spec)));
      }
    }
  }

  // Parallel phase: every trial is a pure function of its spec and writes
  // only its own slots, so scheduling cannot perturb the outcome. The
  // progress adds and flight-recorder events happen in completion order
  // -- they are display/postmortem channels, not results.
  std::vector<TrialResult> results(specs.size());
  std::vector<obs::Sink> sinks(specs.size());
  pool.parallel_for_chunks(
      specs.size(), 1,
      [&](unsigned worker, std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t i = begin; i < end; ++i) {
          obs::FlightRecorder::record(
              "trial_start", specs[i].index,
              static_cast<std::uint64_t>(specs[i].model),
              specs[i].fault_count);
          run_trial(*topos[worker], config, specs[i], ranking, sinks[i],
                    results[i]);
          obs::FlightRecorder::record("trial_finish", specs[i].index,
                                      results[i].delivered,
                                      results[i].dropped);
          if (progress != nullptr) {
            prog_done->add(1);
            prog_injected->add(results[i].injected);
            prog_delivered->add(results[i].delivered);
            prog_dropped->add(results[i].dropped);
            if (results[i].deadlocked) prog_deadlocks->add(1);
            cell_dropped[specs[i].index / config.trials]->add(
                results[i].dropped);
          }
        }
      });

  // Serial reduction in trial order. Gauges describing a stuck state fold
  // with max ("did any trial deadlock"), per-trial unroutable-worm counts
  // fold with sum; everything else keeps the incoming value, which equals
  // last-trial-wins under this order.
  CampaignResult out;
  obs::MergeOptions merge_options;
  merge_options.gauge_policy = [](const std::string& key) {
    if (key.find(".deadlocked") != std::string::npos) {
      return obs::GaugeMerge::kMax;
    }
    if (key.find(".unroutable") != std::string::npos) {
      return obs::GaugeMerge::kSum;
    }
    return obs::GaugeMerge::kLast;
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    merge_options.extra_labels = cell_labels(specs[i]);
    out.metrics.merge(sinks[i].metrics(), merge_options);
  }

  std::uint64_t injected = 0, delivered = 0, dropped = 0, deadlocks = 0;
  for (const TrialResult& r : results) {
    injected += r.injected;
    delivered += r.delivered;
    dropped += r.dropped;
    deadlocks += r.deadlocked ? 1 : 0;
  }
  out.metrics.counter("campaign.trials").inc(specs.size());
  out.metrics.counter("campaign.injected").inc(injected);
  out.metrics.counter("campaign.delivered").inc(delivered);
  out.metrics.counter("campaign.dropped").inc(dropped);
  out.metrics.counter("campaign.deadlocks").inc(deadlocks);

  // Cell table: one row per grid cell in enumeration order; latency
  // quantiles come from the merged per-cell histogram.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TrialSpec& spec = specs[i];
    if (spec.repeat == 0) {
      CellSummary cell;
      cell.model = spec.model;
      cell.rate = spec.rate;
      cell.fault_count = spec.fault_count;
      out.cells.push_back(cell);
    }
    CellSummary& cell = out.cells.back();
    ++cell.trials;
    cell.injected += results[i].injected;
    cell.delivered += results[i].delivered;
    cell.dropped += results[i].dropped;
    if (spec.repeat + 1 == config.trials) {
      const obs::Histogram* h = out.metrics.find_histogram(
          latency_metric(config.engine), cell_labels(spec));
      if (h != nullptr) {
        cell.latency_p50 = h->percentile(0.5);
        cell.latency_p99 = h->percentile(0.99);
        cell.latency_max = h->max();
        cell.latency_mean = h->mean();
      }
    }
  }
  out.trials = std::move(results);
  return out;
}

void write_campaign_csv(std::ostream& os, const CampaignResult& result) {
  os << "model,rate,faults,trials,injected,delivered,dropped,p50,p99,max,"
        "mean_latency\n";
  for (const CellSummary& c : result.cells) {
    os << fault_model_name(c.model) << ',' << format_rate(c.rate) << ','
       << c.fault_count << ',' << c.trials << ',' << c.injected << ','
       << c.delivered << ',' << c.dropped << ',' << c.latency_p50 << ','
       << c.latency_p99 << ',' << c.latency_max << ',' << c.latency_mean
       << '\n';
  }
}

void write_campaign_table(std::ostream& os, const CampaignResult& result) {
  os << std::setw(12) << "model" << std::setw(8) << "rate" << std::setw(8)
     << "faults" << std::setw(8) << "trials" << std::setw(10) << "injected"
     << std::setw(10) << "delivered" << std::setw(9) << "dropped"
     << std::setw(6) << "p50" << std::setw(6) << "p99" << std::setw(6)
     << "max" << "\n";
  for (const CellSummary& c : result.cells) {
    os << std::setw(12) << fault_model_name(c.model) << std::setw(8)
       << format_rate(c.rate) << std::setw(8) << c.fault_count << std::setw(8)
       << c.trials << std::setw(10) << c.injected << std::setw(10)
       << c.delivered << std::setw(9) << c.dropped << std::setw(6)
       << c.latency_p50 << std::setw(6) << c.latency_p99 << std::setw(6)
       << c.latency_max << "\n";
  }
}

}  // namespace hbnet::campaign

// The five benchmark workloads. Each builds its inputs from the benchmark
// seed alone (traffic seeds, fault sets and the campaign seed all derive
// from it through campaign::split_seed), calls one hbnet engine, and checks
// the result: conservation after drain, no deadlock, zero drops and zero
// unroutable worms at <= m+3 static faults, kappa == m+4 with a complete
// proof. Sizes were chosen so one call takes well under a second to a few
// seconds at 4 threads; see README.md for the reasoning per workload.
#include <algorithm>
#include <bit>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "core/hyper_butterfly.hpp"
#include "graph/connectivity_sweep.hpp"
#include "graph/sparsify.hpp"
#include "obs/progress.hpp"
#include "obs/sink.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "sim/wormhole.hpp"
#include "topology/hb_implicit.hpp"

namespace hbbench {
namespace {

namespace camp = hbnet::campaign;

constexpr double kRate = 0.05;  // below saturation on every instance here

// Independent streams of the benchmark seed (campaign::split_seed).
constexpr std::uint64_t kStreamTraffic = 0;
constexpr std::uint64_t kStreamFaults = 1;
constexpr std::uint64_t kStreamCampaign = 2;

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return camp::split_seed(seed, 0, stream);
}

/// m+3 distinct fault nodes of HB(m,n), derived from the seed: the largest
/// fault set Theorem 5 / Remark 10 promise to route around.
std::vector<std::uint32_t> max_tolerated_faults(std::uint64_t seed, unsigned m,
                                                unsigned n) {
  const hbnet::HyperButterfly hb(m, n);
  return camp::derived_fault_nodes(derive(seed, kStreamFaults),
                                   static_cast<std::uint32_t>(hb.num_nodes()),
                                   m + 3);
}

void add_stats(Digest& d, const hbnet::SimStats& s) {
  d.add(s.injected()).add(s.delivered()).add(s.dropped()).add(s.max_latency());
  d.add(std::bit_cast<std::uint64_t>(s.mean_hops()));
  s.latency_histogram().for_each_bucket(
      [&](std::uint64_t lo, std::uint64_t, std::uint64_t count) {
        d.add(lo).add(count);
      });
}

std::uint64_t digest_of(const hbnet::SimStats& s) {
  Digest d;
  add_stats(d, s);
  return d.value();
}

std::string str(std::uint64_t v) { return std::to_string(v); }

/// injected == delivered + dropped after drain. Break::kConservation
/// expects one packet more than was injected, to prove the check bites.
void check_conservation(const std::string& what, std::uint64_t injected,
                        std::uint64_t delivered, std::uint64_t dropped,
                        Break broken, RunResult& r) {
  const std::uint64_t expected =
      delivered + dropped + (broken == Break::kConservation ? 1 : 0);
  if (injected != expected) {
    r.fail(what + ": conservation violated: injected " + str(injected) +
           " != delivered " + str(delivered) + " + dropped " + str(dropped) +
           (broken == Break::kConservation ? " + 1 (--break conservation)"
                                           : ""));
  }
}

void fill_sim(const hbnet::SimStats& s, RunResult& r) {
  r.simulated = true;
  r.latency_p50 = s.latency_percentile(0.5);
  r.latency_p99 = s.latency_percentile(0.99);
  r.injected = s.injected();
  r.delivered = s.delivered();
  r.dropped = s.dropped();
}

std::uint64_t counter(const hbnet::obs::MetricsRegistry& reg,
                      const std::string& name) {
  const hbnet::obs::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// A gauge from the registry's JSON export (the registry has no gauge
/// lookup that does not create the instrument).
double gauge(const hbnet::obs::MetricsRegistry& reg, const std::string& name) {
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::stod(json.substr(at + key.size()));
}

// ---------------------------------------------------------------- sf-*

/// run_simulation_sharded on HB(m,n), uniform traffic, fault free.
class ShardedWorkload final : public Workload {
 public:
  struct Shape {
    const char* name;
    unsigned m, n;
    unsigned shards;  // 0 = one per pool thread
    std::uint64_t warmup, measure;
    bool board;          // observe through a ProgressBoard, not a Sink
    bool pin_one_thread; // final check: digest equals a 1-thread run
  };

  ShardedWorkload(Shape shape, const Options& opts)
      : shape_(shape), opts_(opts) {}

  std::string name() const override { return shape_.name; }
  std::string obs_surface() const override {
    // A Sink's per-link table at 1.8M nodes x 7 links is ~1 GB, so the
    // million-node workload observes through the live progress board.
    return shape_.board ? "obs::ProgressBoard" : "obs::Sink";
  }
  std::string op_unit() const override { return "packet-hops"; }

  void setup() override {
    hb_.emplace(shape_.m, shape_.n);
    cfg_ = hbnet::SimConfig{};
    cfg_.injection_rate = kRate;
    cfg_.warmup_cycles = shape_.warmup;
    cfg_.measure_cycles = shape_.measure;
    cfg_.drain_cycles = 4000;  // an upper bound; the engine stops when empty
    cfg_.seed = derive(opts_.seed, kStreamTraffic);
  }

  RunResult run(bool observed) override {
    hbnet::SimStats s;
    if (!observed) {
      s = hbnet::run_simulation_sharded(*hb_, cfg_, shape_.shards,
                                        opts_.threads);
    } else if (shape_.board) {
      hbnet::obs::ProgressBoard board;
      s = hbnet::run_simulation_sharded(*hb_, cfg_, shape_.shards,
                                        opts_.threads, nullptr, &board);
      cycles_ = board.slot("sim.cycle").value() + 1;
    } else {
      hbnet::obs::Sink sink;
      s = hbnet::run_simulation_sharded(*hb_, cfg_, shape_.shards,
                                        opts_.threads, &sink);
      cycles_ = sink.run_cycles();
    }
    return result(s);
  }

  void final_checks(std::uint64_t digest, RunResult& into) override {
    if (!shape_.pin_one_thread) return;
    // threads x shards byte identity, pinned from outside the engine.
    into.attempted += 1;
    const hbnet::SimStats s =
        hbnet::run_simulation_sharded(*hb_, cfg_, shape_.shards, 1);
    if (digest_of(s) != digest) {
      into.failed += 1;
      into.errors.push_back(name() + ": 1-thread digest differs from the " +
                            str(opts_.threads) + "-thread digest");
    }
  }

  void layer_metrics(Spans&, double run_s, MetricTable& out) override {
    const double hops = last_.work;
    out.set("engine.cycles", static_cast<double>(cycles_), "count");
    out.set("engine.moves", hops, "count");
    out.set("par.rounds", 2.0 * static_cast<double>(cycles_), "count");
    out.set("sharded.ns_per_hop", run_s / hops * 1e9, "ns");
    out.set("sharded.injected", static_cast<double>(last_.injected), "count");
    out.set("sharded.delivered", static_cast<double>(last_.delivered),
            "count");
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.m = shape_.m;
    in.n = shape_.n;
    in.threads = opts_.threads;
    in.shards = shape_.shards == 0 ? opts_.threads : shape_.shards;
    in.seed = opts_.seed;
    in.rate = kRate;
    in.faults = max_tolerated_faults(opts_.seed, shape_.m, shape_.n);
    in.volume = cycles_ == 0 ? 1
                             : static_cast<std::uint64_t>(last_.work) /
                                   cycles_;
    return in;
  }

 private:
  RunResult result(const hbnet::SimStats& s) {
    RunResult r;
    r.digest = digest_of(s);
    fill_sim(s, r);
    r.work = static_cast<double>(s.delivered()) * s.mean_hops();
    check_conservation(name(), s.injected(), s.delivered(), s.dropped(),
                       opts_.broken, r);
    if (s.dropped() != 0) {
      r.fail(name() + ": " + str(s.dropped()) + " drops on a fault-free run");
    }
    if (s.delivered() == 0) r.fail(name() + ": nothing delivered");
    last_ = r;
    return r;
  }

  Shape shape_;
  Options opts_;
  std::optional<hbnet::HyperButterfly> hb_;
  hbnet::SimConfig cfg_;
  RunResult last_;
  std::uint64_t cycles_ = 0;
};

// ------------------------------------------------------- wormhole-faults

/// run_wormhole on HB(3,5), fault-adaptive VCs, m+3 static node faults.
class WormholeWorkload final : public Workload {
 public:
  explicit WormholeWorkload(const Options& opts) : opts_(opts) {}

  std::string name() const override { return "wormhole-faults"; }
  std::string obs_surface() const override { return "obs::Sink"; }
  std::string op_unit() const override { return "flit-hops"; }
  bool single_threaded() const override { return true; }

  void setup() override {
    topo_ = hbnet::make_hyper_butterfly_sim(kM, kN);
    faults_.nodes.assign(topo_->num_nodes(), 0);
    for (const std::uint32_t v : max_tolerated_faults(opts_.seed, kM, kN)) {
      faults_.nodes[v] = 1;
    }
    cfg_ = hbnet::WormholeConfig{};
    cfg_.vcs = hbnet::vc_classes(hbnet::VcPolicy::kFaultAdaptive);
    cfg_.policy = hbnet::VcPolicy::kFaultAdaptive;
    cfg_.injection_rate = kRate;
    cfg_.warmup_cycles = 100;
    cfg_.measure_cycles = 1200;
    cfg_.seed = derive(opts_.seed, kStreamTraffic);
  }

  RunResult run(bool observed) override {
    hbnet::obs::Sink sink;
    // The level coordinate is node id mod n: the dateline ring arity.
    const hbnet::WormholeStats s = hbnet::run_wormhole(
        *topo_, cfg_, kN, &faults_, observed ? &sink : nullptr);
    if (observed) {
      flits_forwarded_ = counter(sink.metrics(), "wormhole.flits_forwarded");
    }
    RunResult r;
    Digest d;
    add_stats(d, s.packets);
    d.add(s.deadlocked ? 1 : 0).add(s.cycles).add(s.misroutes);
    d.add(s.escape_hops).add(s.unroutable);
    r.digest = d.value();
    fill_sim(s.packets, r);
    r.work = static_cast<double>(s.packets.delivered()) *
             s.packets.mean_hops() * cfg_.flits_per_packet;
    check_conservation(name(), s.packets.injected(), s.packets.delivered(),
                       s.packets.dropped(), opts_.broken, r);
    if (s.deadlocked) r.fail(name() + ": deadlock detected");
    if (s.packets.dropped() != 0 || s.unroutable != 0) {
      r.fail(name() + ": " + str(s.packets.dropped()) + " drops and " +
             str(s.unroutable) + " unroutable worms at m+3 faults");
    }
    if (s.packets.delivered() == 0) r.fail(name() + ": nothing delivered");
    last_ = s;
    return r;
  }

  void layer_metrics(Spans&, double run_s, MetricTable& out) override {
    const double flit_hops = static_cast<double>(flits_forwarded_);
    out.set("engine.cycles", static_cast<double>(last_.cycles), "count");
    out.set("engine.moves", flit_hops, "count");
    out.set("par.rounds", 0, "count");
    out.set("wormhole.ns_per_flit_hop", run_s / flit_hops * 1e9, "ns");
    out.set("wormhole.misroutes", static_cast<double>(last_.misroutes),
            "count");
    out.set("wormhole.escape_hops", static_cast<double>(last_.escape_hops),
            "count");
    out.set("wormhole.unroutable", static_cast<double>(last_.unroutable),
            "count");
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.m = kM;
    in.n = kN;
    in.threads = opts_.threads;
    in.shards = opts_.threads;
    in.seed = opts_.seed;
    in.rate = kRate;
    in.faults = max_tolerated_faults(opts_.seed, kM, kN);
    in.volume = last_.cycles == 0 ? 1 : flits_forwarded_ / last_.cycles;
    return in;
  }

 private:
  static constexpr unsigned kM = 3, kN = 5;
  Options opts_;
  std::unique_ptr<hbnet::SimTopology> topo_;
  hbnet::WormholeFaults faults_;
  hbnet::WormholeConfig cfg_;
  hbnet::WormholeStats last_;
  std::uint64_t flits_forwarded_ = 0;
};

// ------------------------------------------------------------------ kappa

/// ConnectivitySweep proving kappa(HB(5,6)) = 9 on the implicit adjacency
/// with sparse certificates and the cube-orbit target schedule. The input
/// is fixed: the seed only picks which targets the traced split-solve
/// probe samples.
class KappaWorkload final : public Workload {
 public:
  explicit KappaWorkload(const Options& opts) : opts_(opts) {}

  std::string name() const override { return "kappa"; }
  std::string obs_surface() const override {
    return "obs::MetricsRegistry";
  }
  std::string op_unit() const override { return "max-flow solves"; }

  void setup() override {
    adj_.emplace(kM, kN);
    base_ = hbnet::SweepOptions{};
    base_.threads = opts_.threads;
    base_.vertex_transitive = true;  // Cayley graph: single source is exact
    base_.sparsify = true;
    base_.orbit_rep = [](hbnet::NodeId v) {
      return hbnet::hb_cube_orbit_representative(kM, kN, v);
    };
  }

  RunResult run(bool observed) override {
    hbnet::SweepOptions opts = base_;
    hbnet::obs::MetricsRegistry reg;
    Clock::time_point last = Clock::now();
    if (observed) {
      blocks_ = 0;
      block_s_.clear();
      opts.metrics = &reg;
      opts.on_block = [&](const hbnet::SweepState&, std::uint32_t) {
        block_s_.push_back(seconds_since(last));
        last = Clock::now();
        ++blocks_;
      };
    }
    hbnet::ConnectivitySweep sweep(*adj_, opts);
    const hbnet::ExactConnectivityResult res = sweep.run();
    if (observed) {
      cert_edges_ = gauge(reg, "connectivity.cert_edges");
      arena_arcs_peak_ = gauge(reg, "connectivity.arena_arcs_peak");
    }
    RunResult r;
    r.digest = Digest()
                   .add(res.kappa)
                   .add(res.complete ? 1 : 0)
                   .add(res.stages)
                   .add(res.solves)
                   .add(res.pruned)
                   .value();
    r.work = static_cast<double>(res.solves);
    const unsigned expected = expected_kappa();
    if (!res.complete || res.kappa != expected) {
      r.fail("kappa: proved " + str(res.kappa) +
             (res.complete ? "" : " (incomplete)") + ", expected " +
             str(expected) +
             (opts_.broken == Break::kKappa ? " (--break kappa)" : ""));
    }
    last_ = res;
    return r;
  }

  void layer_metrics(Spans& spans, double, MetricTable& out) override {
    out.set("graph.solves", static_cast<double>(last_.solves), "count");
    out.set("graph.pruned", static_cast<double>(last_.pruned), "count");
    out.set("graph.cert_edges", cert_edges_, "count");
    out.set("graph.arena_arcs_peak", arena_arcs_peak_, "count");
    out.set("par.rounds", static_cast<double>(blocks_), "count");
    out.set("graph.block_s", median_or_zero(block_s_), "s", block_s_.size());

    // The schedule's targets: non-neighbors of source 0 that are their own
    // cube-orbit representative.
    std::vector<hbnet::NodeId> targets;
    {
      auto span = spans.open("topology.hb_cube_orbit_representative");
      std::vector<hbnet::NodeId> scratch(kM + 4);
      const auto nb = adj_->neighbors(0, scratch.data());
      for (hbnet::NodeId t = 1; t < adj_->num_nodes(); ++t) {
        if (std::find(nb.begin(), nb.end(), t) != nb.end()) continue;
        if (hbnet::hb_cube_orbit_representative(kM, kN, t) == t) {
          targets.push_back(t);
        }
      }
      span.set_calls(adj_->num_nodes());
    }
    out.set("graph.orbit_targets", static_cast<double>(targets.size()),
            "count");

    std::vector<double> proto_s, cert_s;
    std::optional<hbnet::SparseCertificate> cert;
    for (int i = 0; i < 3; ++i) {
      {
        auto span = spans.open("graph.make_split_prototype");
        const Clock::time_point t0 = Clock::now();
        const hbnet::Dinic full = hbnet::detail::make_split_prototype(*adj_);
        proto_s.push_back(seconds_since(t0));
      }
      auto span = spans.open("graph.sparse_certificate");
      const Clock::time_point t0 = Clock::now();
      cert.emplace(hbnet::sparse_certificate(*adj_, kM + 4));
      cert_s.push_back(seconds_since(t0));
    }
    out.set("graph.prototype_s", median(proto_s), "s", proto_s.size());
    out.set("graph.certificate_s", median(cert_s), "s", cert_s.size());

    // Split solves on the certificate, as the sweep runs them, on a
    // seed-chosen sample of the schedule's targets.
    hbnet::Dinic net = hbnet::detail::make_split_prototype(cert->graph);
    std::vector<double> solve_us;
    const std::size_t samples = std::min<std::size_t>(targets.size(), 256);
    wrong_ = 0;
    for (std::size_t i = 0; i < samples; ++i) {
      const hbnet::NodeId t = targets[camp::split_seed(opts_.seed, i, 3) %
                                      targets.size()];
      auto span = spans.open("graph.split_solve");
      const Clock::time_point t0 = Clock::now();
      const std::int64_t flow = hbnet::detail::split_solve(net, 0, t, kM + 4);
      solve_us.push_back(seconds_since(t0) * 1e6);
      if (flow != static_cast<std::int64_t>(expected_kappa())) ++wrong_;
    }
    sampled_ = samples;
    out.set("graph.split_solve_us_p50", quantile(solve_us, 0.5), "us",
            solve_us.size());
    out.set("graph.split_solve_us_max", quantile(solve_us, 1.0), "us",
            solve_us.size());
  }

  void final_checks(std::uint64_t, RunResult& into) override {
    if (sampled_ == 0) return;
    into.attempted += 1;
    if (wrong_ != 0) {
      into.failed += 1;
      into.errors.push_back("kappa: " + str(wrong_) + " of " + str(sampled_) +
                            " sampled split solves did not return " +
                            str(expected_kappa()));
    }
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.m = kM;
    in.n = kN;
    in.threads = opts_.threads;
    in.shards = opts_.threads;
    in.seed = opts_.seed;
    in.rate = kRate;
    in.faults = max_tolerated_faults(opts_.seed, kM, kN);
    in.volume = adj_->num_nodes();  // no cycles: one message per vertex
    return in;
  }

 private:
  static double median_or_zero(const std::vector<double>& v) {
    return v.empty() ? 0 : median(v);
  }
  /// m+4; Break::kKappa expects one more, to prove the checks bite.
  unsigned expected_kappa() const {
    return kM + 4 + (opts_.broken == Break::kKappa ? 1 : 0);
  }

  static constexpr unsigned kM = 5, kN = 6;
  Options opts_;
  std::optional<hbnet::HbImplicitAdjacency> adj_;
  hbnet::SweepOptions base_;
  hbnet::ExactConnectivityResult last_;
  std::uint64_t blocks_ = 0;
  std::vector<double> block_s_;
  double cert_edges_ = 0, arena_arcs_peak_ = 0;
  std::size_t sampled_ = 0;  // split solves checked by the traced run
  std::uint64_t wrong_ = 0;  // of those, solves not returning kappa
};

// --------------------------------------------------------------- campaign

/// run_campaign on HB(2,4), store-and-forward engine, models random /
/// adversarial / events x faults {0, m+3, m+4} x 4 repeats = 36 trials.
class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Options& opts) : opts_(opts) {}

  std::string name() const override { return "campaign"; }
  std::string obs_surface() const override { return "obs::ProgressBoard"; }
  std::string op_unit() const override { return "delivered packets"; }

  void setup() override {
    cfg_ = camp::CampaignConfig{};
    cfg_.m = kM;
    cfg_.n = kN;
    cfg_.engine = camp::Engine::kStoreForward;
    cfg_.models = {camp::FaultModel::kRandom, camp::FaultModel::kAdversarial,
                   camp::FaultModel::kEvents};
    cfg_.rates = {kRate};
    cfg_.fault_counts = {0, kM + 3, kM + 4};
    cfg_.trials = 4;
    cfg_.seed = derive(opts_.seed, kStreamCampaign);
    cfg_.sim.warmup_cycles = 100;
    cfg_.sim.measure_cycles = 400;
    cfg_.threads = opts_.threads;
    specs_ = camp::enumerate_trials(cfg_);
  }

  RunResult run(bool observed) override {
    hbnet::obs::ProgressBoard board;
    last_ = camp::run_campaign(cfg_, observed ? &board : nullptr);
    RunResult r;
    r.attempted = last_.trials.size();
    r.simulated = true;
    for (const camp::TrialResult& t : last_.trials) {
      r.injected += t.injected;
      r.delivered += t.delivered;
      r.dropped += t.dropped;
      RunResult trial;
      const std::string what = "campaign trial " + str(t.spec.index) + " (" +
                               camp::fault_model_name(t.spec.model) + ", " +
                               str(t.spec.fault_count) + " faults)";
      check_conservation(what, t.injected, t.delivered, t.dropped,
                         opts_.broken, trial);
      if (t.deadlocked) trial.fail(what + ": deadlock");
      if (t.spec.model != camp::FaultModel::kEvents &&
          t.spec.fault_count <= kM + 3 && t.dropped != 0) {
        trial.fail(what + ": " + str(t.dropped) +
                   " drops at <= m+3 static faults");
      }
      r.failed += trial.failed;
      for (std::string& e : trial.errors) r.errors.push_back(std::move(e));
    }
    for (const camp::CellSummary& c : last_.cells) {
      // The worst cell's percentiles stand for the campaign.
      r.latency_p50 = std::max(r.latency_p50, c.latency_p50);
      r.latency_p99 = std::max(r.latency_p99, c.latency_p99);
    }
    r.digest = digest_of(last_);
    r.work = static_cast<double>(r.delivered);
    if (r.delivered == 0) r.fail("campaign: nothing delivered");
    return r;
  }

  void layer_metrics(Spans& spans, double run_s, MetricTable& out) override {
    // Replays every trial serially through the engine the campaign used,
    // with the same derived inputs, to time trials one by one. The replay
    // must reproduce the campaign's per-trial counts exactly.
    std::vector<std::uint32_t> ranking;
    {
      auto span = spans.open("campaign.adversarial_fault_ranking");
      ranking = camp::adversarial_fault_ranking(kM, kN);
    }
    const auto topo = hbnet::make_hyper_butterfly_sim(kM, kN);
    const std::uint32_t num_nodes = topo->num_nodes();
    std::vector<double> trial_s;
    std::uint64_t unroutable = 0, unsupported = 0, cycles = 0, moves = 0;
    mismatches_ = 0;
    for (const camp::TrialSpec& spec : specs_) {
      hbnet::SimConfig cfg = cfg_.sim;
      cfg.injection_rate = spec.rate;
      cfg.seed = spec.seed;
      const std::uint64_t fault_seed =
          camp::split_seed(cfg_.seed, spec.index, kStreamFaults);
      hbnet::obs::Sink sink;  // run_campaign gives every trial a sink
      hbnet::SimStats s;
      const Clock::time_point t0 = Clock::now();
      if (spec.model == camp::FaultModel::kEvents) {
        std::vector<hbnet::FaultEvent> events;
        const auto nodes =
            camp::derived_fault_nodes(fault_seed, num_nodes, spec.fault_count);
        for (unsigned e = 0; e < nodes.size(); ++e) {
          events.push_back({cfg.warmup_cycles + ((e + 1) * cfg.measure_cycles) /
                                                    (spec.fault_count + 1),
                            nodes[e]});
        }
        auto span = spans.open("simulator.run_simulation_with_fault_events");
        s = hbnet::run_simulation_with_fault_events(*topo, cfg, events, &sink);
      } else {
        std::vector<char> mask;
        if (spec.fault_count > 0) {
          mask.assign(num_nodes, 0);
          const std::vector<std::uint32_t> nodes =
              spec.model == camp::FaultModel::kAdversarial
                  ? std::vector<std::uint32_t>(
                        ranking.begin(), ranking.begin() + spec.fault_count)
                  : camp::derived_fault_nodes(fault_seed, num_nodes,
                                              spec.fault_count);
          for (const std::uint32_t v : nodes) mask[v] = 1;
        }
        auto span = spans.open("simulator.run_simulation");
        s = hbnet::run_simulation(*topo, cfg, mask, &sink);
      }
      trial_s.push_back(seconds_since(t0));
      const camp::TrialResult& want = last_.trials[spec.index];
      if (s.injected() != want.injected || s.delivered() != want.delivered ||
          s.dropped() != want.dropped) {
        ++mismatches_;
      }
      const hbnet::obs::MetricsRegistry& reg = sink.metrics();
      unroutable += counter(reg, "sim.dropped_unroutable");
      unsupported += counter(reg, "sim.dropped_unsupported");
      cycles += counter(reg, "sim.cycles");
      moves += counter(reg, "sim.packet_moves");
    }
    double busy = 0;
    for (const double t : trial_s) busy += t;
    out.set("engine.cycles", static_cast<double>(cycles), "count");
    out.set("engine.moves", static_cast<double>(moves), "count");
    out.set("par.rounds", 1, "count");
    out.set("simulator.trial_s_p50", quantile(trial_s, 0.5), "s",
            trial_s.size());
    out.set("simulator.trial_s_max", quantile(trial_s, 1.0), "s",
            trial_s.size());
    out.set("simulator.drops_unroutable", static_cast<double>(unroutable),
            "count");
    out.set("simulator.drops_unsupported", static_cast<double>(unsupported),
            "count");
    out.set("campaign.pool_efficiency", busy / (opts_.threads * run_s),
            "ratio");
    out.set("campaign.replay_mismatches", static_cast<double>(mismatches_),
            "count", specs_.size());
    replayed_ = true;
    volume_ = cycles == 0 ? 1 : moves / cycles;
  }

  void final_checks(std::uint64_t digest, RunResult& into) override {
    // Byte identity at any thread count, pinned from outside the campaign:
    // the same grid on one pool thread must give the same digest.
    camp::CampaignConfig one = cfg_;
    one.threads = 1;
    into.attempted += 1;
    if (digest_of(camp::run_campaign(one)) != digest) {
      into.failed += 1;
      into.errors.push_back("campaign: 1-thread digest differs from the " +
                            str(opts_.threads) + "-thread digest");
    }
    if (!replayed_) return;
    into.attempted += 1;
    if (mismatches_ != 0) {
      into.failed += 1;
      into.errors.push_back("campaign: serial replay disagrees with " +
                            str(mismatches_) + " campaign trials");
    }
  }

  ProbeInputs probe_inputs() const override {
    ProbeInputs in;
    in.m = kM;
    in.n = kN;
    in.threads = opts_.threads;
    in.shards = opts_.threads;
    in.seed = opts_.seed;
    in.rate = kRate;
    in.faults = max_tolerated_faults(opts_.seed, kM, kN);
    in.volume = volume_;
    return in;
  }

 private:
  /// Every trial's counts, every cell's latency summary and the merged
  /// metrics JSON.
  static std::uint64_t digest_of(const camp::CampaignResult& res) {
    Digest d;
    for (const camp::TrialResult& t : res.trials) {
      d.add(t.injected).add(t.delivered).add(t.dropped).add(t.deadlocked);
    }
    for (const camp::CellSummary& c : res.cells) {
      d.add(c.latency_p50).add(c.latency_p99).add(c.latency_max);
      d.add(std::bit_cast<std::uint64_t>(c.latency_mean));
    }
    std::ostringstream metrics;
    res.metrics.write_json(metrics);
    d.add(metrics.str());
    return d.value();
  }

  static constexpr unsigned kM = 2, kN = 4;
  Options opts_;
  camp::CampaignConfig cfg_;
  std::vector<camp::TrialSpec> specs_;
  camp::CampaignResult last_;
  bool replayed_ = false;
  std::uint64_t mismatches_ = 0;
  std::uint64_t volume_ = 1;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sf-million", "sf-small", "wormhole-faults", "kappa", "campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Options& opts) {
  if (name == "sf-million") {
    return std::make_unique<ShardedWorkload>(
        ShardedWorkload::Shape{"sf-million", 3, 14, 0, 20, 40, true, false},
        opts);
  }
  if (name == "sf-small") {
    return std::make_unique<ShardedWorkload>(
        ShardedWorkload::Shape{"sf-small", 2, 8, 4, 200, 2000, false, true},
        opts);
  }
  if (name == "wormhole-faults") {
    return std::make_unique<WormholeWorkload>(opts);
  }
  if (name == "kappa") return std::make_unique<KappaWorkload>(opts);
  if (name == "campaign") return std::make_unique<CampaignWorkload>(opts);
  return nullptr;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace hbbench

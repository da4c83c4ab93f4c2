// Deterministic parallel fault-injection campaign engine.
//
// A campaign turns the single-shot simulators into an empirical probe of
// the paper's fault-tolerance claims (Theorem 5 / Remark 10: kappa = m+4,
// with the disjoint-path family doubling as the routing scheme): it fans a
// grid of independent trials -- fault model x injection rate x fault count
// x repeat seed -- across the hbnet::par pool and reduces every trial's
// obs::MetricsRegistry into one campaign-level registry whose instruments
// are tagged with the trial's grid-cell labels
// ({model=...,rate=...,faults=...}).
//
// Fault models:
//  * kRandom      -- `fault_count` distinct nodes drawn from the trial's
//                    fault stream (static mask, run_simulation);
//  * kAdversarial -- the first `fault_count` nodes of the min-cut-adjacent
//                    ranking (analysis/cuts): the nodes crowding the
//                    narrowest balanced dimension cut, i.e. the bottleneck
//                    an adversary would attack (static mask,
//                    run_simulation);
//  * kEvents      -- `fault_count` mid-run node deaths spread across the
//                    measurement window
//                    (run_simulation_with_fault_events; store-and-forward
//                    engine only);
//  * kLinks       -- `fault_count` distinct *directed* link faults: sources
//                    from the trial's fault stream, the outgoing edge from
//                    an independent stream over the node's neighbor list
//                    (wormhole engine only).
// Both engines take static fault masks. The wormhole engine requires
// VcPolicy::kFaultAdaptive for any nonzero fault count (the online
// re-planner needs the reserved escape VC class); enumerate_trials
// enforces this on the calling thread so run_wormhole can never throw
// inside a pool worker.
//
// Determinism contract (the same one hbnet::par establishes): the campaign
// result -- merged metrics JSON, CSV, per-cell table -- is a pure function
// of the CampaignConfig, byte-identical for every thread count. Three
// properties make that hold:
//  * each trial is a pure function of its TrialSpec (the simulators are
//    deterministic given their config);
//  * trial seeds and fault sets derive from the campaign seed via a
//    splittable counter scheme (split_seed: a SplitMix64 mix of
//    (seed, trial index, stream)) -- independent streams per trial, no
//    shared RNG state, no rand();
//  * trials write into disjoint result slots during the parallel phase and
//    are folded serially in trial order afterwards.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/wormhole.hpp"

namespace hbnet::obs {
class ProgressBoard;
}

namespace hbnet::campaign {

enum class FaultModel { kRandom, kAdversarial, kEvents, kLinks };
enum class Engine { kStoreForward, kWormhole };

[[nodiscard]] const char* fault_model_name(FaultModel model);
[[nodiscard]] std::optional<FaultModel> fault_model_from_name(
    std::string_view name);
[[nodiscard]] const char* engine_name(Engine engine);
[[nodiscard]] std::optional<Engine> engine_from_name(std::string_view name);

struct CampaignConfig {
  unsigned m = 2, n = 3;  // HB(m,n) instance under test
  Engine engine = Engine::kStoreForward;
  // The grid: every combination of (model, rate, fault count) is one cell,
  // run `trials` times with distinct derived seeds.
  std::vector<FaultModel> models = {FaultModel::kRandom};
  std::vector<double> rates = {0.05};
  std::vector<unsigned> fault_counts = {0};
  unsigned trials = 1;
  std::uint64_t seed = 1;  // campaign master seed; everything derives here
  // Base simulator configs; injection_rate and seed are overridden per
  // trial, the rest (cycles, pattern, VCs, ...) apply to every trial. The
  // wormhole default uses the fault-adaptive policy with exactly its
  // vc_classes() minimum, so fault-injecting wormhole campaigns work out
  // of the box (and fault-free ones behave like segment-dateline with one
  // idle escape class).
  SimConfig sim;
  WormholeConfig wormhole = {.vcs = vc_classes(VcPolicy::kFaultAdaptive),
                             .policy = VcPolicy::kFaultAdaptive};
  unsigned threads = 0;  // hbnet::par resolution: 0 = default_threads()
};

/// One point of the campaign grid, fully determining a trial.
struct TrialSpec {
  std::uint64_t index = 0;  // position in the deterministic enumeration
  FaultModel model = FaultModel::kRandom;
  double rate = 0.0;
  unsigned fault_count = 0;
  unsigned repeat = 0;      // repeat number within the grid cell
  std::uint64_t seed = 0;   // split_seed(campaign seed, index, stream 0)
};

struct TrialResult {
  TrialSpec spec;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  bool deadlocked = false;  // wormhole stall detector fired
};

/// One grid cell's aggregate over its `trials` repeats -- a row of the
/// campaign's delivered/dropped/latency table.
struct CellSummary {
  FaultModel model = FaultModel::kRandom;
  double rate = 0.0;
  unsigned fault_count = 0;
  unsigned trials = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t latency_p50 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t latency_max = 0;
  double latency_mean = 0.0;
};

struct CampaignResult {
  obs::MetricsRegistry metrics;      // merged campaign-level registry
  std::vector<TrialResult> trials;   // enumeration order
  std::vector<CellSummary> cells;    // cell enumeration order
};

/// Splittable counter scheme: a SplitMix64-style mix of (seed, index,
/// stream). Each (index, stream) pair yields an independent 64-bit value,
/// so trial `index` draws its simulator seed from stream 0 and its fault
/// set from stream 1 without any shared RNG state between trials.
[[nodiscard]] std::uint64_t split_seed(std::uint64_t seed,
                                       std::uint64_t index,
                                       std::uint64_t stream);

/// `count` distinct node ids derived from `fault_seed`: a partial
/// Fisher-Yates shuffle whose swap indices come straight from the
/// splittable counter (portable across standard libraries, unlike
/// std::uniform_int_distribution). The shuffle is kept sparse, so the cost
/// is O(count^2) time and O(count) memory, independent of num_nodes.
/// Requires count < num_nodes (always checked). Public so the CLI wormhole
/// command derives standalone fault sets exactly the way campaign trials
/// do.
[[nodiscard]] std::vector<std::uint32_t> derived_fault_nodes(
    std::uint64_t fault_seed, std::uint32_t num_nodes, unsigned count);

/// `count` distinct *directed* link faults on `topo`: the sources are
/// derived_fault_nodes(fault_seed, ...), and each source's faulted outgoing
/// edge is picked from its neighbor list by an independent stream of the
/// same splittable counter. Requires the adapter to expose adjacency
/// (SimTopology::neighbors).
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint32_t>>
derived_fault_links(std::uint64_t fault_seed, const SimTopology& topo,
                    unsigned count);

/// The adversarial fault ranking of HB(m,n): node ids adjacent to the
/// narrowest balanced dimension cut (analysis/cuts), ordered by how many
/// crossing edges they touch (descending, ties by id). The length-k prefix
/// is the kAdversarial fault set for fault level k.
[[nodiscard]] std::vector<std::uint32_t> adversarial_fault_ranking(
    unsigned m, unsigned n);

/// The campaign's deterministic trial enumeration: models x rates x
/// fault_counts x repeats, with derived seeds filled in. Throws
/// std::invalid_argument on a malformed config (empty grid axes, zero
/// trials, fault count >= num nodes, an engine/model mismatch -- events is
/// store-and-forward only, links is wormhole only -- or a fault-injecting
/// wormhole grid without the fault-adaptive policy). All validation happens
/// here, on the calling thread: a simulator throw inside a pool worker
/// would terminate the process.
[[nodiscard]] std::vector<TrialSpec> enumerate_trials(
    const CampaignConfig& config);

/// Runs the whole grid over the hbnet::par pool and reduces. Validates the
/// config like enumerate_trials.
///
/// A non-null `progress` receives live campaign slots -- trials_total
/// (set up front), trials_done / injected / delivered / dropped /
/// deadlocks (bumped as each trial finishes, in completion order), plus
/// one campaign.dropped{model=...,rate=...,faults=...} slot per grid
/// cell. Updates are relaxed atomic adds on a dedicated channel; the
/// campaign result stays byte-identical with or without a board and at
/// every thread count. Each trial also leaves trial_start/trial_finish
/// events in the obs::FlightRecorder for postmortem dumps.
[[nodiscard]] CampaignResult run_campaign(
    const CampaignConfig& config, obs::ProgressBoard* progress = nullptr);

/// One CSV row per grid cell (stable header, enumeration order):
/// model,rate,faults,trials,injected,delivered,dropped,p50,p99,max,mean.
void write_campaign_csv(std::ostream& os, const CampaignResult& result);

/// Human-readable fixed-width version of the same table.
void write_campaign_table(std::ostream& os, const CampaignResult& result);

}  // namespace hbnet::campaign

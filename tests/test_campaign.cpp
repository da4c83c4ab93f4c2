// Tests for the deterministic fault-injection campaign engine: checked
// grid parsing, the splittable seed scheme, trial enumeration, the
// adversarial ranking, thread-count-invariant artifacts (the determinism
// contract), and the paper's fault-tolerance claim measured end to end
// (zero drops below kappa = m+4 random faults with fault routing on).
#include <gtest/gtest.h>

#include <cstdint>
#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/grid.hpp"
#include "sim/topology.hpp"

namespace hbnet::campaign {
namespace {

/// Small-but-real campaign config: every model, two fault levels, short
/// cycles so the whole grid stays fast.
CampaignConfig small_config() {
  CampaignConfig cfg;
  cfg.m = 1;
  cfg.n = 3;
  cfg.models = {FaultModel::kRandom, FaultModel::kAdversarial,
                FaultModel::kEvents};
  cfg.rates = {0.05};
  cfg.fault_counts = {0, 2};
  cfg.trials = 2;
  cfg.seed = 7;
  cfg.sim.warmup_cycles = 20;
  cfg.sim.measure_cycles = 100;
  cfg.sim.drain_cycles = 1000;
  return cfg;
}

std::string artifacts_of(const CampaignConfig& cfg) {
  const CampaignResult r = run_campaign(cfg);
  std::ostringstream os;
  r.metrics.write_json(os);
  os << '\n';
  write_campaign_csv(os, r);
  write_campaign_table(os, r);
  return os.str();
}

// ---------------------------------------------------------------------------
// Checked grid parsing

TEST(CampaignGrid, AcceptsWholeTokensOnly) {
  EXPECT_EQ(parse_u64("42"), std::uint64_t{42});
  EXPECT_EQ(parse_u64("0"), std::uint64_t{0});
  EXPECT_FALSE(parse_u64("4x").has_value());
  EXPECT_FALSE(parse_u64("x4").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("4 ").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999999").has_value());

  EXPECT_EQ(parse_unsigned("7"), 7u);
  EXPECT_FALSE(parse_unsigned("4294967296").has_value());  // > uint32 max

  EXPECT_EQ(parse_double("0.5"), 0.5);
  EXPECT_FALSE(parse_double("0.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
}

TEST(CampaignGrid, ParsesListsElementwise) {
  const auto us = parse_unsigned_list("0,2,5");
  ASSERT_TRUE(us.has_value());
  EXPECT_EQ(*us, (std::vector<unsigned>{0, 2, 5}));
  EXPECT_FALSE(parse_unsigned_list("0,,5").has_value());
  EXPECT_FALSE(parse_unsigned_list("0,2x").has_value());
  EXPECT_FALSE(parse_unsigned_list("").has_value());

  const auto ds = parse_double_list("0.02,0.05");
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(*ds, (std::vector<double>{0.02, 0.05}));
  EXPECT_FALSE(parse_double_list("0.02,").has_value());
}

TEST(CampaignGrid, ModelAndEngineNamesRoundTrip) {
  for (FaultModel model : {FaultModel::kRandom, FaultModel::kAdversarial,
                           FaultModel::kEvents, FaultModel::kLinks}) {
    EXPECT_EQ(fault_model_from_name(fault_model_name(model)), model);
  }
  for (Engine engine : {Engine::kStoreForward, Engine::kWormhole}) {
    EXPECT_EQ(engine_from_name(engine_name(engine)), engine);
  }
  EXPECT_FALSE(fault_model_from_name("bogus").has_value());
  EXPECT_FALSE(engine_from_name("bogus").has_value());
}

// ---------------------------------------------------------------------------
// Seed scheme + enumeration

TEST(CampaignSeed, SplitSeedSeparatesIndicesAndStreams) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 128; ++index) {
    for (std::uint64_t stream = 0; stream < 3; ++stream) {
      seen.insert(split_seed(11, index, stream));
    }
  }
  EXPECT_EQ(seen.size(), 128u * 3u);  // no collisions across the grid
  EXPECT_EQ(split_seed(11, 5, 1), split_seed(11, 5, 1));  // pure function
  EXPECT_NE(split_seed(11, 5, 1), split_seed(12, 5, 1));  // seed matters
}

/// The dense O(num_nodes) shuffle derived_fault_nodes replaced: the
/// reference its sparse form must reproduce exactly.
std::vector<std::uint32_t> dense_fault_nodes(std::uint64_t fault_seed,
                                             std::uint32_t num_nodes,
                                             unsigned count) {
  constexpr std::uint64_t kStreamShuffle = 2;
  std::vector<std::uint32_t> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), 0u);
  for (unsigned e = 0; e < count; ++e) {
    const std::uint64_t r = split_seed(fault_seed, e, kStreamShuffle);
    const std::uint32_t j =
        e + static_cast<std::uint32_t>(r % (num_nodes - e));
    std::swap(ids[e], ids[j]);
  }
  ids.resize(count);
  return ids;
}

TEST(CampaignSeed, DerivedFaultNodesMatchDenseShuffle) {
  // Small instances make repeated swaps onto the same position common,
  // which is the case the sparse form has to get right.
  for (std::uint64_t t = 0; t < 1200; ++t) {
    const std::uint64_t seed = split_seed(0xfa17, t, 0);
    const auto num_nodes =
        static_cast<std::uint32_t>(2 + split_seed(0xfa17, t, 1) % 1400);
    const auto count =
        static_cast<unsigned>(split_seed(0xfa17, t, 2) % std::min(num_nodes, 40u));
    ASSERT_EQ(derived_fault_nodes(seed, num_nodes, count),
              dense_fault_nodes(seed, num_nodes, count))
        << "seed=" << seed << " num_nodes=" << num_nodes
        << " count=" << count;
  }
  // Every id of a tiny instance but one.
  EXPECT_EQ(derived_fault_nodes(5, 7, 6), dense_fault_nodes(5, 7, 6));
}

TEST(CampaignSeedDeathTest, DerivedFaultNodesRejectsCountPastNumNodes) {
  EXPECT_DEATH((void)derived_fault_nodes(1, 10, 11), "count < num_nodes");
}

TEST(CampaignEnumerate, OrderCellsAndDerivedSeeds) {
  CampaignConfig cfg = small_config();
  const std::vector<TrialSpec> specs = enumerate_trials(cfg);
  ASSERT_EQ(specs.size(), 3u * 1u * 2u * 2u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].index, i);
    EXPECT_EQ(specs[i].seed, split_seed(cfg.seed, i, 0));
    EXPECT_EQ(specs[i].repeat, i % cfg.trials);
  }
  // model is the slowest axis, repeat the fastest.
  EXPECT_EQ(specs.front().model, FaultModel::kRandom);
  EXPECT_EQ(specs.back().model, FaultModel::kEvents);
  EXPECT_EQ(specs[0].fault_count, 0u);
  EXPECT_EQ(specs[2].fault_count, 2u);
}

TEST(CampaignEnumerate, RejectsMalformedConfigs) {
  const CampaignConfig good = small_config();
  (void)enumerate_trials(good);  // sanity: the base config is valid

  CampaignConfig cfg = good;
  cfg.rates.clear();
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.trials = 0;
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.rates = {0.0};
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.rates = {1.5};
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.fault_counts = {10000};  // >= num_nodes of HB(1,3)
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.engine = Engine::kWormhole;  // events model is store-and-forward only
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.models = {FaultModel::kLinks};  // links model is wormhole only
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.engine = Engine::kWormhole;
  cfg.models = {FaultModel::kRandom};
  cfg.wormhole.policy = VcPolicy::kSegmentDateline;
  cfg.wormhole.vcs = 6;  // valid config, but faults need 'adaptive'
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);
  cfg.fault_counts = {0};  // fault free: any deadlock-free policy is fine
  (void)enumerate_trials(cfg);

  cfg = good;
  cfg.engine = Engine::kWormhole;
  cfg.models = {FaultModel::kRandom};
  cfg.fault_counts = {0};
  cfg.wormhole.vcs = 2;  // below vc_classes() of the adaptive default
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);

  cfg = good;
  cfg.n = 2;  // invalid HB instance (n must be >= 3)
  EXPECT_THROW((void)enumerate_trials(cfg), std::invalid_argument);
}

TEST(CampaignSeed, DerivedFaultLinksAreDistinctAndDeterministic) {
  // Link faults must be distinct directed edges with in-range endpoints,
  // a pure function of (fault seed, topology, count).
  auto topo = make_hyper_butterfly_sim(1, 3);
  const auto links = derived_fault_links(99, *topo, 6);
  ASSERT_EQ(links.size(), 6u);
  std::set<std::pair<std::uint32_t, std::uint32_t>> distinct(links.begin(),
                                                             links.end());
  EXPECT_EQ(distinct.size(), links.size());
  for (const auto& [u, v] : links) {
    ASSERT_LT(u, topo->num_nodes());
    ASSERT_LT(v, topo->num_nodes());
    const std::vector<std::uint32_t> nbrs = topo->neighbors(u);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v), nbrs.end());
  }
  EXPECT_EQ(derived_fault_links(99, *topo, 6), links);
  EXPECT_NE(derived_fault_links(100, *topo, 6), links);
}

TEST(CampaignAdversarial, RankingIsPermutationSortedByIncidence) {
  const std::vector<std::uint32_t> order = adversarial_fault_ranking(1, 3);
  const std::uint64_t num_nodes = 3ull << 4;  // n * 2^(m+n)
  ASSERT_EQ(order.size(), num_nodes);
  std::set<std::uint32_t> distinct(order.begin(), order.end());
  EXPECT_EQ(distinct.size(), num_nodes);
  EXPECT_EQ(adversarial_fault_ranking(1, 3), order);  // deterministic
}

// ---------------------------------------------------------------------------
// Determinism contract

TEST(CampaignDeterminism, ArtifactsAreThreadCountInvariant) {
  CampaignConfig cfg = small_config();
  cfg.threads = 1;
  const std::string one = artifacts_of(cfg);
  cfg.threads = 2;
  const std::string two = artifacts_of(cfg);
  cfg.threads = 8;
  const std::string eight = artifacts_of(cfg);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(CampaignDeterminism, RepeatRunsAreByteIdentical) {
  CampaignConfig cfg = small_config();
  cfg.threads = 2;
  EXPECT_EQ(artifacts_of(cfg), artifacts_of(cfg));
}

TEST(CampaignDeterminism, SeedChangesArtifacts) {
  CampaignConfig cfg = small_config();
  cfg.threads = 2;
  const std::string a = artifacts_of(cfg);
  cfg.seed = cfg.seed + 1;
  EXPECT_NE(artifacts_of(cfg), a);
}

// ---------------------------------------------------------------------------
// The fault-tolerance claim, measured

// HB(2,3) has kappa = m+4 = 6 (Corollary 1), so with fault routing enabled
// every fault level below 5 = m+4-1 random static faults must deliver every
// injected packet: the Theorem-5 disjoint-path machinery always finds a
// surviving route.
TEST(CampaignFaultTolerance, NoDropsBelowConnectivityUnderRandomFaults) {
  CampaignConfig cfg;
  cfg.m = 2;
  cfg.n = 3;
  cfg.models = {FaultModel::kRandom};
  cfg.rates = {0.05};
  cfg.fault_counts = {0, 1, 2, 3, 4};
  cfg.trials = 2;
  cfg.seed = 3;
  cfg.sim.warmup_cycles = 20;
  cfg.sim.measure_cycles = 100;
  cfg.sim.drain_cycles = 1000;
  cfg.threads = 2;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_EQ(r.cells.size(), 5u);
  for (const CellSummary& cell : r.cells) {
    EXPECT_EQ(cell.dropped, 0u) << "faults=" << cell.fault_count;
    EXPECT_EQ(cell.delivered, cell.injected) << "faults=" << cell.fault_count;
    EXPECT_GT(cell.injected, 0u) << "faults=" << cell.fault_count;
  }
}

// ---------------------------------------------------------------------------
// Reduction consistency

TEST(CampaignMetrics, MergedRegistryAgreesWithTrialTotals) {
  CampaignConfig cfg = small_config();
  cfg.threads = 2;
  const CampaignResult r = run_campaign(cfg);

  std::uint64_t injected = 0, delivered = 0, dropped = 0;
  for (const TrialResult& t : r.trials) {
    injected += t.injected;
    delivered += t.delivered;
    dropped += t.dropped;
  }
  ASSERT_NE(r.metrics.find_counter("campaign.delivered"), nullptr);
  EXPECT_EQ(r.metrics.find_counter("campaign.injected")->value(), injected);
  EXPECT_EQ(r.metrics.find_counter("campaign.delivered")->value(), delivered);
  EXPECT_EQ(r.metrics.find_counter("campaign.dropped")->value(), dropped);
  EXPECT_EQ(r.metrics.find_counter("campaign.trials")->value(),
            r.trials.size());

  // Cells sum to the same totals, and each cell's labeled counter matches.
  std::uint64_t cell_delivered = 0;
  for (const CellSummary& cell : r.cells) {
    cell_delivered += cell.delivered;
    std::ostringstream rate;
    rate << cell.rate;
    const obs::LabelSet labels = {{"model", fault_model_name(cell.model)},
                                  {"rate", rate.str()},
                                  {"faults", std::to_string(cell.fault_count)}};
    const obs::Counter* c = r.metrics.find_counter("sim.delivered", labels);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), cell.delivered);
  }
  EXPECT_EQ(cell_delivered, delivered);
}

TEST(CampaignCsv, HeaderAndRowCountAreStable) {
  CampaignConfig cfg = small_config();
  cfg.threads = 2;
  const CampaignResult r = run_campaign(cfg);
  std::ostringstream os;
  write_campaign_csv(os, r);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "model,rate,faults,trials,injected,delivered,dropped,p50,p99,"
            "max,mean_latency");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.cells.size());
}

// The wormhole face of the same claim: with the adaptive policy (the
// campaign's wormhole default) every fault level through m+3 = 4 on
// HB(1,3), across all three wormhole-capable fault models, delivers every
// routable packet with zero drops and zero deadlocks.
TEST(CampaignFaultTolerance, WormholeDeliversThroughMPlus3Faults) {
  CampaignConfig cfg;
  cfg.m = 1;
  cfg.n = 3;
  cfg.engine = Engine::kWormhole;
  cfg.models = {FaultModel::kRandom, FaultModel::kAdversarial,
                FaultModel::kLinks};
  cfg.rates = {0.03};
  cfg.fault_counts = {0, 2, 4};
  cfg.trials = 2;
  cfg.seed = 11;
  cfg.wormhole.warmup_cycles = 20;
  cfg.wormhole.measure_cycles = 150;
  cfg.threads = 2;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_EQ(r.cells.size(), 9u);
  for (const CellSummary& cell : r.cells) {
    EXPECT_EQ(cell.dropped, 0u)
        << fault_model_name(cell.model) << " faults=" << cell.fault_count;
    EXPECT_EQ(cell.delivered, cell.injected)
        << fault_model_name(cell.model) << " faults=" << cell.fault_count;
    EXPECT_GT(cell.injected, 0u);
  }
  EXPECT_EQ(r.metrics.find_counter("campaign.deadlocks")->value(), 0u);
  // Nonzero-fault cells actually exercised the re-planner: the per-cell
  // wormhole.misroutes counters carry the grid-cell labels.
  std::uint64_t misroutes = 0;
  for (const CellSummary& cell : r.cells) {
    std::ostringstream rate;
    rate << cell.rate;
    const obs::Counter* c = r.metrics.find_counter(
        "wormhole.misroutes",
        {{"model", fault_model_name(cell.model)},
         {"rate", rate.str()},
         {"faults", std::to_string(cell.fault_count)}});
    if (c != nullptr) misroutes += c->value();
  }
  EXPECT_GT(misroutes, 0u);
}

TEST(CampaignWormhole, SweepRunsAndReportsLatencies) {
  CampaignConfig cfg;
  cfg.m = 1;
  cfg.n = 3;
  cfg.engine = Engine::kWormhole;
  cfg.rates = {0.02};
  cfg.trials = 2;
  cfg.seed = 5;
  cfg.wormhole.warmup_cycles = 20;
  cfg.wormhole.measure_cycles = 100;
  cfg.threads = 2;
  const CampaignResult r = run_campaign(cfg);
  ASSERT_EQ(r.cells.size(), 1u);
  EXPECT_GT(r.cells[0].delivered, 0u);
  EXPECT_GT(r.cells[0].latency_p50, 0u);
  EXPECT_EQ(r.metrics.find_counter("campaign.deadlocks")->value(), 0u);
}

}  // namespace
}  // namespace hbnet::campaign

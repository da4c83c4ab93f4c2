// Per-layer probes: the traced run times one public entry point of each
// hbnet module on the workload's own inputs (its HB(m,n), shard count,
// fault set, traffic rate and per-cycle message volume). Each probe runs
// batches of calls and reports the median per-call time of five batches,
// so one probe costs tens of milliseconds.
#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "core/fault_routing.hpp"
#include "distsim/sync_engine.hpp"
#include "par/pool.hpp"
#include "sim/hb_route.hpp"
#include "sim/topology.hpp"
#include "sim/traffic.hpp"
#include "topology/hb_implicit.hpp"

namespace hbbench {
namespace {

constexpr int kBatches = 5;

/// Times `batch` (which makes `calls` calls and returns a checksum) five
/// times under one span and records the median seconds per call, scaled
/// by `scale` into `unit`.
void probe(Spans& spans, MetricTable& out, const std::string& name,
           const std::string& unit, double scale, std::uint64_t calls,
           const std::function<std::uint64_t()>& batch) {
  auto span = spans.open("probe." + name, calls * kBatches);
  std::vector<double> per_call;
  std::uint64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    sink += batch();
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  // The checksum keeps the probed calls observable to the optimizer.
  volatile std::uint64_t keep = sink;
  (void)keep;
  out.set(name, median(per_call) * scale, unit, calls * kBatches);
}

/// Message of the size the distsim exchange probe moves (32 bytes).
struct Msg32 {
  std::uint64_t a, b, c, d;
};

}  // namespace

void run_probes(const ProbeInputs& in, Spans& spans, MetricTable& out) {
  const hbnet::HyperButterfly hb(in.m, in.n);
  const auto num_nodes = static_cast<std::uint32_t>(hb.num_nodes());

  // par: an empty parallel_for_chunks round over the workload's shards.
  {
    hbnet::par::ThreadPool pool(in.threads);
    const std::function<void(std::uint64_t, std::uint64_t)> empty =
        [](std::uint64_t, std::uint64_t) {};
    constexpr std::uint64_t kRounds = 400;
    probe(spans, out, "par.round_us", "us", 1e6, kRounds, [&] {
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        pool.parallel_for_chunks(in.shards, 1, empty);
      }
      return std::uint64_t{kRounds};
    });
  }

  // distsim: push + drain of the workload's per-cycle volume, and the
  // fixed cost of draining S^2 empty cells.
  {
    const unsigned s = in.shards;
    hbnet::sync::Exchange<Msg32> ex(s);
    const std::uint64_t volume = std::max<std::uint64_t>(in.volume, s);
    probe(spans, out, "distsim.exchange_ns_per_msg", "ns", 1e9, volume, [&] {
      for (std::uint64_t i = 0; i < volume; ++i) {
        ex.push(static_cast<unsigned>(i % s),
                static_cast<unsigned>((i * 7 + 3) % s), {i, i, i, i});
      }
      std::uint64_t sum = 0;
      for (unsigned to = 0; to < s; ++to) {
        ex.drain(to, [&](const Msg32& m) { sum += m.a; });
      }
      return sum;
    });
    constexpr std::uint64_t kDrains = 20000;
    probe(spans, out, "distsim.empty_drain_us", "us", 1e6, kDrains, [&] {
      std::uint64_t sum = 0;
      for (std::uint64_t r = 0; r < kDrains; ++r) {
        for (unsigned to = 0; to < s; ++to) {
          ex.drain(to, [&](const Msg32& m) { sum += m.a; });
        }
      }
      return sum;
    });
  }

  // The workload's (src, dst) draws: uniform stateless traffic.
  const hbnet::StatelessTraffic traffic(hbnet::TrafficPattern::kUniform,
                                        num_nodes, in.seed, in.rate);
  constexpr std::uint32_t kPairs = 4096;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t i = 0; pairs.size() < kPairs; ++i) {
    const std::uint32_t src =
        static_cast<std::uint32_t>(hbnet::traffic_mix(in.seed ^ i) % num_nodes);
    pairs.emplace_back(src, traffic.destination(i, src));
  }

  // sim.route: HbImplicitRouter plan and per-hop advance.
  {
    const hbnet::sim::HbImplicitRouter router(hb);
    std::vector<hbnet::sim::HbRouteState> states(pairs.size());
    probe(spans, out, "route.plan_ns", "ns", 1e9, pairs.size(), [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        states[i] = router.plan(hb.node_at(pairs[i].first),
                                hb.node_at(pairs[i].second));
        sum += states[i].hops_remaining();
      }
      return sum;
    });
    std::uint64_t hops = 0;
    for (const auto& st : states) hops += st.hops_remaining();
    probe(spans, out, "route.next_hop_ns", "ns", 1e9, hops, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        hbnet::sim::HbRouteState st = states[i];
        hbnet::HbNode cur = hb.node_at(pairs[i].first);
        while (!st.done()) {
          const hbnet::sim::HbHop hop = router.next_hop(cur, st);
          cur = hop.next;
          sum += hop.gen;
        }
      }
      return sum;
    });
  }

  // sim.traffic: the stateless per-node scan and the mt19937 generator.
  {
    const std::uint32_t scan = std::min<std::uint32_t>(num_nodes, 1u << 16);
    probe(spans, out, "traffic.stateless_ns", "ns", 1e9, scan, [&] {
      const auto view = traffic.at(scan);
      std::uint64_t sum = 0;
      for (std::uint32_t v = 0; v < scan; ++v) {
        if (view.injects(v)) sum += view.destination(v);
      }
      return sum;
    });
    hbnet::TrafficGenerator gen(hbnet::TrafficPattern::kUniform, num_nodes,
                                in.seed);
    constexpr std::uint32_t kDraws = 1u << 16;
    probe(spans, out, "traffic.generator_ns", "ns", 1e9, kDraws, [&] {
      std::uint64_t sum = 0;
      for (std::uint32_t i = 0; i < kDraws; ++i) {
        sum += gen.destination(i % num_nodes);
      }
      return sum;
    });
  }

  // topology (implicit adjacency): neighbors of consecutive vertices.
  {
    const hbnet::HbImplicitAdjacency adj(in.m, in.n);
    std::vector<hbnet::NodeId> scratch(in.m + 4);
    const std::uint32_t scan = std::min<std::uint32_t>(num_nodes, 1u << 16);
    probe(spans, out, "implicit.neighbors_ns", "ns", 1e9, scan, [&] {
      std::uint64_t sum = 0;
      for (std::uint32_t v = 0; v < scan; ++v) {
        for (const hbnet::NodeId u : adj.neighbors(v, scratch.data())) {
          sum += u;
        }
      }
      return sum;
    });
  }

  // sim.topology + core.fault_routing: routes, and routes around the
  // workload's fault set, between healthy endpoints.
  {
    const auto topo = hbnet::make_hyper_butterfly_sim(in.m, in.n);
    constexpr std::size_t kRoutes = 1024;
    probe(spans, out, "topology.route_ns", "ns", 1e9, kRoutes, [&] {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < kRoutes; ++i) {
        sum += topo->route(pairs[i].first, pairs[i].second).size();
      }
      return sum;
    });

    std::vector<char> mask(num_nodes, 0);
    hbnet::HbFaultSet fault_set;
    for (const std::uint32_t v : in.faults) {
      mask[v] = 1;
      fault_set.add(hb, hb.node_at(v));
    }
    std::vector<std::pair<std::uint32_t, std::uint32_t>> healthy;
    for (const auto& p : pairs) {
      if (!mask[p.first] && !mask[p.second]) healthy.push_back(p);
    }
    // Fault routing costs microseconds on small instances and a large part
    // of a second on HB(3,14), so the pair count per batch is sized from
    // one untimed call (which also builds the lazily materialized
    // butterfly layer graph) to keep a batch near 20 ms.
    auto sized = [&](const std::function<void(std::uint32_t, std::uint32_t)>&
                         call) {
      const Clock::time_point t0 = Clock::now();
      call(healthy[0].first, healthy[0].second);
      const double one = seconds_since(t0);
      return static_cast<std::size_t>(
          std::clamp(0.02 / std::max(one, 1e-9), 1.0, 64.0));
    };
    const std::size_t avoid_pairs = sized([&](std::uint32_t u, std::uint32_t v) {
      (void)topo->route_avoiding(u, v, mask);
    });
    probe(spans, out, "topology.route_avoiding_us", "us", 1e6, avoid_pairs,
          [&] {
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < avoid_pairs; ++i) {
              const auto& [u, v] = healthy[i];
              sum += topo->route_avoiding(u, v, mask).path.size();
            }
            return sum;
          });
    const std::size_t core_pairs = sized([&](std::uint32_t u, std::uint32_t v) {
      (void)hbnet::route_around_faults(hb, hb.node_at(u), hb.node_at(v),
                                       fault_set);
    });
    probe(spans, out, "core.route_around_faults_us", "us", 1e6, core_pairs,
          [&] {
            std::uint64_t sum = 0;
            for (std::size_t i = 0; i < core_pairs; ++i) {
              const auto& [u, v] = healthy[i];
              sum += hbnet::route_around_faults(hb, hb.node_at(u),
                                                hb.node_at(v), fault_set)
                         .path.size();
            }
            return sum;
          });
  }
}

}  // namespace hbbench

// Sharded synchronous store-and-forward engine -- the one packet datapath
// behind run_simulation_sharded, run_simulation and
// run_simulation_with_fault_events.
//
// The cycle loop is generic over a router, and is built around three ideas:
//
//  * Routers. The HB router walks HB routes in closed form, the hops of
//    core's HbImplicitRouter (core/hyper_butterfly.hpp): a 24-byte packet
//    (sim/hb_packet.hpp) carries its remaining route packed beside its
//    position instead of a vector of node ids, each hop is one
//    Butterfly::step or cube-bit flip, and the per-link tally is keyed by
//    the hop's generator byte -- no per-packet allocation, ever. The path
//    router serves any SimTopology: it source-routes at injection with the
//    topology's own algorithm as a port word (SimTopology::route_word) in
//    a slot recycled through a free list, so route memory is bounded by
//    the packets in flight and a steady-state run allocates nothing; its
//    link tally is a flat node x port array.
//  * Per-shard dense arenas: nodes are partitioned into contiguous shards
//    (sync::ShardPlan). A shard keeps only its keepers (packets whose node
//    used its service budget) in one dense vector. Each cycle one
//    sequential sweep visits the keepers, then last cycle's arrivals
//    straight out of the inbox exchange, then this cycle's injections --
//    per-node FIFO order is the subsequence order, so there are no queue
//    structures at all. Keepers are compacted in place behind a write
//    cursor; waiting arrivals and injections are appended behind them.
//    Serviced moves are appended to a sequential buffer, their 4-byte
//    indices parked in per-node slots, and a second pass over a bitset
//    frontier emits them in ascending node order (the canonical order that
//    makes results independent of the shard count). That service scratch
//    is one cache-line-padded struct per pool worker, not per shard, and is
//    empty again whenever a shard's turn ends.
//  * One parallel phase per cycle over two sync::Exchanges: every shard
//    drains its column of the inbox (sender shards ascending) while it
//    pushes its moves into its row of the outbox; the pool's return is the
//    barrier, and the two exchanges swap. Arrivals are never copied into
//    the arena only to be read back out. Both exchanges store their cells
//    as chains of 64-packet segments (1.5 KiB of HB packets) from one set
//    of per-shard free lists (sync::SegmentLists): a shard's drained
//    segments carry its own pushes in the same phase, so about one cycle
//    of moves is stored, not two, and the lists are leveled at every
//    barrier so they stay bounded.
//
// Determinism contract: traffic is counter-based (StatelessTraffic -- a
// pure hash of seed/cycle/node), shards are contiguous, and delivery order
// is the global ascending-sender-id order, so stats, metrics JSON, links
// CSV and packet trace spans are byte-identical for every --threads x
// --shards combination (tools/test_sim_determinism.sh pins 1/2/8 x
// 1/4/auto).
// On HB(m,n) both routers walk the same HbImplicitRouter hops, so
// run_simulation on make_hyper_butterfly_sim(m, n) and a fault-free
// run_simulation_sharded agree byte for byte.
//
// Scope: the HB router is fault free and runs at any shard count. Faults
// (static masks and mid-run events, the rule in simulator.hpp) run on the
// path router, whose fault set and link tally are run-wide: it runs as one
// shard on the calling thread, so campaigns keep one trial per pool worker.
#pragma once

#include <cstdint>

#include "core/hyper_butterfly.hpp"
#include "obs/sink.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace hbnet {

namespace obs {
class ProgressBoard;
}

/// Runs `config` fault free on HB `hb` over `shards` contiguous node shards
/// using `threads` pool workers (0 = the --threads default). `shards` = 0
/// picks ~16K nodes per shard and at least one shard per worker. Reports
/// through `sink` and `progress` exactly like run_simulation: same metric
/// names, link table, node occupancy integrals, time series and, when the
/// sink traces, packet spans.
[[nodiscard]] SimStats run_simulation_sharded(
    const HyperButterfly& hb, const SimConfig& config, unsigned shards = 0,
    unsigned threads = 0, obs::Sink* sink = nullptr,
    obs::ProgressBoard* progress = nullptr);

}  // namespace hbnet

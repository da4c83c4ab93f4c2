// The shared synchronous-engine core: sharding plan + deterministic
// cross-shard message exchange.
//
// Both synchronous simulators in the library -- the distsim protocol engine
// (engine.hpp) and the sharded store-and-forward packet engine
// (sim/sharded.hpp) -- build their cycles from these two primitives. The
// protocol engine runs three steps per round:
//
//   1. compute: every shard processes its own nodes in ascending id order,
//      pushing outbound messages into its Exchange row (no shared writes);
//   2. exchange + barrier: the parallel_for over shards returns (the pool's
//      completion *is* the barrier), then
//   3. deliver: every shard drains its Exchange column, sender shards in
//      ascending order.
//
// The packet engine fuses steps 1 and 3 over two Exchanges: in one
// parallel phase each shard drains its column of last cycle's Exchange (the
// inbox) while it pushes this cycle's moves into the other (the outbox),
// and the two swap at the barrier.
//
// Determinism contract: shards are CONTIGUOUS id ranges and drain() visits
// sender shards in ascending order, so the delivery order at any node is
// the global ascending-sender-id order -- the same sequence for every shard
// count and thread count, including the fully serial 1-shard case. Any
// engine built on this core therefore only needs order-independent (or
// per-slot-disjoint) state updates to inherit byte-identical results across
// --threads/--shards.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check.hpp"

namespace hbnet::sync {

/// Partition of the dense id space [0, num_nodes) into contiguous ranges of
/// a power-of-two stride (the smallest power of two >= num_nodes /
/// requested_shards; the last range may be short). The actual shard count
/// is therefore at most the requested one. Two properties are load-bearing:
/// contiguity (see the determinism contract above) and the pow2 stride,
/// which makes shard_of() -- executed once per packet move in the sharded
/// simulator -- a single shift instead of a division.
class ShardPlan {
 public:
  ShardPlan(std::uint64_t num_nodes, unsigned requested_shards)
      : num_nodes_(num_nodes) {
    HBNET_CHECK_MSG(requested_shards >= 1,
                    "ShardPlan: need at least one shard");
    const std::uint64_t target =
        (num_nodes + requested_shards - 1) / requested_shards;
    while ((std::uint64_t{1} << shift_) < target) ++shift_;
    shards_ = num_nodes == 0
                  ? 1
                  : static_cast<unsigned>(((num_nodes - 1) >> shift_) + 1);
  }

  [[nodiscard]] unsigned shards() const { return shards_; }
  [[nodiscard]] std::uint64_t num_nodes() const { return num_nodes_; }

  [[nodiscard]] std::uint64_t begin(unsigned s) const {
    return std::min(num_nodes_, std::uint64_t{s} << shift_);
  }
  [[nodiscard]] std::uint64_t end(unsigned s) const { return begin(s + 1); }

  [[nodiscard]] unsigned shard_of(std::uint64_t node) const {
    return static_cast<unsigned>(node >> shift_);
  }

 private:
  std::uint64_t num_nodes_;
  unsigned shards_ = 1;
  unsigned shift_ = 0;
};

/// Batched shard-to-shard message buffers: one cell per (from, to) pair,
/// laid out from-major so each compute-phase writer owns a contiguous row.
/// push() is only safe from the thread running shard `from`; drain() and
/// erase_if() are only safe after the barrier, from the thread running
/// shard `to`.
template <typename Msg>
class Exchange {
 public:
  explicit Exchange(unsigned shards)
      : shards_(shards),
        cells_(static_cast<std::size_t>(shards) * shards) {}

  void push(unsigned from, unsigned to, Msg msg) {
    cell(from, to).push_back(std::move(msg));
  }

  /// Visits every message bound for shard `to`, sender shards in ascending
  /// order (delivery order == global ascending sender id), then clears.
  template <typename Fn>
  void drain(unsigned to, Fn&& fn) {
    for (unsigned from = 0; from < shards_; ++from) {
      auto& c = cell(from, to);
      for (Msg& m : c) fn(m);
      c.clear();
    }
  }

  /// Erases every message bound for shard `to` that `pred` accepts; the
  /// survivors keep their order. Returns the number erased.
  template <typename Pred>
  std::uint64_t erase_if(unsigned to, Pred&& pred) {
    std::uint64_t erased = 0;
    for (unsigned from = 0; from < shards_; ++from) {
      erased += std::erase_if(cell(from, to), pred);
    }
    return erased;
  }

  /// Total queued messages (post-barrier use only).
  [[nodiscard]] std::uint64_t in_flight() const {
    std::uint64_t total = 0;
    for (const auto& c : cells_) total += c.size();
    return total;
  }

 private:
  [[nodiscard]] std::vector<Msg>& cell(unsigned from, unsigned to) {
    return cells_[static_cast<std::size_t>(from) * shards_ + to];
  }

  unsigned shards_;
  std::vector<std::vector<Msg>> cells_;
};

}  // namespace hbnet::sync

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
// and the two swap at the barrier. The two share one SegmentLists, which
// it levels at the barrier with rebalance(), and each shard keeps the
// packets waiting in its node queues in a SegmentChain on the same lists.
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
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
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

template <typename Msg>
class SegmentChain;

/// Per-shard free lists of fixed-size message segments, the storage behind
/// every SegmentChain over the same shards: the cells of one or more
/// Exchanges (the packet engine's inbox and outbox share one set) and the
/// packet engine's per-shard keeper queues.
///
/// Who touches what: a chain that takes or frees segments for shard `s`
/// names list `s`. Exchange::push(from, ...) takes segments from list
/// `from`, drain(to, ...) and erase_if(to, ...) give every emptied segment
/// back to list `to`, and the packet engine's keepers of shard `s` take from
/// and give to list `s`. In a parallel phase list `s` is therefore only
/// touched by the thread running shard `s`, so the lists need no lock.
/// Segments drained from last cycle's moves carry the same shard's pushes
/// and waiting packets in the same phase, while they are still in that
/// core's cache, so only about one cycle of moves is ever stored, not two,
/// beside the packets that wait.
///
/// How the lists stay bounded: a shard that receives more than it sends
/// gains segments every phase and one that sends more must allocate, so
/// without a run-wide step the total keeps growing. rebalance(), called
/// serially at the barrier, levels the free segments across the lists
/// (every list holds floor or ceil of the mean). A list then runs empty in
/// a phase only while the free total is below shards x (segments one shard
/// takes in a phase), so the allocated total stays below the peak live
/// segments plus about twice that. Segments are freed only with the lists.
template <typename Msg>
class SegmentLists {
 public:
  /// Messages per segment: the largest power of two that fits in 2 KiB
  /// (64 of the packet engine's 24-byte HB packets, 1.5 KiB).
  static constexpr std::size_t kSegment =
      std::bit_floor(std::max<std::size_t>(1, 2048 / sizeof(Msg)));

  explicit SegmentLists(unsigned shards) : lists_(shards) {
    HBNET_CHECK_MSG(shards >= 1, "SegmentLists: need at least one shard");
  }
  SegmentLists(const SegmentLists&) = delete;
  SegmentLists& operator=(const SegmentLists&) = delete;

  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(lists_.size());
  }

  /// Segments allocated so far, free or holding messages (post-barrier use
  /// only).
  [[nodiscard]] std::uint64_t segments() const {
    std::uint64_t total = 0;
    for (const List& l : lists_) total += l.owned.size();
    return total;
  }

  /// Free segments on list `s` (post-barrier use only).
  [[nodiscard]] std::uint64_t free_segments(unsigned s) const {
    return lists_[s].size;
  }

  /// Levels the free segments across the lists: the first (total % shards)
  /// lists hold one more than the rest. Serial, post-barrier only.
  void rebalance() {
    std::uint64_t total = 0;
    for (const List& l : lists_) total += l.size;
    const std::uint64_t base = total / lists_.size();
    const std::uint64_t extra = total % lists_.size();
    const auto target = [&](std::size_t s) { return base + (s < extra); };
    List spare;
    for (std::size_t s = 0; s < lists_.size(); ++s) {
      while (lists_[s].size > target(s)) spare.push(lists_[s].pop());
    }
    for (std::size_t s = 0; s < lists_.size(); ++s) {
      while (lists_[s].size < target(s)) lists_[s].push(spare.pop());
    }
  }

 private:
  friend class SegmentChain<Msg>;

  struct Segment {
    Segment* next = nullptr;
    std::array<Msg, kSegment> items;
  };

  /// One shard's free stack (most recently freed on top) and the segments
  /// it allocated, which it owns wherever they are. Padded so that two
  /// workers never write one cache line.
  struct alignas(64) List {
    Segment* top = nullptr;
    std::uint64_t size = 0;
    std::vector<std::unique_ptr<Segment>> owned;

    void push(Segment* seg) {
      seg->next = top;
      top = seg;
      ++size;
    }
    Segment* pop() {
      Segment* seg = top;
      top = seg->next;
      --size;
      return seg;
    }
  };

  /// A free segment from list `s`, allocated if the list is empty.
  Segment* take(unsigned s) {
    List& l = lists_[s];
    if (l.top == nullptr) {
      return l.owned.emplace_back(std::make_unique<Segment>()).get();
    }
    Segment* seg = l.pop();
    seg->next = nullptr;
    return seg;
  }

  /// Frees the chain starting at `seg` onto list `s`.
  void give(unsigned s, Segment* seg) {
    while (seg != nullptr) {
      Segment* next = seg->next;
      lists_[s].push(seg);
      seg = next;
    }
  }

  std::vector<List> lists_;
};

/// A FIFO of messages in a chain of segments from a SegmentLists, full but
/// for the last: one Exchange cell, or one shard's keepers in the packet
/// engine. The chain holds no pointer to its lists; every call that takes
/// or frees a segment names the lists and the list `s` to use, and in a
/// parallel phase only the thread running shard `s` may make it. A chain
/// dropped without clear() leaves its segments to the lists, which free
/// them.
template <typename Msg>
class SegmentChain {
 public:
  using Lists = SegmentLists<Msg>;
  static constexpr std::size_t kSegment = Lists::kSegment;

  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Appends `msg`, taking a segment from list `s` when the last is full.
  void push(Lists& lists, unsigned s, Msg msg) {
    const std::size_t at = size_ % kSegment;
    if (at == 0) {
      Segment* seg = lists.take(s);
      (tail_ != nullptr ? tail_->next : head_) = seg;
      tail_ = seg;
    }
    tail_->items[at] = std::move(msg);
    ++size_;
  }

  /// Visits every message in order and empties the chain. Each segment goes
  /// back to list `s` as soon as it has been visited, so a push that `fn`
  /// makes to another chain from list `s` reuses it.
  template <typename Fn>
  void drain(Lists& lists, unsigned s, Fn&& fn) {
    std::uint64_t left = size_;
    Segment* seg = head_;
    *this = SegmentChain{};
    while (seg != nullptr) {
      const std::size_t count = std::min<std::uint64_t>(left, kSegment);
      const char* const ahead = next_or_self(seg);
      for (std::size_t i = 0; i < count; ++i) {
        __builtin_prefetch(ahead + i * sizeof(Msg));
        fn(seg->items[i]);
      }
      left -= count;
      Segment* const next = seg->next;
      lists.lists_[s].push(seg);  // overwrites seg->next
      seg = next;
    }
  }

  /// Visits every message in order; the ones `keep` accepts stay, in their
  /// order, and the rest are gone. Survivors slide down behind a write
  /// cursor that never passes the read position, and the segments emptied
  /// at the tail go back to list `s`. Returns the number removed.
  template <typename Keep>
  std::uint64_t keep_if(Lists& lists, unsigned s, Keep&& keep) {
    if (size_ == 0) return 0;
    Segment* out = head_;
    std::size_t at = 0;
    std::uint64_t kept = 0;
    std::uint64_t left = size_;
    for (Segment* seg = head_; seg != nullptr; seg = seg->next) {
      const std::size_t count = std::min<std::uint64_t>(left, kSegment);
      left -= count;
      const char* const ahead = next_or_self(seg);
      for (std::size_t i = 0; i < count; ++i) {
        __builtin_prefetch(ahead + i * sizeof(Msg));
        Msg& m = seg->items[i];
        if (!keep(m)) continue;
        if (at == kSegment) {
          out = out->next;
          at = 0;
        }
        if (&out->items[at] != &m) out->items[at] = std::move(m);
        ++at;
        ++kept;
      }
    }
    const std::uint64_t removed = size_ - kept;
    if (kept == 0) {
      clear(lists, s);
    } else {
      lists.give(s, out->next);
      out->next = nullptr;
      tail_ = out;
      size_ = kept;
    }
    return removed;
  }

  /// Gives every segment back to list `s`; the chain is then empty.
  void clear(Lists& lists, unsigned s) {
    lists.give(s, head_);
    *this = SegmentChain{};
  }

 private:
  using Segment = typename Lists::Segment;

  /// The segment after `seg`, or `seg` itself at the end of the chain. The
  /// loops above prefetch it at the offset they read, so its lines arrive
  /// a segment ahead: recycled segments lie scattered, and the hardware
  /// prefetcher, which cannot follow the chain, would start over at each.
  static const char* next_or_self(const Segment* seg) {
    return reinterpret_cast<const char*>(seg->next != nullptr ? seg->next
                                                              : seg);
  }

  Segment* head_ = nullptr;
  Segment* tail_ = nullptr;
  std::uint64_t size_ = 0;
};

/// Batched shard-to-shard message buffers: one cell per (from, to) pair,
/// laid out from-major so each compute-phase writer owns a contiguous row.
/// A cell is a SegmentChain. push() is only safe from the thread running
/// shard `from`; drain() and erase_if() are only safe after the barrier,
/// from the thread running shard `to`. Callers with more than one shard call
/// lists().rebalance() at the barrier to keep the free lists bounded.
template <typename Msg>
class Exchange {
 public:
  using Lists = SegmentLists<Msg>;
  static constexpr std::size_t kSegment = Lists::kSegment;

  /// An exchange over `shards` shards with free lists of its own.
  explicit Exchange(unsigned shards)
      : Exchange(std::make_shared<Lists>(shards)) {}

  /// An exchange that takes its segments from, and returns them to, the
  /// shared `lists` (for example the outbox built from the inbox's lists).
  explicit Exchange(std::shared_ptr<Lists> lists)
      : shards_(lists->shards()),
        cells_(static_cast<std::size_t>(shards_) * shards_),
        lists_(std::move(lists)) {}

  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;
  Exchange(Exchange&& other) noexcept
      : shards_(other.shards_),
        cells_(std::move(other.cells_)),
        lists_(std::move(other.lists_)) {
    other.cells_.clear();
  }
  Exchange& operator=(Exchange&& other) noexcept {
    if (this != &other) {
      release();
      shards_ = other.shards_;
      cells_ = std::move(other.cells_);
      lists_ = std::move(other.lists_);
      other.cells_.clear();
    }
    return *this;
  }
  ~Exchange() { release(); }

  [[nodiscard]] const std::shared_ptr<Lists>& lists() const { return lists_; }

  void push(unsigned from, unsigned to, Msg msg) {
    cell(from, to).push(*lists_, from, std::move(msg));
  }

  /// Visits every message bound for shard `to`, sender shards in ascending
  /// order (delivery order == global ascending sender id), then clears.
  template <typename Fn>
  void drain(unsigned to, Fn&& fn) {
    for (unsigned from = 0; from < shards_; ++from) {
      cell(from, to).drain(*lists_, to, fn);
    }
  }

  /// Erases every message bound for shard `to` that `pred` accepts; the
  /// survivors keep their order. Returns the number erased.
  template <typename Pred>
  std::uint64_t erase_if(unsigned to, Pred&& pred) {
    std::uint64_t erased = 0;
    for (unsigned from = 0; from < shards_; ++from) {
      erased += cell(from, to).keep_if(*lists_, to,
                                       [&](Msg& m) { return !pred(m); });
    }
    return erased;
  }

  /// Total queued messages (post-barrier use only).
  [[nodiscard]] std::uint64_t in_flight() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.size();
    return total;
  }

 private:
  using Cell = SegmentChain<Msg>;

  [[nodiscard]] Cell& cell(unsigned from, unsigned to) {
    return cells_[static_cast<std::size_t>(from) * shards_ + to];
  }

  /// Returns every queued segment to its receiver's list.
  void release() {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      cells_[i].clear(*lists_, static_cast<unsigned>(i % shards_));
    }
  }

  unsigned shards_;
  std::vector<Cell> cells_;
  std::shared_ptr<Lists> lists_;
};

}  // namespace hbnet::sync

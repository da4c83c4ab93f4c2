// hbnet::obs -- low-overhead metrics primitives for the simulators.
//
// The registry replaces ad-hoc sample vectors (SimStats used to keep every
// delivered latency and sort it per percentile query) with fixed-footprint
// instruments:
//
//  * Counter   -- monotone uint64.
//  * Gauge     -- last-written double.
//  * Histogram -- HDR-style fixed-bucket value histogram: exact below
//    2^kLinearBits, then kSubBuckets log-spaced buckets per octave, so any
//    percentile query is answered in O(buckets) with relative error at most
//    1/kSubBuckets and memory independent of the sample count; the bucket
//    array covers only the range recorded so far.
//
// Instruments are owned by a MetricsRegistry and addressed by name plus an
// optional label set (node/link/VC-class, simulator, ...). Lookups take the
// map path; hot loops should hold the returned reference, which is stable
// for the registry's lifetime.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace hbnet::obs {

/// Metric labels, e.g. {{"link", "3->7"}, {"vc", "2"}}.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket latency/value histogram (HDR layout).
///
/// Values below 2^kLinearBits land in exact unit-width buckets; above that,
/// each power-of-two octave is split into kSubBuckets log-spaced buckets.
/// percentile() uses the same nearest-rank convention the old SimStats code
/// used (rank = floor(q * (count-1))) and returns the bucket midpoint
/// clamped to the observed [min, max], so it is exact for values in the
/// linear range and within 1/kSubBuckets relative error elsewhere.
///
/// The bucket array grows with the largest value recorded or merged, to the
/// next power of two of its bucket index (at most kNumBuckets), so a
/// histogram of values below 2^kLinearBits holds at most 2^kLinearBits
/// counts. Buckets past the array are zero; no reader can tell the two
/// apart.
class Histogram {
 public:
  static constexpr unsigned kLinearBits = 8;  // exact for values < 256
  static constexpr unsigned kSubBucketBits = kLinearBits - 1;
  static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;  // 128
  static constexpr std::size_t kNumBuckets =
      (std::size_t{1} << kLinearBits) + (64 - kLinearBits) * kSubBuckets;

  void record(std::uint64_t value) { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t n);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// q in [0,1]; nearest-rank percentile over the recorded distribution.
  [[nodiscard]] std::uint64_t percentile(double q) const;

  void merge(const Histogram& other);

  /// Bucket counts the histogram holds memory for (its footprint).
  [[nodiscard]] std::size_t allocated_buckets() const {
    return buckets_.capacity();
  }

  /// Visits every non-empty bucket in increasing value order as
  /// fn(lower, upper, count) -- the exporter for heatmaps/summaries.
  template <typename Fn>
  void for_each_bucket(Fn&& fn) const {
    if (buckets_.empty()) return;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      fn(bucket_lower(i), bucket_upper(i), buckets_[i]);
    }
  }

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t value) {
    if (value < (std::uint64_t{1} << kLinearBits)) {
      return static_cast<std::size_t>(value);
    }
    const unsigned exp = std::bit_width(value) - 1;  // >= kLinearBits
    const std::uint64_t sub = (value >> (exp - kSubBucketBits)) & (kSubBuckets - 1);
    return (std::size_t{1} << kLinearBits) +
           std::size_t{exp - kLinearBits} * kSubBuckets +
           static_cast<std::size_t>(sub);
  }
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t index);
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t index);

 private:
  /// Sizes buckets_ to hold bucket `index`.
  void grow_to(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // up to the largest bucket recorded
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

/// How MetricsRegistry::merge combines an incoming gauge with an existing
/// value under the same key. Counters always add and histograms always
/// merge; gauges are the one instrument whose fold is ambiguous, so the
/// caller picks per key.
enum class GaugeMerge {
  kLast,  // incoming value wins (merge order defines "last")
  kMin,   // keep the smaller value
  kMax,   // keep the larger value (e.g. "did any trial deadlock")
  kSum,   // accumulate
};

/// Options for MetricsRegistry::merge.
struct MergeOptions {
  /// Labels appended to every incoming instrument key before insertion --
  /// how a campaign tags each trial's registry with its grid cell. Keys
  /// already carrying labels get these appended inside the brace block.
  LabelSet extra_labels;
  /// Picks the gauge policy for a (relabeled) key; kLast when empty.
  std::function<GaugeMerge(const std::string& key)> gauge_policy;
};

/// Name+label keyed collection of instruments. Addresses are stable: the
/// maps are node-based, so references returned by counter()/gauge()/
/// histogram() remain valid while the registry lives.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const LabelSet& labels = {});
  Gauge& gauge(const std::string& name, const LabelSet& labels = {});
  Histogram& histogram(const std::string& name, const LabelSet& labels = {});

  /// Folds `other` into this registry: counters add, histograms merge,
  /// gauges combine under `options.gauge_policy` (kLast -- the incoming
  /// value overwrites -- when none is given). Missing instruments are
  /// created; `other` is untouched and must not alias this registry. The
  /// result depends only on the two registries and the options, so a
  /// sequence of merges in a fixed order is deterministic regardless of
  /// how the source registries were produced.
  void merge(const MetricsRegistry& other, const MergeOptions& options = {});

  /// `key` with `extra` appended to its label block ("name" ->
  /// "name{k=v}", "name{a=b}" -> "name{a=b,k=v}"). No-op on empty
  /// `extra`. Matches key_of for unlabeled keys.
  [[nodiscard]] static std::string relabel_key(const std::string& key,
                                               const LabelSet& extra);

  /// Instrument present (without creating it)?
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const LabelSet& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name, const LabelSet& labels = {}) const;

  [[nodiscard]] bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Serializes every instrument as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,...}}}.
  void write_json(std::ostream& os) const;

  /// Canonical flat key: name{k=v,k2=v2} (name alone when unlabeled).
  [[nodiscard]] static std::string key_of(const std::string& name,
                                          const LabelSet& labels);

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Writes `s` as a JSON string literal (quotes + escapes) to `os`.
void write_json_string(std::ostream& os, const std::string& s);

}  // namespace hbnet::obs

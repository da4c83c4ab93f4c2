#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "check/check.hpp"

namespace hbnet::obs {

void Histogram::grow_to(std::size_t index) {
  if (index < buckets_.size()) return;
  // Power-of-two steps keep the reallocations to a handful, and the exact
  // reserve keeps vector growth from doubling past that.
  const std::size_t size = std::min(kNumBuckets, std::bit_ceil(index + 1));
  buckets_.reserve(size);
  buckets_.resize(size, 0);
}

void Histogram::record_n(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  const std::size_t index = bucket_index(value);
  grow_to(index);
  buckets_[index] += n;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

std::uint64_t Histogram::bucket_lower(std::size_t index) {
  constexpr std::size_t linear = std::size_t{1} << kLinearBits;
  if (index < linear) return index;
  const std::size_t off = index - linear;
  const unsigned exp = kLinearBits + static_cast<unsigned>(off / kSubBuckets);
  const std::uint64_t sub = off % kSubBuckets;
  return (std::uint64_t{1} << exp) + (sub << (exp - kSubBucketBits));
}

std::uint64_t Histogram::bucket_upper(std::size_t index) {
  constexpr std::size_t linear = std::size_t{1} << kLinearBits;
  if (index < linear) return index;
  const std::size_t off = index - linear;
  const unsigned exp = kLinearBits + static_cast<unsigned>(off / kSubBuckets);
  return bucket_lower(index) + ((std::uint64_t{1} << (exp - kSubBucketBits)) - 1);
}

std::uint64_t Histogram::percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum > rank) {
      const std::uint64_t lo = bucket_lower(i), hi = bucket_upper(i);
      return std::clamp(lo + (hi - lo) / 2, min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  // Nothing above the bucket of other.max_ is non-zero.
  const std::size_t top = bucket_index(other.max_);
  grow_to(top);
  for (std::size_t i = 0; i <= top; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string MetricsRegistry::relabel_key(const std::string& key,
                                         const LabelSet& extra) {
  if (extra.empty()) return key;
  std::string tail;
  for (const auto& [k, v] : extra) {
    if (!tail.empty()) tail += ',';
    tail += k;
    tail += '=';
    tail += v;
  }
  std::string out;
  if (!key.empty() && key.back() == '}') {
    out.assign(key, 0, key.size() - 1);
    out += ',';
  } else {
    out = key;
    out += '{';
  }
  out += tail;
  out += '}';
  return out;
}

void MetricsRegistry::merge(const MetricsRegistry& other,
                            const MergeOptions& options) {
  HBNET_CHECK_MSG(&other != this,
                  "MetricsRegistry::merge: source aliases target");
  for (const auto& [key, c] : other.counters_) {
    counters_[relabel_key(key, options.extra_labels)].inc(c.value());
  }
  for (const auto& [key, g] : other.gauges_) {
    const std::string k = relabel_key(key, options.extra_labels);
    const GaugeMerge policy =
        options.gauge_policy ? options.gauge_policy(k) : GaugeMerge::kLast;
    auto it = gauges_.find(k);
    if (it == gauges_.end()) {
      gauges_[k].set(g.value());
      continue;
    }
    switch (policy) {
      case GaugeMerge::kLast:
        it->second.set(g.value());
        break;
      case GaugeMerge::kMin:
        it->second.set(std::min(it->second.value(), g.value()));
        break;
      case GaugeMerge::kMax:
        it->second.set(std::max(it->second.value(), g.value()));
        break;
      case GaugeMerge::kSum:
        it->second.add(g.value());
        break;
    }
  }
  for (const auto& [key, h] : other.histograms_) {
    histograms_[relabel_key(key, options.extra_labels)].merge(h);
  }
}

std::string MetricsRegistry::key_of(const std::string& name,
                                    const LabelSet& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const LabelSet& labels) {
  return counters_[key_of(name, labels)];
}

Gauge& MetricsRegistry::gauge(const std::string& name, const LabelSet& labels) {
  return gauges_[key_of(name, labels)];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const LabelSet& labels) {
  return histograms_[key_of(name, labels)];
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             const LabelSet& labels) const {
  auto it = counters_.find(key_of(name, labels));
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 const LabelSet& labels) const {
  auto it = histograms_.find(key_of(name, labels));
  return it == histograms_.end() ? nullptr : &it->second;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

namespace {

// Finite-or-zero guard: JSON has no NaN/Inf literals.
double json_safe(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [key, c] : counters_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [key, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ':' << json_safe(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [key, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, key);
    os << ":{\"count\":" << h.count() << ",\"min\":" << h.min()
       << ",\"mean\":" << json_safe(h.mean()) << ",\"p50\":" << h.percentile(0.5)
       << ",\"p90\":" << h.percentile(0.9) << ",\"p99\":" << h.percentile(0.99)
       << ",\"max\":" << h.max() << '}';
  }
  os << "}}";
}

}  // namespace hbnet::obs

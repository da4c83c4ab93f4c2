// Observability subsystem: histogram accuracy against an exact reference,
// registry/export round trips, Chrome-trace JSON validity (parse, per-lane
// nesting, monotone timestamps), and the wormhole/SF/distsim sink wiring
// (per-link occupancy must sum to independently counted flit-cycles).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "distsim/engine.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/wormhole.hpp"

namespace hbnet {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser -- just enough to validate our exporters. Any
// syntax error fails the parse (returns nullptr), which fails the test.

struct JsonValue;
using JsonPtr = std::unique_ptr<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::vector<JsonPtr>, std::map<std::string, JsonPtr>>
      v;

  [[nodiscard]] const std::vector<JsonPtr>* array() const {
    return std::get_if<std::vector<JsonPtr>>(&v);
  }
  [[nodiscard]] const std::map<std::string, JsonPtr>* object() const {
    return std::get_if<std::map<std::string, JsonPtr>>(&v);
  }
  [[nodiscard]] const JsonValue* field(const std::string& key) const {
    const auto* obj = object();
    if (obj == nullptr) return nullptr;
    auto it = obj->find(key);
    return it == obj->end() ? nullptr : it->second.get();
  }
  [[nodiscard]] double number() const {
    const double* d = std::get_if<double>(&v);
    return d == nullptr ? 0.0 : *d;
  }
  [[nodiscard]] std::string str() const {
    const std::string* s = std::get_if<std::string>(&v);
    return s == nullptr ? std::string{} : *s;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonPtr parse() {
    JsonPtr v = value();
    skip_ws();
    if (v == nullptr || pos_ != s_.size()) return nullptr;  // trailing junk
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonPtr value() {
    skip_ws();
    if (pos_ >= s_.size()) return nullptr;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null_value();
      default:
        return number();
    }
  }

  JsonPtr object() {
    if (!consume('{')) return nullptr;
    auto out = std::make_unique<JsonValue>();
    std::map<std::string, JsonPtr> fields;
    skip_ws();
    if (consume('}')) {
      out->v = std::move(fields);
      return out;
    }
    while (true) {
      JsonPtr key = string_value();
      if (key == nullptr || !consume(':')) return nullptr;
      JsonPtr val = value();
      if (val == nullptr) return nullptr;
      fields[key->str()] = std::move(val);
      if (consume(',')) continue;
      if (consume('}')) break;
      return nullptr;
    }
    out->v = std::move(fields);
    return out;
  }

  JsonPtr array() {
    if (!consume('[')) return nullptr;
    auto out = std::make_unique<JsonValue>();
    std::vector<JsonPtr> items;
    skip_ws();
    if (consume(']')) {
      out->v = std::move(items);
      return out;
    }
    while (true) {
      JsonPtr val = value();
      if (val == nullptr) return nullptr;
      items.push_back(std::move(val));
      if (consume(',')) continue;
      if (consume(']')) break;
      return nullptr;
    }
    out->v = std::move(items);
    return out;
  }

  JsonPtr string_value() {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '"') return nullptr;
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return nullptr;
        char esc = s_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
          case 'f':
            break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return nullptr;
            pos_ += 4;  // validated as hex-ish, not decoded
            break;
          }
          default:
            return nullptr;
        }
      } else {
        out.push_back(c);
      }
    }
    if (pos_ >= s_.size()) return nullptr;
    ++pos_;  // closing quote
    auto v = std::make_unique<JsonValue>();
    v->v = std::move(out);
    return v;
  }

  JsonPtr boolean() {
    auto v = std::make_unique<JsonValue>();
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v->v = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v->v = false;
      return v;
    }
    return nullptr;
  }

  JsonPtr null_value() {
    if (s_.compare(pos_, 4, "null") != 0) return nullptr;
    pos_ += 4;
    auto v = std::make_unique<JsonValue>();
    v->v = nullptr;
    return v;
  }

  JsonPtr number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+')) {
      digits |= std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0;
      ++pos_;
    }
    if (!digits) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->v = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonPtr parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

std::uint64_t exact_percentile(std::vector<std::uint64_t> sorted, double q) {
  // Same nearest-rank convention as Histogram::percentile.
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos)];
}

// ---------------------------------------------------------------------------
// Histogram

TEST(ObsHistogram, ExactInLinearRange) {
  obs::Histogram h;
  std::vector<std::uint64_t> ref;
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> val(0, 255);
  for (int i = 0; i < 5000; ++i) {
    std::uint64_t v = val(rng);
    h.record(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.percentile(q), exact_percentile(ref, q)) << "q=" << q;
  }
  EXPECT_EQ(h.min(), ref.front());
  EXPECT_EQ(h.max(), ref.back());
  EXPECT_EQ(h.count(), ref.size());
}

TEST(ObsHistogram, BoundedRelativeErrorOnWideRange) {
  obs::Histogram h;
  std::vector<std::uint64_t> ref;
  std::mt19937_64 rng(11);
  // Log-uniform over ~9 decades: stresses every octave of the layout.
  std::uniform_real_distribution<double> exp(0.0, 30.0);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(std::pow(2.0, exp(rng)));
    h.record(v);
    ref.push_back(v);
  }
  std::sort(ref.begin(), ref.end());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(exact_percentile(ref, q));
    const double approx = static_cast<double>(h.percentile(q));
    // Sub-bucket resolution is 1/128; allow 1%.
    EXPECT_NEAR(approx, exact, std::max(1.0, exact * 0.01)) << "q=" << q;
  }
  EXPECT_EQ(h.max(), ref.back());   // min/max tracked exactly
  EXPECT_EQ(h.min(), ref.front());
  const double exact_mean =
      static_cast<double>(std::accumulate(ref.begin(), ref.end(),
                                          std::uint64_t{0})) /
      static_cast<double>(ref.size());
  EXPECT_NEAR(h.mean(), exact_mean, exact_mean * 1e-9);
}

TEST(ObsHistogram, MergeMatchesCombinedRecording) {
  obs::Histogram a, b, combined;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint64_t> val(0, 1u << 20);
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t v = val(rng);
    ((i % 2 == 0) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.percentile(q), combined.percentile(q));
  }
}

TEST(ObsHistogram, BucketIndexRoundTrip) {
  std::mt19937_64 rng(19);
  for (int i = 0; i < 100000; ++i) {
    std::uint64_t v = rng() >> (rng() % 64);
    std::size_t idx = obs::Histogram::bucket_index(v);
    ASSERT_LT(idx, obs::Histogram::kNumBuckets);
    EXPECT_GE(v, obs::Histogram::bucket_lower(idx));
    EXPECT_LE(v, obs::Histogram::bucket_upper(idx));
  }
}

TEST(ObsHistogram, EmptyIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// Merge edge cases the campaign reduction leans on: merging an empty
// operand is a no-op (must not clobber min/max with the empty side's
// zero-state), and merging into an empty histogram adopts the operand.
TEST(ObsHistogram, MergeEmptyOperandIsNoOp) {
  obs::Histogram a, empty;
  a.record(5);
  a.record(9);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 9u);
  EXPECT_DOUBLE_EQ(a.mean(), 7.0);
}

TEST(ObsHistogram, MergeIntoEmptyAdoptsOperand) {
  obs::Histogram a, b;
  b.record(3);
  b.record(11);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 11u);
  EXPECT_EQ(a.percentile(0.5), b.percentile(0.5));
}

TEST(ObsHistogram, PercentileClampsQOutsideUnitInterval) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
  EXPECT_EQ(h.percentile(2.0), h.max());
}

// The histogram before its bucket array followed its range: every bucket
// allocated up front. The range-sized one must read the same through every
// reader.
struct DenseHistogram {
  std::vector<std::uint64_t> buckets =
      std::vector<std::uint64_t>(obs::Histogram::kNumBuckets, 0);
  std::uint64_t count = 0, min = 0, max = 0;
  double sum = 0.0;

  void record_n(std::uint64_t v, std::uint64_t n) {
    buckets[obs::Histogram::bucket_index(v)] += n;
    if (count == 0 || v < min) min = v;
    if (count == 0 || v > max) max = v;
    count += n;
    sum += static_cast<double>(v) * static_cast<double>(n);
  }
  void merge(const DenseHistogram& o) {
    if (o.count == 0) return;
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += o.buckets[i];
    if (count == 0 || o.min < min) min = o.min;
    if (count == 0 || o.max > max) max = o.max;
    count += o.count;
    sum += o.sum;
  }
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (count == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (cum > rank) {
        const std::uint64_t lo = obs::Histogram::bucket_lower(i);
        const std::uint64_t hi = obs::Histogram::bucket_upper(i);
        return std::clamp(lo + (hi - lo) / 2, min, max);
      }
    }
    return max;
  }
};

using BucketList =
    std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>;

BucketList buckets_of(const obs::Histogram& h) {
  BucketList out;
  h.for_each_bucket([&out](std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t n) { out.emplace_back(lo, hi, n); });
  return out;
}

BucketList buckets_of(const DenseHistogram& d) {
  BucketList out;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (d.buckets[i] == 0) continue;
    out.emplace_back(obs::Histogram::bucket_lower(i),
                     obs::Histogram::bucket_upper(i), d.buckets[i]);
  }
  return out;
}

void expect_same_reads(const obs::Histogram& h, const DenseHistogram& d,
                       const std::string& what) {
  EXPECT_EQ(h.count(), d.count) << what;
  EXPECT_EQ(h.min(), d.count ? d.min : 0) << what;
  EXPECT_EQ(h.max(), d.count ? d.max : 0) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.sum()),
            std::bit_cast<std::uint64_t>(d.sum))
      << what;
  const double dense_mean = d.count ? d.sum / static_cast<double>(d.count) : 0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(h.mean()),
            std::bit_cast<std::uint64_t>(dense_mean))
      << what;
  for (const double q : {-1.0, 0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 1.0, 2.0}) {
    EXPECT_EQ(h.percentile(q), d.percentile(q)) << what << " q=" << q;
  }
  EXPECT_EQ(buckets_of(h), buckets_of(d)) << what;
}

TEST(ObsHistogram, RangeSizedMatchesDenseReferenceInEveryOctave) {
  // Values in every octave up to 2^64 - 1: each octave's first and last
  // value and a random one between, with random multiplicities. Even
  // octaves go to `a` and odd ones to `b`, so each merge adds buckets both
  // below and above the target's own.
  std::mt19937_64 rng(41);
  obs::Histogram a, b;
  DenseHistogram da, db;
  for (unsigned exp = 0; exp < 64; ++exp) {
    const std::uint64_t first = std::uint64_t{1} << exp;
    const std::uint64_t last = first + (first - 1);
    for (const std::uint64_t v :
         {first, last, first + (exp == 0 ? 0 : rng() % first)}) {
      const std::uint64_t n = 1 + rng() % 5;
      obs::Histogram& h = exp % 2 == 0 ? a : b;
      DenseHistogram& d = exp % 2 == 0 ? da : db;
      h.record_n(v, n);
      d.record_n(v, n);
    }
  }
  a.record(0);
  da.record_n(0, 1);
  expect_same_reads(a, da, "even octaves");
  expect_same_reads(b, db, "odd octaves");
  EXPECT_EQ(b.allocated_buckets(), obs::Histogram::kNumBuckets);

  DenseHistogram both = da;
  both.merge(db);
  obs::Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  expect_same_reads(ab, both, "a.merge(b)");
  expect_same_reads(ba, both, "b.merge(a)");

  // A wide histogram merged into a narrow one, and the other way round.
  obs::Histogram narrow, wide;
  DenseHistogram dnarrow, dwide;
  for (std::uint64_t v = 0; v < 40; ++v) {
    narrow.record(v * 3);
    dnarrow.record_n(v * 3, 1);
  }
  wide.record_n(~std::uint64_t{0}, 2);
  dwide.record_n(~std::uint64_t{0}, 2);
  wide.record(1000);
  dwide.record_n(1000, 1);
  DenseHistogram dnw = dnarrow;
  dnw.merge(dwide);
  obs::Histogram nw = narrow, wn = wide;
  nw.merge(wide);
  wn.merge(narrow);
  expect_same_reads(nw, dnw, "narrow.merge(wide)");
  expect_same_reads(wn, dnw, "wide.merge(narrow)");

  // Merging into an empty histogram, and merging an empty one.
  obs::Histogram empty, into;
  into.merge(narrow);
  into.merge(empty);
  expect_same_reads(into, dnarrow, "empty.merge(narrow)");
  EXPECT_EQ(into.allocated_buckets(), narrow.allocated_buckets());
  expect_same_reads(empty, DenseHistogram{}, "empty");
}

TEST(ObsHistogram, FootprintFollowsTheRangeRecorded) {
  obs::Histogram empty;
  EXPECT_EQ(empty.allocated_buckets(), 0u);
  obs::Histogram noop;
  noop.record_n(1u << 30, 0);
  EXPECT_EQ(noop.allocated_buckets(), 0u);

  // Latency-like values below 256, recorded in rising order so every step
  // grows the array: it never holds more than the 256 linear buckets.
  constexpr std::size_t kLinear = std::size_t{1}
                                  << obs::Histogram::kLinearBits;
  obs::Histogram rising, shuffled, merged;
  for (std::uint64_t v = 0; v < kLinear; ++v) {
    rising.record(v);
    EXPECT_LE(rising.allocated_buckets(), kLinear) << v;
    EXPECT_GT(rising.allocated_buckets(), v) << v;
  }
  std::mt19937_64 rng(5);
  for (int i = 0; i < 2000; ++i) shuffled.record(rng() % 200);
  EXPECT_LE(shuffled.allocated_buckets(), kLinear);
  for (std::uint64_t v = 0; v < 40; ++v) merged.record(v);
  EXPECT_LE(merged.allocated_buckets(), 64u);
  merged.merge(shuffled);
  merged.merge(rising);
  EXPECT_LE(merged.allocated_buckets(), kLinear);
  const obs::Histogram copy = merged;
  EXPECT_LE(copy.allocated_buckets(), kLinear);

  // One value in the top octave needs the whole layout.
  merged.record(~std::uint64_t{0});
  EXPECT_EQ(merged.allocated_buckets(), obs::Histogram::kNumBuckets);
}

// ---------------------------------------------------------------------------
// Registry + JSON

TEST(ObsRegistry, LabeledInstrumentsAndJson) {
  obs::MetricsRegistry reg;
  reg.counter("pkts", {{"link", "0->1"}}).inc(3);
  reg.counter("pkts", {{"link", "0->1"}}).inc(2);  // same instrument
  reg.counter("pkts", {{"link", "1->2"}}).inc();
  reg.gauge("load").set(0.25);
  reg.histogram("lat").record(42);

  EXPECT_EQ(reg.counter("pkts", {{"link", "0->1"}}).value(), 5u);
  ASSERT_NE(reg.find_counter("pkts", {{"link", "1->2"}}), nullptr);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);

  std::ostringstream os;
  reg.write_json(os);
  JsonPtr doc = parse_json(os.str());
  ASSERT_NE(doc, nullptr) << os.str();
  const JsonValue* counters = doc->field("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->field("pkts{link=0->1}"), nullptr);
  EXPECT_DOUBLE_EQ(counters->field("pkts{link=0->1}")->number(), 5.0);
  const JsonValue* hist = doc->field("histograms");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->field("lat"), nullptr);
  EXPECT_DOUBLE_EQ(hist->field("lat")->field("count")->number(), 1.0);
}

// ---------------------------------------------------------------------------
// Registry merge (the campaign reduction)

TEST(ObsRegistry, RelabelKeyAppendsInsideExistingBraces) {
  const obs::LabelSet extra = {{"model", "random"}, {"faults", "2"}};
  EXPECT_EQ(obs::MetricsRegistry::relabel_key("lat", extra),
            "lat{model=random,faults=2}");
  EXPECT_EQ(obs::MetricsRegistry::relabel_key("lat{link=0->1}", extra),
            "lat{link=0->1,model=random,faults=2}");
  EXPECT_EQ(obs::MetricsRegistry::relabel_key("lat{link=0->1}", {}),
            "lat{link=0->1}");
  // Relabeled keys must be reachable through the normal lookup path.
  obs::MetricsRegistry reg;
  reg.counter("lat", {{"link", "0->1"}, {"model", "random"}}).inc();
  EXPECT_EQ(obs::MetricsRegistry::relabel_key("lat{link=0->1}",
                                              {{"model", "random"}}),
            "lat{link=0->1,model=random}");
  EXPECT_NE(reg.find_counter("lat", {{"link", "0->1"}, {"model", "random"}}),
            nullptr);
}

TEST(ObsRegistry, MergeAddsCountersUnderExtraLabels) {
  obs::MetricsRegistry total, trial;
  trial.counter("sim.delivered").inc(7);
  trial.counter("sim.delivered", {{"link", "a"}}).inc(2);
  obs::MergeOptions opts;
  opts.extra_labels = {{"model", "random"}};
  total.merge(trial, opts);
  total.merge(trial, opts);  // second trial of the same cell
  ASSERT_NE(total.find_counter("sim.delivered", {{"model", "random"}}),
            nullptr);
  EXPECT_EQ(total.find_counter("sim.delivered", {{"model", "random"}})
                ->value(),
            14u);
  EXPECT_EQ(total.find_counter("sim.delivered",
                               {{"link", "a"}, {"model", "random"}})
                ->value(),
            4u);
  EXPECT_EQ(total.find_counter("sim.delivered"), nullptr);  // only labeled
}

TEST(ObsRegistry, MergeGaugePolicies) {
  auto policy_for = [](obs::GaugeMerge policy) {
    obs::MergeOptions opts;
    opts.gauge_policy = [policy](const std::string&) { return policy; };
    return opts;
  };
  for (obs::GaugeMerge policy :
       {obs::GaugeMerge::kLast, obs::GaugeMerge::kMin, obs::GaugeMerge::kMax,
        obs::GaugeMerge::kSum}) {
    obs::MetricsRegistry total, a, b;
    a.gauge("g").set(3.0);
    b.gauge("g").set(1.0);
    total.merge(a, policy_for(policy));
    total.merge(b, policy_for(policy));
    double expect = 0.0;
    switch (policy) {
      case obs::GaugeMerge::kLast:
        expect = 1.0;
        break;
      case obs::GaugeMerge::kMin:
        expect = 1.0;
        break;
      case obs::GaugeMerge::kMax:
        expect = 3.0;
        break;
      case obs::GaugeMerge::kSum:
        expect = 4.0;
        break;
    }
    EXPECT_DOUBLE_EQ(total.gauge("g").value(), expect)
        << "policy " << static_cast<int>(policy);
  }
  // Default policy (no callback) is last-wins.
  obs::MetricsRegistry total, a;
  a.gauge("g").set(2.5);
  total.gauge("g").set(9.0);
  total.merge(a);
  EXPECT_DOUBLE_EQ(total.gauge("g").value(), 2.5);
}

TEST(ObsRegistry, MergedHistogramMatchesConcatenatedRecords) {
  obs::MetricsRegistry total, t1, t2;
  obs::Histogram combined;
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::uint64_t> val(0, 1u << 16);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = val(rng);
    ((i % 2 == 0) ? t1 : t2).histogram("lat").record(v);
    combined.record(v);
  }
  total.merge(t1);
  total.merge(t2);
  const obs::Histogram* merged = total.find_histogram("lat");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), combined.count());
  EXPECT_EQ(merged->min(), combined.min());
  EXPECT_EQ(merged->max(), combined.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(merged->percentile(q), combined.percentile(q));
  }
}

// ---------------------------------------------------------------------------
// Trace recorder

// Validates the trace document: parses, has a traceEvents array, every
// event carries the required fields, B/E events are well nested with
// non-decreasing timestamps per (pid,tid) lane.
void validate_trace(const std::string& text, std::size_t expect_events) {
  JsonPtr doc = parse_json(text);
  ASSERT_NE(doc, nullptr) << text.substr(0, 200);
  const JsonValue* events = doc->field("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto* arr = events->array();
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->size(), expect_events);

  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::pair<std::string, double>>>
      open_spans;  // (pid,tid) -> stack of (name, ts)
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> last_ts;
  for (const JsonPtr& ev : *arr) {
    ASSERT_NE(ev->field("name"), nullptr);
    ASSERT_NE(ev->field("ph"), nullptr);
    ASSERT_NE(ev->field("ts"), nullptr);
    ASSERT_NE(ev->field("pid"), nullptr);
    ASSERT_NE(ev->field("tid"), nullptr);
    const std::string ph = ev->field("ph")->str();
    const double ts = ev->field("ts")->number();
    const auto lane = std::make_pair(
        static_cast<std::uint64_t>(ev->field("pid")->number()),
        static_cast<std::uint64_t>(ev->field("tid")->number()));
    if (ph == "B" || ph == "E") {
      // B/E streams must be time-ordered within a lane for nesting to be
      // meaningful.
      auto it = last_ts.find(lane);
      if (it != last_ts.end()) {
        EXPECT_GE(ts, it->second);
      }
      last_ts[lane] = ts;
    }
    if (ph == "B") {
      open_spans[lane].emplace_back(ev->field("name")->str(), ts);
    } else if (ph == "E") {
      auto& stack = open_spans[lane];
      ASSERT_FALSE(stack.empty()) << "E without matching B";
      EXPECT_EQ(stack.back().first, ev->field("name")->str());
      EXPECT_GE(ts, stack.back().second);
      stack.pop_back();
    } else if (ph == "X") {
      ASSERT_NE(ev->field("dur"), nullptr);
      EXPECT_GE(ev->field("dur")->number(), 0.0);
    }
  }
  for (const auto& [lane, stack] : open_spans) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on lane " << lane.first
                               << "/" << lane.second;
  }
}

TEST(ObsTrace, JsonValidatesAndNests) {
  obs::TraceRecorder rec;
  rec.begin("t", "outer", 0, 1, 10);
  rec.begin("t", "inner", 0, 1, 12, {{"k", 1}});
  rec.instant("t", "mark \"quoted\"", 0, 1, 13);
  rec.end("t", "inner", 0, 1, 15);
  rec.end("t", "outer", 0, 1, 20);
  rec.complete("t", "span", 0, 2, 5, 7, {{"a", 1}, {"b", 2}});
  rec.counter("gauge", 0, 8, 42);

  std::ostringstream os;
  rec.write_json(os);
  validate_trace(os.str(), 7);
}

TEST(ObsTrace, CapacityBoundsMemory) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) rec.instant("t", "e", 0, 0, i);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  std::ostringstream os;
  rec.write_json(os);
  validate_trace(os.str(), 4);
}

// ---------------------------------------------------------------------------
// Sink wiring: wormhole

TEST(ObsSink, WormholeOccupancySumsToFlitCycles) {
  auto topo = make_butterfly_sim(3);
  WormholeConfig cfg;
  cfg.vcs = 6;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 20000;
  obs::Sink sink;
  sink.enable_trace();
  WormholeStats s = run_wormhole(*topo, cfg, 3, nullptr, &sink);
  ASSERT_FALSE(s.deadlocked);
  ASSERT_GT(s.packets.delivered(), 0u);

  // Per-link/per-VC occupancy must sum to the independently integrated
  // total buffered flit-cycles.
  std::uint64_t occupancy_sum = 0;
  for (const obs::LinkStats& link : sink.links()) {
    ASSERT_EQ(link.vc_occupancy.size(), cfg.vcs);
    occupancy_sum += link.occupancy();
    // A physical channel moves at most one flit per cycle.
    EXPECT_LE(link.forwarded, s.cycles);
    EXPECT_GE(link.utilization(sink.run_cycles()), 0.0);
    EXPECT_LE(link.utilization(sink.run_cycles()), 1.0);
  }
  const obs::Counter* buffered =
      sink.metrics().find_counter("wormhole.flit_cycles_buffered");
  ASSERT_NE(buffered, nullptr);
  EXPECT_EQ(occupancy_sum, buffered->value());
  EXPECT_GT(occupancy_sum, 0u);

  // Registry mirrors the run's stats.
  const obs::Counter* delivered =
      sink.metrics().find_counter("wormhole.delivered");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->value(), s.packets.delivered());
  const obs::Histogram* lat =
      sink.metrics().find_histogram("wormhole.packet_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), s.packets.delivered());
  EXPECT_EQ(lat->percentile(0.99), s.packets.latency_percentile(0.99));

  // Trace and export documents validate. Under -DHBNET_TRACE=OFF the
  // emission sites are compiled out, so the recorder legitimately
  // stays empty -- only require events when tracing is compiled in.
  ASSERT_NE(sink.trace(), nullptr);
#if HBNET_TRACE
  EXPECT_GT(sink.trace()->size(), 0u);
#endif
  std::ostringstream trace_os;
  sink.trace()->write_json(trace_os);
  validate_trace(trace_os.str(), sink.trace()->size());
  std::ostringstream metrics_os;
  sink.write_metrics_json(metrics_os);
  EXPECT_NE(parse_json(metrics_os.str()), nullptr);
}

TEST(ObsSink, WormholeWithoutSinkMatchesWithSink) {
  auto topo = make_butterfly_sim(3);
  WormholeConfig cfg;
  cfg.vcs = 6;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 20000;
  obs::Sink sink;
  WormholeStats bare = run_wormhole(*topo, cfg, 3);
  WormholeStats observed = run_wormhole(*topo, cfg, 3, nullptr, &sink);
  // Observability must not perturb the simulation.
  EXPECT_EQ(bare.cycles, observed.cycles);
  EXPECT_EQ(bare.packets.delivered(), observed.packets.delivered());
  EXPECT_EQ(bare.packets.latency_percentile(0.99),
            observed.packets.latency_percentile(0.99));
}

// ---------------------------------------------------------------------------
// Sink wiring: store-and-forward

TEST(ObsSink, StoreAndForwardLinksAndNodes) {
  auto topo = make_hyper_butterfly_sim(2, 3);
  SimConfig cfg;
  cfg.injection_rate = 0.05;
  cfg.warmup_cycles = 50;
  cfg.measure_cycles = 200;
  cfg.drain_cycles = 4000;
  obs::Sink sink;
  sink.enable_trace();
  SimStats s = run_simulation(*topo, cfg, {}, &sink);
  ASSERT_GT(s.delivered(), 0u);

  std::uint64_t moves = 0;
  for (const obs::LinkStats& link : sink.links()) moves += link.forwarded;
  const obs::Counter* moves_counter =
      sink.metrics().find_counter("sim.packet_moves");
  ASSERT_NE(moves_counter, nullptr);
  EXPECT_EQ(moves, moves_counter->value());
  // Every delivered measured packet contributes its hop count; unmeasured
  // warmup/drain packets can only add more.
  EXPECT_GE(static_cast<double>(moves),
            s.mean_hops() * static_cast<double>(s.delivered()));
  EXPECT_EQ(sink.node_occupancy().size(), topo->num_nodes());

  const obs::TimeSeries* injected = sink.find_time_series("sim.injected");
  const obs::TimeSeries* delivered = sink.find_time_series("sim.delivered");
  ASSERT_NE(injected, nullptr);
  ASSERT_NE(delivered, nullptr);
  std::uint64_t inj_sum = 0, del_sum = 0;
  for (std::uint64_t v : injected->values) inj_sum += v;
  for (std::uint64_t v : delivered->values) del_sum += v;
  EXPECT_EQ(inj_sum, del_sum);  // no faults: everything injected arrives
  EXPECT_GE(inj_sum, s.delivered());

#if HBNET_TRACE
  std::size_t packet_spans = 0;
  for (const obs::TraceEvent& ev : sink.trace()->events()) {
    if (ev.ph == 'X' && ev.cat == "packet") ++packet_spans;
  }
  EXPECT_GT(packet_spans, 0u);
#endif
  std::ostringstream trace_os;
  sink.trace()->write_json(trace_os);
  validate_trace(trace_os.str(), sink.trace()->size());
}

// ---------------------------------------------------------------------------
// Sink wiring: distsim engine

TEST(ObsSink, DistsimRoundsAndMessages) {
  // 4-cycle flood: node 0 starts, everyone forwards once, then halts.
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  Graph g = b.build();

  Protocol p;
  p.on_init = [](ProcessContext& ctx) {
    if (ctx.id() == 0) ctx.send_all({1});
  };
  p.on_round = [](ProcessContext& ctx, const std::vector<Delivery>& inbox) {
    if (!inbox.empty()) {
      ctx.send_all({1});
      ctx.halt();
    }
  };

  obs::Sink sink;
  sink.enable_trace();
  RunResult r = run_protocol(g, p, 100, &sink);
  const obs::Counter* rounds = sink.metrics().find_counter("distsim.rounds");
  const obs::Counter* messages =
      sink.metrics().find_counter("distsim.messages");
  ASSERT_NE(rounds, nullptr);
  ASSERT_NE(messages, nullptr);
  EXPECT_EQ(rounds->value(), r.rounds);
  EXPECT_EQ(messages->value(), r.messages);

  const obs::TimeSeries* ts = sink.find_time_series("distsim.messages");
  ASSERT_NE(ts, nullptr);
  std::uint64_t ts_sum = 0;
  for (std::uint64_t v : ts->values) ts_sum += v;
  EXPECT_EQ(ts_sum, r.messages);

  std::ostringstream trace_os;
  sink.trace()->write_json(trace_os);
  validate_trace(trace_os.str(), sink.trace()->size());
}

}  // namespace
}  // namespace hbnet

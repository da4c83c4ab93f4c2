// Benchmark-side spans: wall-clock intervals around the benchmark's own
// calls into hbnet modules (name, start, end, parent span, run id, call
// count). Spans stay in memory and are written once, at the end of a run,
// as Chrome trace JSON that Perfetto and chrome://tracing open directly.
//
// Single-threaded by design: the benchmark opens spans only on its main
// thread, around calls that may themselves use the hbnet thread pool.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace hbbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;

  Spans(bool enabled, std::string run_id)
      : enabled_(enabled), run_id_(std::move(run_id)), origin_(Clock::now()) {}

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// RAII span: opened by Spans::open, closed by the destructor. A span
  /// opened while recording is off costs one branch.
  class Scope {
   public:
    ~Scope() {
      if (owner_ != nullptr) owner_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Calls the span covers (a batch of probe calls is one span).
    void set_calls(std::uint64_t calls) {
      if (owner_ != nullptr) owner_->spans_[index_].calls = calls;
    }

   private:
    friend class Spans;
    Scope(Spans* owner, std::size_t index) : owner_(owner), index_(index) {}
    Spans* owner_;
    std::size_t index_;
  };

  [[nodiscard]] Scope open(std::string name, std::uint64_t calls = 1) {
    if (!enabled_) return Scope(nullptr, 0);
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({std::move(name), now_ns(), -1, parent, calls});
    stack_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Per span name: calls, total duration and self time (duration minus the
  /// part covered by child spans), in seconds.
  struct Summary {
    std::uint64_t spans = 0;
    std::uint64_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur();
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Summary& sum = out[spans_[i].name];
      sum.spans += 1;
      sum.calls += spans_[i].calls;
      sum.total_s += static_cast<double>(spans_[i].dur()) * 1e-9;
      sum.self_s += static_cast<double>(spans_[i].dur() - child_ns[i]) * 1e-9;
    }
    return out;
  }

  /// {"traceEvents":[...],"metadata":{...}}: one complete ('X') event per
  /// span with its id, parent id, run id and call count as arguments.
  /// `metadata_json` must be a JSON object.
  void write_chrome_json(std::ostream& os,
                         const std::string& metadata_json) const {
    os.setf(std::ios::fixed);  // microsecond timestamps keep ns digits
    os.precision(3);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
         << "\"cat\":\"hbbench\",\"name\":\"" << s.name << "\",\"ts\":"
         << static_cast<double>(s.start_ns) * 1e-3
         << ",\"dur\":" << static_cast<double>(s.dur()) * 1e-3
         << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
         << ",\"run_id\":\"" << run_id_ << "\",\"calls\":" << s.calls << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json
       << "}\n";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 for a root span
    std::uint64_t calls;
    [[nodiscard]] std::int64_t dur() const { return end_ns - start_ns; }
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  bool enabled_;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open spans, innermost last
};

}  // namespace hbbench

#pragma once
// Harness pieces every workload shares: the percentile rule, goodput
// accounting, in-memory spans with self time, and the run record that
// main.cpp writes out as JSON.
//
// Everything here is plain arithmetic over recorded samples so that
// selftest.cpp can check it without running a workload.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace polarice::e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Median with linear interpolation between the two middle ranks; 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// One reported tail: the value at percentile `q` of `n` samples.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

/// The highest percentile, capped at p99, that has at least ten samples
/// strictly beyond it. On sorted samples x[0..n-1] the sample at rank r has
/// n-1-r samples beyond it, so r <= n-11; the reported percentile is
/// r/(n-1). Empty when fewer than 11 samples exist: no percentile
/// qualifies.
inline std::optional<Tail> tail(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 11) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto p99_rank =
      static_cast<std::size_t>(std::floor(0.99 * static_cast<double>(n - 1)));
  const std::size_t rank = std::min(p99_rank, n - 11);
  return Tail{static_cast<double>(rank) / static_cast<double>(n - 1),
              values[rank], n};
}

// ---------------------------------------------------------------------------
// Goodput
// ---------------------------------------------------------------------------

enum class Outcome {
  kCompleted,  // plane delivered and equal to its reference
  kIncorrect,  // plane delivered but different from its reference
  kShed,       // resolved DeadlineExceeded
  kRejected,   // refused by admission control
  kFailed,     // any other error
};

struct RequestRecord {
  Outcome outcome = Outcome::kFailed;
  double latency_ms = 0.0;  // due time -> plane observed (completed only)
  double mpix = 0.0;        // scene megapixels of the request
};

struct Goodput {
  std::size_t good = 0;     // correct planes within the latency limit
  double good_mpix = 0.0;
  double qps = 0.0;         // good / window
  double mpix_per_s = 0.0;  // good_mpix / window
};

/// Counts only correct planes delivered within `limit_ms`; shed, rejected,
/// failed and incorrect requests, and late planes, are all misses.
inline Goodput goodput(const std::vector<RequestRecord>& records,
                       double limit_ms, double window_s) {
  Goodput out;
  for (const auto& r : records) {
    if (r.outcome != Outcome::kCompleted || r.latency_ms > limit_ms) continue;
    ++out.good;
    out.good_mpix += r.mpix;
  }
  if (window_s > 0.0) {
    out.qps = static_cast<double>(out.good) / window_s;
    out.mpix_per_s = out.good_mpix / window_s;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer. Times are milliseconds on
/// the run's steady-clock axis; `parent` indexes the span that caused this
/// one (-1 for a root); spans of one request share `request`.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// Spans stay in memory while the run measures and are written out when it
/// ends. add() is thread-safe and returns the span's id (its index).
class SpanLog {
 public:
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::uint64_t request = 0) {
    Span span{std::move(name), ms_between(origin_, start),
              ms_between(origin_, end), parent, request};
    const std::scoped_lock lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::scoped_lock lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// each other, e.g. parallel work, and are clipped to the parent).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0, run_end = 0.0;
    bool open = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

/// Per-name aggregate of spans: count, total and self time.
struct SpanSummary {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

inline std::vector<SpanSummary> summarize(const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::vector<SpanSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const SpanSummary& s) {
      return s.name == spans[i].name;
    });
    if (it == out.end()) {
      out.push_back(SpanSummary{spans[i].name});
      it = out.end() - 1;
    }
    ++it->count;
    it->total_ms += spans[i].end_ms - spans[i].start_ms;
    it->self_ms += self[i];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Run record
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `end_to_end` is measured untraced;
/// `per_layer` and `spans` come from the traced run.
struct Record {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<Span> spans;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string text) {
    notes.emplace_back(std::move(key), std::move(text));
  }
  /// A failed correctness gate: counted as a failed operation and recorded.
  void fail(const std::string& why) {
    correct = false;
    ++failed;
    note("failure", why);
  }
  [[nodiscard]] const Metric* find_layer(const std::string& name) const {
    for (const auto& m : per_layer) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
};

}  // namespace polarice::e2e

// Checks the benchmark harness's own arithmetic: the tail-percentile rule,
// goodput counting, and span self time. Exits non-zero on the first
// mismatch. run.py --selftest runs it next to the stamp tests.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace polarice::e2e;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  // Fewer than 11 samples: no percentile has ten samples beyond it.
  expect(!tail(ramp(10)).has_value(), "10 samples have no tail");
  // 11 samples: only the minimum has ten beyond it.
  auto t = tail(ramp(11));
  expect(t && near(t->value, 0.0) && near(t->q, 0.0), "11 samples -> p0");
  // 100 samples: rank n-11 = 89 is the highest with ten beyond it.
  t = tail(ramp(100));
  expect(t && near(t->value, 89.0) && near(t->q, 89.0 / 99.0),
         "100 samples -> rank 89");
  // 2000 samples: p99 (rank floor(0.99*1999) = 1979) has 20 beyond it.
  t = tail(ramp(2000));
  expect(t && near(t->value, 1979.0) && near(t->q, 1979.0 / 1999.0),
         "2000 samples -> p99");
  // Exactly ten samples lie strictly beyond the reported value.
  for (const std::size_t n : {11u, 57u, 300u, 1001u, 1011u}) {
    t = tail(ramp(n));
    std::size_t beyond = 0;
    for (const double v : ramp(n)) beyond += v > t->value;
    expect(beyond >= 10, "at least ten beyond, n=" + std::to_string(n));
  }
  // Order of input does not matter.
  std::vector<double> shuffled{5, 1, 9, 3, 7, 0, 2, 8, 6, 4, 10, 11};
  t = tail(shuffled);
  expect(t && near(t->value, 1.0), "unsorted input");
  expect(near(median({3, 1, 2}), 2.0), "odd median");
  expect(near(median({4, 1, 2, 3}), 2.5), "even median");
}

void goodput_counting() {
  const std::vector<RequestRecord> records{
      {Outcome::kCompleted, 10.0, 1.0},   // good
      {Outcome::kCompleted, 99.0, 2.0},   // good, at the limit's edge
      {Outcome::kCompleted, 101.0, 4.0},  // late: miss
      {Outcome::kIncorrect, 5.0, 8.0},    // wrong plane: miss
      {Outcome::kShed, 0.0, 16.0},        // miss
      {Outcome::kRejected, 0.0, 32.0},    // miss
      {Outcome::kFailed, 0.0, 64.0},      // miss
  };
  const Goodput g = goodput(records, 100.0, 2.0);
  expect(g.good == 2, "two good requests");
  expect(near(g.good_mpix, 3.0), "good megapixels");
  expect(near(g.qps, 1.0), "goodput qps over the offered window");
  expect(near(g.mpix_per_s, 1.5), "goodput megapixels per second");
  const Goodput none = goodput({}, 100.0, 2.0);
  expect(none.good == 0 && near(none.qps, 0.0), "empty window");
}

void self_time() {
  // root [0,100] with children [10,30] and [20,50] (overlapping: union
  // covers 40) and a grandchild [12,18] under the first child.
  const std::vector<Span> spans{
      {"root", 0, 100, -1, 1},  {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},      {"a.child", 12, 18, 1, 1},
      {"other", 0, 10, -1, 2},  // another root, no children
      {"clipped", 90, 120, 0, 1},  // extends past the parent: clip to 10
  };
  const auto self = self_times(spans);
  expect(near(self[0], 100.0 - 40.0 - 10.0), "root self time");
  expect(near(self[1], 20.0 - 6.0), "child self time minus grandchild");
  expect(near(self[2], 30.0), "leaf self time");
  expect(near(self[3], 6.0), "grandchild self time");
  expect(near(self[4], 10.0), "childless root");
  const auto summary = summarize(spans);
  expect(summary.size() == 6 && summary[0].name == "root" &&
             summary[0].count == 1 && near(summary[0].self_ms, 50.0),
         "summary by name");
}

}  // namespace

int main() {
  percentile_rule();
  goodput_counting();
  self_time();
  if (failures == 0) std::printf("e2e_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

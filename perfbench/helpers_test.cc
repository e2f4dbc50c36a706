// Tests for the benchmark's measurement helpers (bench_util.h). Plain
// checks that stay on in every build type; exits non-zero on any failure.
//
//   cmake --build .bench_build/perfbench --target perfbench_helpers_test
//   .bench_build/perfbench/perfbench_helpers_test

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void TestPercentiles() {
  using perfbench::Percentile;
  Check(Percentile({}, 0.5) == 0.0, "empty sample percentile is 0");
  Check(Percentile({7.0}, 0.0) == 7.0 && Percentile({7.0}, 0.99) == 7.0,
        "one sample: every percentile is that sample");
  Check(Near(Percentile({1.0, 3.0}, 0.5), 2.0), "two samples: median is mid");
  Check(Near(Percentile({3.0, 1.0}, 0.9), 2.8), "two samples: p90 unsorted");
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  Check(Near(Percentile(ten, 0.5), 5.5), "ten samples: median");
  Check(Near(Percentile(ten, 0.9), 9.1), "ten samples: p90");
  Check(Near(Percentile(ten, 1.0), 10.0), "ten samples: max");
  std::vector<double> hundred_one;
  for (int i = 0; i <= 100; ++i) hundred_one.push_back(i);
  Check(Near(Percentile(hundred_one, 0.99), 99.0), "101 samples: p99 exact");
  Check(Near(perfbench::Median({4.0, 1.0, 3.0}), 3.0), "odd-count median");
}

void TestPoissonSchedule() {
  using perfbench::PoissonSchedule;
  const std::vector<double> a = PoissonSchedule(42, 2000.0, 1.0);
  const std::vector<double> b = PoissonSchedule(42, 2000.0, 1.0);
  const std::vector<double> c = PoissonSchedule(43, 2000.0, 1.0);
  Check(a == b, "same seed gives the same schedule");
  Check(a != c, "another seed gives another schedule");
  Check(a.size() > 1800 && a.size() < 2200, "about rate x duration arrivals");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] > a[i - 1];
  Check(sorted && a.front() > 0.0 && a.back() < 1.0,
        "offsets increase inside [0, duration)");
  Check(PoissonSchedule(1, 0.0, 1.0).empty(), "zero rate sends nothing");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,10] has children a [1,4] and b [3,6] (overlapping: cover
  // [1,6] = 5) and c [9,12] clipped to [9,10]; a has child a2 [2,3].
  std::vector<Span> spans = {
      {"bench.run", 0.0, 10.0, -1}, {"core.a", 1.0, 4.0, 0},
      {"models.b", 3.0, 6.0, 0},    {"serve.c", 9.0, 12.0, 0},
      {"nn.a2", 2.0, 3.0, 1},
  };
  std::map<std::string, double> self = perfbench::SelfTimeByLayer(spans);
  Check(Near(self["bench"], 10.0 - 6.0), "root self excludes merged children");
  Check(Near(self["core"], 3.0 - 1.0), "child self excludes grandchild");
  Check(Near(self["models"], 3.0), "leaf self is its duration");
  Check(Near(self["serve"], 3.0), "leaf past its parent keeps its duration");
  Check(Near(self["nn"], 1.0), "grandchild leaf");

  perfbench::Tracer off(false);
  { perfbench::ScopedSpan s(&off, "core.x"); }
  Check(off.spans().empty(), "disabled tracer records nothing");
  perfbench::Tracer on(true);
  {
    perfbench::ScopedSpan outer(&on, "bench.outer");
    perfbench::ScopedSpan inner(&on, "core.inner");
  }
  std::vector<Span> rec = on.spans();
  Check(rec.size() == 2 && rec[0].parent == -1 && rec[1].parent == 0,
        "nested spans record their parent");
  Check(rec[1].start >= rec[0].start && rec[1].end <= rec[0].end,
        "child interval inside parent");
}

void TestRepeatShare() {
  using perfbench::RepeatShare;
  Check(RepeatShare({1, 2, 3, 4}, 64) == 0.0, "distinct keys never repeat");
  Check(Near(RepeatShare({1, 1, 2, 1}, 64), 0.5), "two of four repeat");
  Check(Near(RepeatShare({1, 2, 3, 1}, 2), 0.0), "repeat outside the window");
  Check(Near(RepeatShare({1, 2, 3, 1}, 3), 0.25), "repeat at window edge");
}

}  // namespace

int main() {
  TestPercentiles();
  TestPoissonSchedule();
  TestSelfTime();
  TestRepeatShare();
  if (failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

// Self-test of the benchmark's own arithmetic (bench_math.h): nearest-rank
// percentiles and sample counts, the stall-robust grouped percentile and
// per-window rates, self time against a hand-built span set with overlapping
// children, and Poisson schedule determinism. run.py runs
// it after every build; a nonzero exit stops the benchmark.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

void percentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  check(perfbench::percentile(hundred, 50) == 50, "p50 of 1..100 is the 50th value");
  check(perfbench::percentile(hundred, 99) == 99, "p99 of 1..100 is the 99th value");
  check(perfbench::percentile(hundred, 100) == 100, "p100 is the maximum");
  check(perfbench::percentile(hundred, 1) == 1, "p1 of 1..100 is the minimum");
  check(perfbench::percentile(hundred, 0) == 1, "p0 clamps to the first rank");
  check(hundred.size() == 100, "percentile leaves the caller's samples alone");

  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  check(perfbench::percentile(ten, 90) == 9, "p90 of 10 samples is rank 9");
  check(perfbench::percentile(ten, 91) == 10, "p91 of 10 samples rounds up to rank 10");
  check(perfbench::percentile(ten, 99) == 10, "p99 of 10 samples is the maximum");
  check(perfbench::percentile({3, 1, 2}, 50) == 2, "p50 of three samples is the middle one");
  check(perfbench::percentile({7}, 99) == 7, "one sample answers every percentile");
  check(perfbench::percentile({}, 50) == 0, "an empty sample reads 0");
}

void robust_summaries() {
  // Three groups of 100: the middle one holds a stall. Each group's p99 is
  // its 99th value; the median over groups ignores the stalled group.
  std::vector<double> xs;
  for (int g = 0; g < 3; ++g) {
    for (int i = 1; i <= 100; ++i) xs.push_back(g == 1 ? 1000.0 + i : i);
  }
  check(perfbench::grouped_percentile(xs, 100, 99) == 99, "median of per-group p99");
  check(perfbench::grouped_percentile(xs, 1000, 99) == 1097, "one group when short of a group");
  xs.push_back(5000);  // the remainder joins the last group
  check(perfbench::grouped_percentile(xs, 100, 100) == 1100, "remainder joins the last group");

  // Four 1 s windows from t = 10 s holding 2, 2, 0 and 5 events; one event
  // before t0 and one after the last window fall outside. Half-second
  // windows double the rates.
  const std::int64_t s = 1'000'000'000;
  std::vector<perfbench::Completion> ev;
  for (const std::int64_t t : {-1LL, 0LL, 1LL, 2LL}) ev.push_back({t * s / 2 + 10 * s, 1.0});
  ev.push_back({11 * s + 5, 1.0});
  for (int i = 0; i < 5; ++i) ev.push_back({13 * s + i, 1.0});
  ev.push_back({14 * s, 1.0});
  check(perfbench::window_rates(ev, 10 * s, s, 4) == std::vector<double>({2, 2, 0, 5}),
        "events per window, per second");
  check(perfbench::window_rates(ev, 10 * s, s / 2, 2) == std::vector<double>({2, 2}),
        "half-second windows");
  ev.front().weight = 0.5;
  check(perfbench::window_rates(ev, 9 * s, s, 1) == std::vector<double>({0.5}),
        "weights sum per window");
  check(perfbench::window_rates(ev, 10 * s, s, 0).empty(), "no windows");
}

void self_time() {
  using perfbench::Interval;
  const Interval parent{0, 100};
  // Overlapping [10,30) and [20,40), a child nested in another, one sticking
  // out of each end of the parent, and one entirely outside it.
  const std::vector<Interval> children = {{20, 40}, {10, 30}, {12, 15}, {50, 60},
                                          {95, 120}, {-5, 2},  {150, 160}};
  // Covered inside the parent: [0,2) + [10,40) + [50,60) + [95,100) = 47.
  check(perfbench::covered_ns(parent, children) == 47, "union of overlapping children");
  check(perfbench::self_ns(parent, children) == 53, "self time = span - union of children");
  check(perfbench::self_ns(parent, {}) == 100, "a span without children is all self time");
  check(perfbench::self_ns(parent, {{0, 100}, {30, 70}}) == 0,
        "fully covered span has no self time");
  check(perfbench::self_ns({5, 5}, {{0, 10}}) == 0, "empty span");
}

void poisson() {
  const std::int64_t ten_s = 10'000'000'000;
  const auto a = perfbench::poisson_schedule(1000.0, ten_s, realm::util::Rng(42));
  const auto b = perfbench::poisson_schedule(1000.0, ten_s, realm::util::Rng(42));
  const auto c = perfbench::poisson_schedule(1000.0, ten_s, realm::util::Rng(43));
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");
  bool ascending = !a.empty() && a.front() >= 0 && a.back() < ten_s;
  for (std::size_t i = 1; i < a.size(); ++i) ascending = ascending && a[i] >= a[i - 1];
  check(ascending, "due times ascend inside the phase");
  // 10000 expected arrivals, standard deviation 100: 5 sigma either way.
  check(a.size() > 9500 && a.size() < 10500, "arrival count matches the rate");
  check(perfbench::poisson_schedule(0.0, ten_s, realm::util::Rng(1)).empty(), "zero rate");
}

}  // namespace

int main() {
  percentiles();
  robust_summaries();
  self_time();
  poisson();
  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}

// The benchmark's own arithmetic, kept free of timing and I/O so the
// self-test can pin it: nearest-rank percentiles, span self time, and the
// seeded Poisson arrival schedule of the open-loop phases.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least p% of the
/// samples are <= it (rank ceil(p/100 * n), 1-based). p is clamped to
/// (0, 100]; an empty sample reads 0 — callers report the sample count beside
/// every percentile so an empty one is visible.
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double exact = clamped / 100.0 * static_cast<double>(xs.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(xs.begin(), nth, xs.end());
  return *nth;
}

/// Tail percentile robust to one transient stall: split `samples` (in
/// arrival order) into consecutive groups of `group` (the remainder joins the
/// last group), take each group's nearest-rank percentile `p`, and return the
/// median of those. Fewer than `group` samples form one group.
[[nodiscard]] inline double grouped_percentile(const std::vector<double>& samples,
                                               std::size_t group, double p) {
  group = std::max<std::size_t>(1, group);
  const std::size_t groups = std::max<std::size_t>(1, samples.size() / group);
  std::vector<double> per_group;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(g * group);
    const auto last = g + 1 == groups ? samples.end() : first + static_cast<std::ptrdiff_t>(group);
    per_group.push_back(percentile(std::vector<double>(first, last), p));
  }
  return percentile(per_group, 50);
}

/// One completion: when it happened and how much work it carried.
struct Completion {
  std::int64_t t_ns = 0;
  double weight = 1.0;
};

/// Rates per window: the summed `weight` of the events that landed in each of
/// the `windows` equal windows of [t0, t0 + windows * window_ns), per second.
/// Callers pool the windows of several segments and report their median, so
/// a transient stall of the machine moves a window, not the figure.
[[nodiscard]] inline std::vector<double> window_rates(const std::vector<Completion>& events,
                                                      std::int64_t t0, std::int64_t window_ns,
                                                      std::size_t windows) {
  std::vector<double> rates(window_ns > 0 ? windows : 0, 0.0);
  for (const Completion& e : events) {
    if (e.t_ns < t0) continue;
    const auto w = static_cast<std::size_t>((e.t_ns - t0) / window_ns);
    if (w < rates.size()) rates[w] += e.weight;
  }
  for (double& r : rates) r /= static_cast<double>(window_ns) / 1e9;
  return rates;
}

/// Half-open time interval [t0, t1) in nanoseconds.
struct Interval {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Length of the union of `children`, each clipped to `parent`. Overlapping
/// children count once.
[[nodiscard]] inline std::int64_t covered_ns(const Interval& parent,
                                             std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    const std::int64_t a = std::max(c.t0, parent.t0);
    const std::int64_t b = std::min(c.t1, parent.t1);
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
  return covered;
}

/// A layer's self time: its span minus the part its child spans cover.
[[nodiscard]] inline std::int64_t self_ns(const Interval& parent,
                                          std::vector<Interval> children) {
  return (parent.t1 - parent.t0) - covered_ns(parent, std::move(children));
}

/// Open-loop arrival schedule: due times (ns offsets from the phase start,
/// ascending, all < duration_ns) of a Poisson process at `rate_per_s`,
/// drawn from `rng` alone, so one seed always yields one schedule.
[[nodiscard]] inline std::vector<std::int64_t> poisson_schedule(double rate_per_s,
                                                                std::int64_t duration_ns,
                                                                realm::util::Rng rng) {
  std::vector<std::int64_t> due;
  if (!(rate_per_s > 0.0) || duration_ns <= 0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * static_cast<double>(duration_ns) / 1e9 * 1.2));
  double t_s = 0.0;
  const double horizon_s = static_cast<double>(duration_ns) / 1e9;
  for (;;) {
    const double u = 1.0 - rng.uniform();  // (0, 1]: log stays finite
    t_s += -std::log(u) / rate_per_s;
    if (t_s >= horizon_s) break;
    due.push_back(static_cast<std::int64_t>(t_s * 1e9));
  }
  return due;
}

}  // namespace perfbench

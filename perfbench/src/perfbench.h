// Shared plumbing of realm_perfbench: run options, the metric record a
// workload fills, the benchmark's own span log, and the workload entry
// points (serve.cpp, prefill.cpp, campaign.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run (set-up and warm-up excluded)
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `attempted`/`failed` count the workload's
/// operations (requests, projection calls, injection trials); `wrong` counts
/// outputs, verdicts or invariants that disagreed with the oracle, each of
/// which is also a failed operation and makes the run incorrect.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> errors;  ///< first few oracle misses, for the log

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// An operation failed without a wrong answer (refused, expired, threw).
  void fail() { ++failed; }
  /// An oracle miss: a failed operation and an incorrect run.
  void miss(const std::string& why, std::uint64_t ops = 1) {
    failed += ops;
    ++wrong;
    if (errors.size() < 8) errors.push_back(why);
  }
  [[nodiscard]] bool correct() const noexcept { return wrong == 0; }
};

/// One span the benchmark records around a public call it makes.
struct BenchSpan {
  const char* name = "";
  Interval t;
  int parent = -1;  ///< index into the log, -1 for a root
};

/// The benchmark's own spans: kept in memory, analysed when the run ends.
/// A null SpanLog* means "untraced" at every call site.
class SpanLog {
 public:
  int add(const char* name, std::int64_t t0, std::int64_t t1, int parent = -1) {
    spans_.push_back(BenchSpan{name, Interval{t0, t1}, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Open a span whose children are recorded before it ends; close() sets
  /// its end time.
  int open(const char* name, std::int64_t t0) { return add(name, t0, t0); }
  void close(int span, std::int64_t t1) { spans_.at(static_cast<std::size_t>(span)).t.t1 = t1; }
  /// Durations (in `scale` ns units) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const char* name, double scale) const;
  /// Per-parent sum of the durations of `name` spans, one entry per parent
  /// span named `parent_name` (in `scale` ns units).
  [[nodiscard]] std::vector<double> sums_per_parent(const char* name, const char* parent_name,
                                                    double scale) const;

 private:
  std::vector<BenchSpan> spans_;
};

/// Every event the tracer still holds, plus the ring accounting behind
/// obs.events / obs.dropped.
struct TraceDump {
  std::vector<realm::obs::Event> events;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};
[[nodiscard]] TraceDump dump_tracer(const realm::obs::Tracer& tracer);

/// The request stream a library span belongs to (inverse of obs::span_id).
[[nodiscard]] constexpr std::uint64_t stream_of(std::uint64_t span_id) noexcept {
  return (span_id >> 24) - 1;
}

/// Run `build` `reps` times, returning the median wall time in seconds. The
/// state of the last build is what the run then measures.
[[nodiscard]] double median_setup_s(int reps, const std::function<void()>& build);

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Sleep until util::now_ns() reaches `t_ns`. The generator paces itself
/// this way rather than spinning, so it leaves its core to whatever else the
/// machine runs instead of making the engine workers compete for one.
void sleep_until(std::int64_t t_ns);

void run_serve(const Options& opt, bool faulty, Result& out);
void run_prefill(const Options& opt, Result& out);
void run_campaign(const Options& opt, Result& out);

}  // namespace perfbench

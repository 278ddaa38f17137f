// fault-campaign: the paper's error-injection study through sa::run_sweep at
// the serving tile shapes (64x1024x256 and 8x1024x256), one call per
// component (accumulator, activations, weights) with the default widths,
// BERs and bit positions on a 4-thread pool. Round 0 opens the untimed
// warm-up and is the source of the simulated statistics; every round
// reseeds, and those after the warm-up are timed. Every call must hold the
// coverage_sweep invariants.
#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "perfbench.h"
#include "sa/roc.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace perfbench {
namespace {

using realm::fault::Component;
using realm::util::now_ns;
using realm::util::Rng;

constexpr std::size_t kPoolThreads = 4;
constexpr int kSetupReps = 5;
constexpr std::size_t kGoldenRuns = 16;
constexpr double kWarmupS = 2.0;  ///< untimed rounds before measuring
const std::vector<realm::sa::SweepShape> kShapes = {{64, 1024, 256}, {8, 1024, 256}};

struct Part {
  Component component;
  const char* span;  ///< benchmark span around its run_sweep call
};
constexpr std::array<Part, 3> kParts = {{{Component::kAccumulator, "sa.accumulator"},
                                         {Component::kActivations, "sa.activations"},
                                         {Component::kWeights, "sa.weights"}}};

/// The coverage_sweep acceptance invariants for one call's summary; returns
/// the first violation or "".
std::string invariant_violation(const realm::sa::CoverageSummary& sum) {
  std::vector<realm::sa::WidthTally> ordered = sum.widths;
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.bits < b.bits; });
  for (std::size_t w = 1; w < ordered.size(); ++w) {
    if (ordered[w].detected < ordered[w - 1].detected) return "coverage not monotone in width";
  }
  if (!ordered.empty() && sum.reference.detected < ordered.back().detected) {
    return "reference detected less than the widest datapath";
  }
  for (const realm::sa::WidthTally& t : sum.widths) {
    if (t.bits == 64 && t.single_patched != t.single_fault) return "full-width 1-fault patch < 1";
  }
  if (sum.reference.single_patched != sum.reference.single_fault) {
    return "reference 1-fault patch rate < 1";
  }
  if (sum.reference.scrub_missed != 0) return "reference-width scrub missed a fault";
  return "";
}

struct Totals {
  std::uint64_t trials = 0;
  double busy_s = 0;
  std::vector<double> call_ms;
  std::array<std::vector<double>, kParts.size()> part_s;  ///< call times per component
  std::array<std::uint64_t, kParts.size()> part_trials{};  ///< trials per call
  std::array<double, kParts.size()> part_ops{};            ///< int8 GEMM ops per call

  /// Rates over one median round (each component's median call time), so a
  /// transient stall of the machine does not move them.
  [[nodiscard]] double per_round(bool ops) const {
    double t = 0, work = 0;
    for (std::size_t i = 0; i < kParts.size(); ++i) {
      t += percentile(part_s[i], 50);
      work += ops ? part_ops[i] : static_cast<double>(part_trials[i]);
    }
    return t > 0 ? work / t : 0.0;
  }
};

class Campaign {
 public:
  Campaign(std::uint64_t seed, std::uint64_t threshold, Result& out)
      : root_(Rng(seed).fork(800)), threshold_(threshold), out_(out) {}

  /// One round: every component once, reseeded per round.
  void round(std::uint64_t index, Totals& totals, SpanLog* log, realm::sa::CoverageSummary* keep) {
    for (std::size_t i = 0; i < kParts.size(); ++i) {
      realm::sa::SweepConfig cfg;
      cfg.shapes = kShapes;
      cfg.components = {kParts[i].component};
      cfg.seed = root_.fork(index).next();
      cfg.msd_threshold = threshold_;
      const std::int64_t t0 = now_ns();
      const realm::sa::SweepResult res = realm::sa::run_sweep(cfg);
      const std::int64_t t1 = now_ns();
      if (log != nullptr) log->add(kParts[i].span, t0, t1);
      const realm::sa::CoverageSummary sum = realm::sa::summarize(res);
      out_.attempted += sum.trials;
      const std::string bad = invariant_violation(sum);
      if (!bad.empty()) out_.miss(std::string(kParts[i].span) + ": " + bad, sum.trials);
      if (keep != nullptr) keep[i] = sum;
      totals.trials += sum.trials;
      totals.part_trials[i] = sum.trials;
      totals.part_ops[i] = 0;
      for (const realm::sa::CellResult& cell : res.cells) {
        const realm::sa::SweepShape& s = kShapes[cell.shape_index];
        totals.part_ops[i] += 2.0 * static_cast<double>(cell.trials * s.m * s.k * s.n);
      }
      totals.busy_s += static_cast<double>(t1 - t0) / 1e9;
      totals.call_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      totals.part_s[i].push_back(static_cast<double>(t1 - t0) / 1e9);
    }
  }

  Totals run_for(double seconds, std::uint64_t& next_round, SpanLog* log) {
    Totals t;
    while (t.busy_s < seconds) round(next_round++, t, log, nullptr);
    return t;
  }

 private:
  Rng root_;
  std::uint64_t threshold_;
  Result& out_;
};

double ratio(double n, double d) { return d > 0.0 ? n / d : 0.0; }

}  // namespace

void run_campaign(const Options& opt, Result& out) {
  // Set-up: the kernel pool, then the paper's offline step of calibrating
  // the MSD threshold on fault-free GEMMs at each serving tile shape.
  std::uint64_t threshold = 0;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    realm::util::set_global_threads(kPoolThreads);
    Rng rng = Rng(opt.seed).fork(900);
    threshold = 0;
    for (const realm::sa::SweepShape& s : kShapes) {
      realm::tensor::MatF w(s.k, s.n);
      for (float& v : w.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      realm::detect::ProtectedGemm pg;
      pg.set_weights(w);
      threshold = std::max(threshold,
                           realm::detect::calibrate_msd_threshold(pg, s.m, kGoldenRuns, rng));
    }
  });
  // Integer checksums are exact: any fault-free deviation is a defect.
  if (threshold != 0) out.miss("fault-free calibration saw a nonzero MSD", 0);

  Campaign campaign(opt.seed, threshold, out);
  std::array<realm::sa::CoverageSummary, kParts.size()> stats;
  Totals warm;
  campaign.round(0, warm, nullptr, stats.data());
  std::uint64_t next_round = 1;
  (void)campaign.run_for(kWarmupS - warm.busy_s, next_round, nullptr);

  if (!opt.trace) {
    const Totals t = campaign.run_for(opt.seconds, next_round, nullptr);
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", t.per_round(false), "1/s");
    out.set("gemm_gops", t.per_round(true) / 1e9, "GOP/s");
    out.set("latency_p50_ms", percentile(t.call_ms, 50), "ms");
    out.set("latency_p95_ms", percentile(t.call_ms, 95), "ms");
    out.set("latency_samples", static_cast<double>(t.call_ms.size()), "count");
    return;
  }

  const Totals plain = campaign.run_for(opt.seconds / 2, next_round, nullptr);
  SpanLog log;
  const Totals traced = campaign.run_for(opt.seconds / 2, next_round, &log);
  for (const Part& p : kParts) {
    out.set(std::string(p.span) + "_s", percentile(log.durations(p.span, 1e9), 50), "s");
  }
  realm::sa::CoverageSummary total;
  for (const realm::sa::CoverageSummary& s : stats) {
    total.faulty += s.faulty;
    total.reference.detected += s.reference.detected;
    total.reference.patched += s.reference.patched;
    total.reference.scrub_missed += s.reference.scrub_missed;
  }
  out.set("sa.faulty_trials", static_cast<double>(total.faulty), "count");
  for (const int bits : {16, 24, 32}) {
    std::size_t detected = 0;
    for (const realm::sa::CoverageSummary& s : stats) {
      for (const realm::sa::WidthTally& t : s.widths) {
        if (t.bits == bits) detected += t.detected;
      }
    }
    out.set("sa.detected.w" + std::to_string(bits), static_cast<double>(detected), "count");
  }
  out.set("sa.detected.ref", static_cast<double>(total.reference.detected), "count");
  out.set("sa.patched.ref", static_cast<double>(total.reference.patched), "count");
  out.set("sa.scrub_missed.ref", static_cast<double>(total.reference.scrub_missed), "count");
  out.set("latency_samples", static_cast<double>(traced.call_ms.size()), "count");
  out.set("obs.trace_overhead", ratio(traced.per_round(false), plain.per_round(false)), "ratio");
}

}  // namespace perfbench

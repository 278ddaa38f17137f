// prefill-block: one caller pushes an m=512 prompt through the seven linear
// projections of one decoder block (hidden 2048, FFN 5632) in a closed loop.
// Each projection is float activations -> tensor::quantize (static scale) ->
// ProtectedGemm::run_quantized_into on a 4-thread kernel pool, fault-free.
// Outputs are checked against an unprotected gemm_i8_prepacked +
// dequantize_acc of the same operands.
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "perfbench.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace perfbench {
namespace {

using realm::obs::SpanKind;
using realm::util::now_ns;
using realm::util::Rng;

constexpr std::size_t kM = 512;
constexpr std::size_t kPoolThreads = 4;
constexpr int kSetupReps = 3;
constexpr double kWarmupS = 2.0;
constexpr int kRawReps = 3;

struct Projection {
  const char* protect_span;  ///< benchmark span around the protected call
  const char* raw_span;      ///< benchmark span around the raw GEMM
  std::size_t k;
  std::size_t n;
  std::size_t input;  ///< which activation feeds it
};
constexpr std::array<Projection, 7> kProj = {{
    {"protect.q", "raw.q", 2048, 2048, 0},
    {"protect.k", "raw.k", 2048, 256, 0},
    {"protect.v", "raw.v", 2048, 256, 0},
    {"protect.o", "raw.o", 2048, 2048, 1},
    {"protect.gate", "raw.gate", 2048, 5632, 2},
    {"protect.up", "raw.up", 2048, 5632, 2},
    {"protect.down", "raw.down", 5632, 2048, 3},
}};
constexpr std::array<std::size_t, 4> kInputCols = {2048, 2048, 2048, 5632};

double pass_ops() {
  double ops = 0;
  for (const Projection& p : kProj) ops += 2.0 * static_cast<double>(kM * p.k * p.n);
  return ops;
}

/// Operand bytes one pass must move at least once: float activations in,
/// int8 activations, int16 packed weight panels, the int32 accumulator and
/// the float output. Computed from tensor sizes, not measured.
double pass_bytes() {
  double bytes = 0;
  for (const Projection& p : kProj) {
    bytes += static_cast<double>(kM * p.k) * (4 + 1);
    bytes += static_cast<double>(p.k * p.n) * 2;
    bytes += static_cast<double>(kM * p.n) * (4 + 4);
  }
  return bytes;
}

struct Block {
  std::array<realm::detect::ProtectedGemm, kProj.size()> pg;
  std::array<realm::tensor::QuantParams, kInputCols.size()> qa{};
};

class Runner {
 public:
  Runner(const Block& block, const std::array<realm::tensor::MatF, kInputCols.size()>& x,
         const std::array<realm::tensor::MatF, kProj.size()>& refs, Result& out)
      : block_(block), x_(x), refs_(refs), out_(out) {}

  /// One block pass; returns its wall time in seconds. Spans go to `log`
  /// and `tracer` when tracing.
  double pass(SpanLog* log, realm::obs::Tracer* tracer) {
    const std::int64_t p0 = now_ns();
    const int pass_span = log != nullptr ? log->open("pass", p0) : -1;
    for (std::size_t p = 0; p < kProj.size(); ++p) {
      const Projection& proj = kProj[p];
      const realm::obs::ScopedRequestTrace request(tracer, 1, stream_++, 0,
                                                   tracer != nullptr ? tracer->now_ns() : 0);
      const std::int64_t q0 = now_ns();
      const realm::tensor::MatI8 a8 =
          realm::tensor::quantize(x_[proj.input], block_.qa[proj.input]);
      const std::int64_t q1 = now_ns();
      block_.pg[p].run_quantized_into(a8, block_.qa[proj.input], none_, rng_, results_[p]);
      const std::int64_t q2 = now_ns();
      if (log != nullptr) {
        log->add("quantize", q0, q1, pass_span);
        log->add(proj.protect_span, q1, q2, pass_span);
      }
    }
    const std::int64_t p1 = now_ns();
    if (log != nullptr) log->close(pass_span, p1);
    check();
    return static_cast<double>(p1 - p0) / 1e9;
  }

  /// Raw unprotected GEMMs on the same operands, for the protection ratio.
  void raw(SpanLog& log) {
    realm::tensor::MatI32 acc;
    for (int r = 0; r < kRawReps; ++r) {
      for (std::size_t p = 0; p < kProj.size(); ++p) {
        const Projection& proj = kProj[p];
        const realm::tensor::MatI8 a8 =
            realm::tensor::quantize(x_[proj.input], block_.qa[proj.input]);
        const std::int64_t t0 = now_ns();
        realm::tensor::gemm_i8_prepacked(a8, block_.pg[p].weights(), block_.pg[p].weight_panels(),
                                         acc);
        log.add(proj.raw_span, t0, now_ns());
      }
    }
  }

  [[nodiscard]] std::uint64_t flagged() const noexcept { return flagged_; }

 private:
  void check() {
    for (std::size_t p = 0; p < kProj.size(); ++p) {
      ++out_.attempted;
      const realm::detect::ProtectedGemmResult& r = results_[p];
      if (r.report.verdict != realm::detect::Verdict::kClean) {
        ++flagged_;
        out_.miss(std::string(kProj[p].protect_span) + ": fault-free GEMM flagged");
        continue;
      }
      const realm::tensor::MatF& ref = refs_[p];
      if (r.output.rows() != ref.rows() || r.output.cols() != ref.cols() ||
          std::memcmp(r.output.data(), ref.data(), ref.size() * sizeof(float)) != 0) {
        out_.miss(std::string(kProj[p].protect_span) + ": output differs from the raw GEMM");
      }
    }
  }

  const Block& block_;
  const std::array<realm::tensor::MatF, kInputCols.size()>& x_;
  const std::array<realm::tensor::MatF, kProj.size()>& refs_;
  Result& out_;
  const realm::fault::NullInjector none_;
  Rng rng_{0};
  std::uint64_t stream_ = 0;
  std::uint64_t flagged_ = 0;
  std::array<realm::detect::ProtectedGemmResult, kProj.size()> results_;
};

struct Timed {
  std::vector<double> pass_s;
  double total_s = 0;
};

Timed run_for(Runner& runner, double seconds, SpanLog* log, realm::obs::Tracer* tracer) {
  Timed t;
  while (t.total_s < seconds) {
    t.pass_s.push_back(runner.pass(log, tracer));
    t.total_s += t.pass_s.back();
  }
  return t;
}

double ratio(double n, double d) { return d > 0.0 ? n / d : 0.0; }

}  // namespace

void run_prefill(const Options& opt, Result& out) {
  const Rng root = Rng(opt.seed).fork(700);
  std::array<realm::tensor::MatF, kProj.size()> w;
  for (std::size_t p = 0; p < kProj.size(); ++p) {
    Rng rng = root.fork(p);
    w[p] = realm::tensor::MatF(kProj[p].k, kProj[p].n);
    for (float& v : w[p].flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  std::array<realm::tensor::MatF, kInputCols.size()> x;
  for (std::size_t i = 0; i < kInputCols.size(); ++i) {
    Rng rng = root.fork(100 + i);
    x[i] = realm::tensor::MatF(kM, kInputCols[i]);
    for (float& v : x[i].flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  }

  // Set-up: kernel pool, weight quantization + packing + checksum bases, and
  // the static activation scales.
  auto block = std::make_unique<Block>();
  const double setup_s = median_setup_s(kSetupReps, [&] {
    block.reset();
    block = std::make_unique<Block>();
    realm::util::set_global_threads(kPoolThreads);
    for (std::size_t p = 0; p < kProj.size(); ++p) block->pg[p].set_weights(w[p]);
    for (std::size_t i = 0; i < kInputCols.size(); ++i) {
      block->qa[i] = realm::tensor::calibrate(x[i].flat());
    }
  });

  std::array<realm::tensor::MatF, kProj.size()> refs;
  {
    realm::tensor::MatI32 acc;
    for (std::size_t p = 0; p < kProj.size(); ++p) {
      const std::size_t in = kProj[p].input;
      const realm::tensor::MatI8 a8 = realm::tensor::quantize(x[in], block->qa[in]);
      realm::tensor::gemm_i8_prepacked(a8, block->pg[p].weights(), block->pg[p].weight_panels(),
                                       acc);
      refs[p] = realm::tensor::dequantize_acc(acc, block->qa[in], block->pg[p].weight_params());
    }
  }

  Runner runner(*block, x, refs, out);
  (void)run_for(runner, kWarmupS, nullptr, nullptr);
  const double ops = pass_ops();

  if (!opt.trace) {
    // Closed loop with one caller: throughput is the inverse of the median
    // block time, which a transient stall of the machine does not move.
    const Timed t = run_for(runner, opt.seconds, nullptr, nullptr);
    std::vector<double> ms;
    for (const double s : t.pass_s) ms.push_back(s * 1e3);
    const double per_s = ratio(1e3, percentile(ms, 50));
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", per_s, "1/s");
    out.set("gemm_gops", per_s * ops / 1e9, "GOP/s");
    out.set("latency_p50_ms", percentile(ms, 50), "ms");
    out.set("latency_p95_ms", percentile(ms, 95), "ms");
    out.set("latency_samples", static_cast<double>(ms.size()), "count");
    return;
  }

  const Timed plain = run_for(runner, opt.seconds / 2, nullptr, nullptr);
  realm::obs::TracerConfig tcfg;
  tcfg.lanes = 1;
  // 35 events per pass (5 per projection call); sized for 50 passes/s.
  tcfg.capacity = std::bit_ceil(static_cast<std::size_t>(opt.seconds * 50 * 35) + 1024);
  realm::obs::Tracer tracer(tcfg);
  SpanLog log;
  const std::uint64_t flagged0 = runner.flagged();
  const Timed traced = run_for(runner, opt.seconds / 2, &log, &tracer);
  tracer.set_enabled(false);
  runner.raw(log);

  const TraceDump dump = dump_tracer(tracer);
  if (dump.dropped != 0) out.miss("trace ring wrapped", 0);
  std::vector<double> screen_us, deq_us;
  double gemm_ops = 0, gemm_ns = 0;
  std::uint64_t screened = 0;
  for (const realm::obs::Event& e : dump.events) {
    const auto dur = static_cast<double>(e.t_end_ns - e.t_start_ns);
    const Projection& proj = kProj[stream_of(e.span_id) % kProj.size()];
    switch (e.kind) {
      case SpanKind::kGemm:
        gemm_ops += 2.0 * static_cast<double>(kM * proj.k * proj.n);
        gemm_ns += dur;
        break;
      case SpanKind::kScreen:
        ++screened;
        screen_us.push_back(dur / 1e3);
        break;
      case SpanKind::kDequantize: deq_us.push_back(dur / 1e3); break;
      default: break;
    }
  }
  double protect_s = 0, raw_s = 0, raw_ops = 0, raw_ns = 0;
  for (const Projection& p : kProj) {
    protect_s += percentile(log.durations(p.protect_span, 1e9), 50);
    const std::vector<double> raw = log.durations(p.raw_span, 1e9);
    raw_s += percentile(raw, 50);
    for (const double s : raw) {
      raw_ops += 2.0 * static_cast<double>(kM * p.k * p.n);
      raw_ns += s * 1e9;
    }
  }

  out.set("detect.screen_us_p50.m512", percentile(screen_us, 50), "us");
  out.set("detect.dequantize_us_p50.m512", percentile(deq_us, 50), "us");
  out.set("detect.tiles_screened", static_cast<double>(screened), "count");
  out.set("detect.tiles_flagged", static_cast<double>(runner.flagged() - flagged0), "count");
  out.set("detect.protect_ratio", ratio(protect_s, raw_s), "ratio");
  out.set("tensor.quantize_ms", percentile(log.sums_per_parent("quantize", "pass", 1e6), 50),
          "ms");
  out.set("tensor.gemm_gops", ratio(gemm_ops, gemm_ns), "GOP/s");
  out.set("tensor.raw_gemm_gops", ratio(raw_ops, raw_ns), "GOP/s");
  out.set("tensor.bytes_moved_mb", pass_bytes() / 1e6, "MB");
  out.set("threadpool.gemm_share", ratio(gemm_ns / 1e9, traced.total_s), "ratio");
  out.set("latency_samples", static_cast<double>(traced.pass_s.size()), "count");
  out.set("obs.trace_overhead", ratio(percentile(plain.pass_s, 50), percentile(traced.pass_s, 50)),
          "ratio");
  out.set("obs.events", static_cast<double>(dump.recorded), "count");
  out.set("obs.dropped", static_cast<double>(dump.dropped), "count");
}

}  // namespace perfbench

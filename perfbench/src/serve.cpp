// decode-serve and faulty-serve: open-loop then saturated traffic into a
// 1024x2048 TileGrid (8 tiles of 256 columns) behind a 3-worker ServeEngine,
// driven from one generator thread (this one). Half the requests are m=4 from
// tenant "pro" on the interactive lane, half m=64 from tenant "free" on the
// batch lane. faulty-serve runs every request under accumulator bit flips
// plus activation memory strikes, while the generator hot-swaps one tile
// every 125 ms between two weight sets.
//
// Every response is checked against a fault-free TileGrid reference of the
// same activation (per tile: either weight set, since a request may straddle
// a swap) and its verdict against the fault plan.
#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "fault/memory.h"
#include "perfbench.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "tensor/quant.h"
#include "util/clock.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using realm::detect::Verdict;
using realm::fault::Component;
using realm::obs::SpanKind;
using realm::serve::Priority;
using realm::serve::ServeEngine;
using realm::serve::TileGrid;
using realm::util::now_ns;
using realm::util::Rng;

constexpr std::size_t kK = 1024;
constexpr std::size_t kN = 2048;
constexpr std::size_t kTileCols = 256;
constexpr std::size_t kTiles = kN / kTileCols;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kPoolPerClass = 32;  ///< distinct activations per request class
constexpr std::size_t kOutstanding = 8;    ///< saturation phase: closed-loop depth
constexpr std::int64_t kSwapPeriodNs = 125'000'000;
constexpr std::int64_t kPollNs = 50'000;  ///< generator's completion-poll period
constexpr std::int64_t kRateWindowNs = 250'000'000;  ///< saturation throughput window
constexpr std::size_t kTailGroup = 1000;  ///< requests per p99 group (10 beyond it)
constexpr double kWarmupS = 2.0;
constexpr int kSetupReps = 5;
constexpr int kCycles = 4;  ///< open-loop + saturated segment pairs in a run

struct RequestClass {
  std::size_t m;
  const char* tenant;
  Priority priority;
  const char* tag;
};
constexpr std::array<RequestClass, 2> kClasses = {
    RequestClass{4, "pro", Priority::kInteractive, "m4"},
    RequestClass{64, "free", Priority::kBatch, "m64"}};

struct Activation {
  realm::tensor::MatI8 a8;
  realm::tensor::QuantParams qa;
};

/// Everything generated from the seed before set-up: two float weight sets
/// and a pool of quantized activations per request class.
struct Inputs {
  realm::tensor::MatF w[2];
  std::array<std::vector<Activation>, 2> pool;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const Rng root(seed);
  for (int s = 0; s < 2; ++s) {
    Rng rng = root.fork(100 + static_cast<std::uint64_t>(s));
    in.w[s] = realm::tensor::MatF(kK, kN);
    for (float& x : in.w[s].flat()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    Rng rng = root.fork(200 + c);
    for (std::size_t i = 0; i < kPoolPerClass; ++i) {
      realm::tensor::MatF a(kClasses[c].m, kK);
      for (float& x : a.flat()) x = static_cast<float>(rng.normal(0.0, 1.0));
      const realm::tensor::QuantParams qa = realm::tensor::calibrate(a.flat());
      in.pool[c].push_back(Activation{realm::tensor::quantize(a, qa), qa});
    }
  }
  return in;
}

/// What set-up builds: the serving grid on weight set 0, the quantized
/// per-tile slices of both sets for hot swaps, and the engine.
struct Deployment {
  std::unique_ptr<TileGrid> grid;
  std::array<std::vector<realm::tensor::MatI8>, 2> slices;
  std::array<realm::tensor::QuantParams, 2> qw{};
  std::unique_ptr<ServeEngine> engine;

  void reset() {
    engine.reset();  // joins the workers before the grid they read goes away
    grid.reset();
  }
};

void build(Deployment& d, const Inputs& in, bool faulty, std::uint64_t seed,
           realm::obs::Tracer* tracer) {
  d.reset();
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = kTileCols;
  gcfg.tracer = tracer;
  d.grid = std::make_unique<TileGrid>(in.w[0], gcfg);
  if (faulty) {
    d.qw[0] = d.grid->tile(0)->weight_params();
    d.slices[0].clear();
    for (std::size_t t = 0; t < kTiles; ++t) d.slices[0].push_back(d.grid->tile(t)->weights());
    d.qw[1] = realm::tensor::calibrate(in.w[1].flat());
    const realm::tensor::MatI8 w8 = realm::tensor::quantize(in.w[1], d.qw[1]);
    d.slices[1].clear();
    for (std::size_t t = 0; t < kTiles; ++t) {
      realm::tensor::MatI8 slice(kK, kTileCols);
      for (std::size_t r = 0; r < kK; ++r) {
        std::memcpy(slice.row(r).data(), w8.row(r).data() + t * kTileCols, kTileCols);
      }
      d.slices[1].push_back(std::move(slice));
    }
  }
  realm::serve::ServeConfig scfg;
  scfg.workers = kWorkers;
  scfg.seed = Rng(seed).fork(300).next();
  scfg.tracer = tracer;
  d.engine = std::make_unique<ServeEngine>(*d.grid, scfg);
}

/// Fault-free outputs per (class, pool item, weight set): the oracle.
using Refs = std::array<std::vector<std::array<realm::tensor::MatF, 2>>, 2>;

Refs make_refs(const Deployment& d, const Inputs& in, bool faulty) {
  Refs refs;
  std::unique_ptr<TileGrid> grid_b;
  if (faulty) {
    realm::serve::TileGridConfig gcfg;
    gcfg.tile_cols = kTileCols;
    realm::tensor::MatI8 w8(kK, kN);
    for (std::size_t t = 0; t < kTiles; ++t) {
      for (std::size_t r = 0; r < kK; ++r) {
        std::memcpy(w8.row(r).data() + t * kTileCols, d.slices[1][t].row(r).data(), kTileCols);
      }
    }
    grid_b = std::make_unique<TileGrid>(w8, d.qw[1], gcfg);
  }
  const realm::fault::NullInjector none;
  std::vector<realm::detect::ProtectedGemmResult> scratch;
  realm::serve::BatchVerdict verdict;
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    for (const Activation& act : in.pool[c]) {
      std::array<realm::tensor::MatF, 2> out;
      d.grid->run_into(act.a8, act.qa, none, Rng(0), scratch, out[0], verdict);
      if (grid_b) grid_b->run_into(act.a8, act.qa, none, Rng(0), scratch, out[1], verdict);
      refs[c].push_back(std::move(out));
    }
  }
  return refs;
}

/// What one phase of traffic observed.
struct PhaseLog {
  bool open = true;
  std::uint64_t stream_base = 0;
  std::vector<std::uint8_t> cls_of;  ///< request class by stream - stream_base
  struct Sample {
    std::int64_t due_ns = 0;
    double latency_ms = 0;  ///< due -> completion seen by the generator
    std::uint8_t cls = 0;
  };
  std::vector<Sample> samples;    ///< open loop
  std::vector<double> lag_ms;     ///< open loop: submit - due
  std::vector<double> service_ms;  ///< Response::latency_ms
  std::vector<Completion> done;  ///< closed loop, current segment: completions
  std::vector<Completion> ops;   ///< ... and the int8 GEMM ops they carried
  std::vector<double> window_rps;   ///< closed loop: completions/s per window, all segments
  std::vector<double> window_gops;  ///< closed loop: GEMM GOP/s per window, all segments
  std::uint64_t tiles = 0;
  std::uint64_t tiles_recomputed = 0;
  std::uint64_t acc_flips = 0;
  std::uint64_t act_flips = 0;
};

struct Totals {
  std::uint64_t refused = 0;
  std::uint64_t expired = 0;
  std::uint64_t failed = 0;
};

/// The generator thread's traffic loop over one deployment.
class Generator {
 public:
  Generator(Deployment& dep, const Inputs& in, const Refs& refs, bool faulty, std::uint64_t seed,
            Result& out, Totals& totals)
      : dep_(dep),
        in_(in),
        refs_(refs),
        faulty_(faulty),
        injector_(1e-4, 16, 31),
        memory_(memory_config(seed)),
        out_(out),
        totals_(totals) {}

  /// Open loop: Poisson arrivals at `rate` for `seconds`, then wait for the
  /// stragglers. Closed loop (rate == 0): keep kOutstanding requests in
  /// flight for `seconds`, then drain.
  void run(PhaseLog& ph, double rate, double seconds, Rng rng, SpanLog* log) {
    log_ = log;
    const std::int64_t t0 = now_ns();
    const auto dur_ns = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t end = t0 + dur_ns;
    ph.open = rate > 0.0;
    ph.done.clear();
    ph.ops.clear();
    std::vector<std::int64_t> due;
    if (ph.open) due = poisson_schedule(rate, dur_ns, rng.fork(1));
    Rng mix = rng.fork(2);
    if (next_swap_ns_ == 0) next_swap_ns_ = t0 + kSwapPeriodNs;
    std::size_t next = 0;
    for (;;) {
      std::int64_t now = now_ns();
      if (faulty_ && now >= next_swap_ns_ && now < end) {
        swap_one();
        continue;
      }
      if (ph.open && next < due.size() && now >= t0 + due[next]) {
        submit(ph, mix, t0 + due[next]);
        ++next;
        continue;
      }
      if (!ph.open && now < end && outstanding_.size() < kOutstanding) {
        submit(ph, mix, now);
        continue;
      }
      harvest(ph);
      const bool done = ph.open ? next == due.size() && outstanding_.empty() : now >= end;
      if (done) break;
      std::int64_t wake = now + kPollNs;
      if (ph.open && next < due.size()) wake = std::min(wake, t0 + due[next]);
      if (faulty_) wake = std::min(wake, next_swap_ns_);
      sleep_until(wake);
    }
    while (!outstanding_.empty()) {
      sleep_until(now_ns() + kPollNs);
      harvest(ph);
    }
    if (!ph.open) {
      const auto windows = static_cast<std::size_t>(dur_ns / kRateWindowNs);
      for (const double r : window_rates(ph.done, t0, kRateWindowNs, windows)) {
        ph.window_rps.push_back(r);
      }
      for (const double r : window_rates(ph.ops, t0, kRateWindowNs, windows)) {
        ph.window_gops.push_back(r / 1e9);
      }
    }
  }

  [[nodiscard]] std::uint64_t swaps() const noexcept { return swaps_; }
  [[nodiscard]] std::uint64_t scrub_rejects() const noexcept { return scrub_rejects_; }

 private:
  struct InFlight {
    realm::serve::Ticket ticket;
    std::int64_t due_ns = 0;
    std::uint8_t cls = 0;
    std::uint32_t item = 0;
  };

  static realm::fault::MemoryFaultConfig memory_config(std::uint64_t seed) {
    realm::fault::MemoryFaultConfig cfg;
    cfg.seed = Rng(seed).fork(400).next();
    cfg.activations.ber = 1e-6;
    return cfg;
  }

  void submit(PhaseLog& ph, Rng& mix, std::int64_t due_ns) {
    const auto cls = static_cast<std::uint8_t>(mix.uniform_u64(2));
    const auto item = static_cast<std::uint32_t>(mix.uniform_u64(kPoolPerClass));
    const Activation& act = in_.pool[cls][item];
    realm::serve::SubmitOptions so;
    so.tenant = kClasses[cls].tenant;
    so.priority = kClasses[cls].priority;
    so.stream = ph.stream_base + ph.cls_of.size();
    ph.cls_of.push_back(cls);
    ++out_.attempted;
    const std::int64_t s0 = now_ns();
    const std::optional<realm::serve::Ticket> ticket = dep_.engine->try_submit(
        realm::serve::Request::borrow(act.a8, act.qa, faulty_ ? &injector_ : nullptr,
                                      faulty_ ? &memory_ : nullptr),
        so);
    const std::int64_t s1 = now_ns();
    if (log_ != nullptr) log_->add("admit", s0, s1);
    if (ph.open) ph.lag_ms.push_back(static_cast<double>(s0 - due_ns) / 1e6);
    if (!ticket) {
      ++totals_.refused;
      out_.fail();
      return;
    }
    outstanding_.push_back(InFlight{*ticket, due_ns, cls, item});
  }

  void swap_one() {
    const std::size_t t = swaps_attempted_ % kTiles;
    const int target = 1 - set_of_tile_[t];
    realm::tensor::MatI8 slice = dep_.slices[static_cast<std::size_t>(target)][t];
    const std::int64_t s0 = now_ns();
    const bool ok =
        dep_.grid->swap_tile(t, std::move(slice), dep_.qw[static_cast<std::size_t>(target)]);
    const std::int64_t s1 = now_ns();
    if (log_ != nullptr) log_->add("swap", s0, s1);
    ++swaps_attempted_;
    next_swap_ns_ += kSwapPeriodNs;
    if (ok) {
      set_of_tile_[t] = target;
      ++swaps_;
    } else {
      ++scrub_rejects_;
    }
  }

  void harvest(PhaseLog& ph) {
    for (std::size_t i = 0; i < outstanding_.size();) {
      const InFlight f = outstanding_[i];
      const realm::serve::TicketState st = dep_.engine->poll(f.ticket);
      if (st == realm::serve::TicketState::kQueued || st == realm::serve::TicketState::kRunning) {
        ++i;
        continue;
      }
      const std::int64_t done_ns = now_ns();
      outstanding_[i] = outstanding_.back();
      outstanding_.pop_back();
      finish(ph, f, done_ns);
    }
  }

  void finish(PhaseLog& ph, const InFlight& f, std::int64_t done_ns) {
    realm::serve::Response r;
    try {
      r = dep_.engine->wait(f.ticket);
    } catch (...) {
      ++totals_.failed;
      out_.fail();
      return;
    }
    if (r.expired) {
      ++totals_.expired;
      out_.fail();
      return;
    }
    check(r, f);
    ph.service_ms.push_back(r.latency_ms);
    if (ph.open) {
      ph.samples.push_back({f.due_ns, static_cast<double>(done_ns - f.due_ns) / 1e6, f.cls});
    } else {
      ph.done.push_back({done_ns, 1.0});
      ph.ops.push_back({done_ns, 2.0 * static_cast<double>(kClasses[f.cls].m * kK * kN)});
    }
    ph.tiles += r.verdict.tiles;
    ph.tiles_recomputed += r.verdict.tiles_recomputed;
    ph.acc_flips += r.verdict.component_flips[static_cast<std::size_t>(Component::kAccumulator)];
    ph.act_flips += r.verdict.component_flips[static_cast<std::size_t>(Component::kActivations)];
  }

  /// The oracle: bit-equal output per tile (either weight set under swaps)
  /// and a verdict that matches the fault plan.
  void check(const realm::serve::Response& r, const InFlight& f) {
    const std::size_t m = kClasses[f.cls].m;
    const auto& ref = refs_[f.cls][f.item];
    const std::string who = std::string(kClasses[f.cls].tag) + " item " + std::to_string(f.item);
    if (r.output.rows() != m || r.output.cols() != kN) {
      out_.miss(who + ": output shape");
      return;
    }
    for (std::size_t t = 0; t < kTiles; ++t) {
      bool match = false;
      for (int s = 0; s < (faulty_ ? 2 : 1) && !match; ++s) {
        match = true;
        for (std::size_t row = 0; row < m && match; ++row) {
          match = std::memcmp(r.output.row(row).data() + t * kTileCols,
                              ref[static_cast<std::size_t>(s)].row(row).data() + t * kTileCols,
                              kTileCols * sizeof(float)) == 0;
        }
      }
      if (!match) {
        out_.miss(who + ": tile " + std::to_string(t) + " differs from the reference");
        return;
      }
    }
    const realm::serve::BatchVerdict& v = r.verdict;
    std::uint64_t flips = v.injection.flipped_bits;
    for (const std::uint64_t c : v.component_flips) flips += c;
    if (!faulty_) {
      if (v.verdict != Verdict::kClean || flips != 0) {
        out_.miss(who + ": fault-free request reported " + realm::detect::to_string(v.verdict));
      }
      return;
    }
    if (v.verdict == Verdict::kDetected || v.tiles_detected != 0) {
      out_.miss(who + ": a tile stayed uncorrected");
    } else if (flips == 0 && v.verdict != Verdict::kClean) {
      out_.miss(who + ": no fault injected but verdict " +
                std::string(realm::detect::to_string(v.verdict)));
    }
  }

  Deployment& dep_;
  const Inputs& in_;
  const Refs& refs_;
  const bool faulty_;
  const realm::fault::RandomBitFlipInjector injector_;
  const realm::fault::MemoryFaultModel memory_;
  Result& out_;
  Totals& totals_;
  SpanLog* log_ = nullptr;
  std::vector<InFlight> outstanding_;
  std::int64_t next_swap_ns_ = 0;
  std::array<int, kTiles> set_of_tile_{};
  std::uint64_t swaps_attempted_ = 0;
  std::uint64_t swaps_ = 0;
  std::uint64_t scrub_rejects_ = 0;
};

/// Open-loop latencies in due order, all classes (cls < 0) or one class.
std::vector<double> latencies(const PhaseLog& ph, int cls) {
  std::vector<PhaseLog::Sample> sorted = ph.samples;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.due_ns < b.due_ns; });
  std::vector<double> out;
  for (const PhaseLog::Sample& x : sorted) {
    if (cls < 0 || x.cls == cls) out.push_back(x.latency_ms);
  }
  return out;
}

double ratio(double n, double d) { return d > 0.0 ? n / d : 0.0; }

/// Per-layer numbers from the library spans of one traced open-loop phase.
void analyse_spans(const TraceDump& dump, const PhaseLog& ph, Result& out) {
  const std::uint64_t lo = ph.stream_base;
  const std::uint64_t hi = ph.stream_base + ph.cls_of.size();
  std::unordered_map<std::uint64_t, Interval> requests;
  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  std::vector<double> queued_ms, patch_us, recompute_us, recheck_us;
  std::array<std::vector<double>, 2> tile_us, gemm_us, screen_us, deq_us;
  std::uint64_t screened = 0, flagged = 0, patched = 0;
  double gemm_ops = 0, gemm_ns = 0;
  for (const realm::obs::Event& e : dump.events) {
    if (realm::obs::is_instant(e.kind)) continue;
    const std::uint64_t stream = stream_of(e.span_id);
    if (stream < lo || stream >= hi) continue;
    const std::uint8_t cls = ph.cls_of[stream - lo];
    const Interval iv{e.t_start_ns, e.t_end_ns};
    const auto dur = static_cast<double>(e.t_end_ns - e.t_start_ns);
    switch (e.kind) {
      case SpanKind::kRequest: requests[e.span_id] = iv; break;
      case SpanKind::kQueued:
        children[e.parent].push_back(iv);
        queued_ms.push_back(dur / 1e6);
        break;
      case SpanKind::kTile:
        children[e.parent].push_back(iv);
        tile_us[cls].push_back(dur / 1e3);
        if (e.verdict != static_cast<std::uint8_t>(Verdict::kClean)) ++flagged;
        if (e.verdict == static_cast<std::uint8_t>(Verdict::kPatched)) ++patched;
        break;
      case SpanKind::kGemm:
        gemm_us[cls].push_back(dur / 1e3);
        gemm_ops += 2.0 * static_cast<double>(kClasses[cls].m * kK * kTileCols);
        gemm_ns += dur;
        break;
      case SpanKind::kScreen:
        ++screened;
        screen_us[cls].push_back(dur / 1e3);
        break;
      case SpanKind::kDequantize: deq_us[cls].push_back(dur / 1e3); break;
      case SpanKind::kPatch: patch_us.push_back(dur / 1e3); break;
      case SpanKind::kRecompute: recompute_us.push_back(dur / 1e3); break;
      case SpanKind::kRecheck: recheck_us.push_back(dur / 1e3); break;
      default: break;
    }
  }
  std::vector<double> self_us;
  for (const auto& [id, iv] : requests) {
    const auto it = children.find(id);
    const std::int64_t self =
        self_ns(iv, it == children.end() ? std::vector<Interval>{} : it->second);
    self_us.push_back(static_cast<double>(self) / 1e3);
  }
  out.set("serve.queue_wait_p50_ms", percentile(queued_ms, 50), "ms");
  out.set("serve.queue_wait_p99_ms", percentile(queued_ms, 99), "ms");
  out.set("serve.request_self_us_p50", percentile(self_us, 50), "us");
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    const std::string tag = kClasses[c].tag;
    out.set("tile_grid.tile_us_p50." + tag, percentile(tile_us[c], 50), "us");
    out.set("detect.gemm_us_p50." + tag, percentile(gemm_us[c], 50), "us");
    out.set("detect.screen_us_p50." + tag, percentile(screen_us[c], 50), "us");
    out.set("detect.dequantize_us_p50." + tag, percentile(deq_us[c], 50), "us");
  }
  out.set("detect.tiles_screened", static_cast<double>(screened), "count");
  out.set("detect.tiles_flagged", static_cast<double>(flagged), "count");
  out.set("correct.patch_us_p50", percentile(patch_us, 50), "us");
  out.set("correct.patch_us_p99", percentile(patch_us, 99), "us");
  out.set("correct.recompute_us_p50", percentile(recompute_us, 50), "us");
  out.set("correct.recheck_us_p50", percentile(recheck_us, 50), "us");
  out.set("correct.patched_frac", ratio(static_cast<double>(patched), static_cast<double>(flagged)),
          "ratio");
  out.set("tensor.gemm_gops", ratio(gemm_ops, gemm_ns), "GOP/s");
}

}  // namespace

void run_serve(const Options& opt, bool faulty, Result& out) {
  const Inputs in = make_inputs(opt.seed);
  const double open_rate = faulty ? 400.0 : 1200.0;
  Deployment dep;
  const double setup_s =
      median_setup_s(kSetupReps, [&] { build(dep, in, faulty, opt.seed, nullptr); });
  const Refs refs = make_refs(dep, in, faulty);
  const Rng root = Rng(opt.seed).fork(500);
  Totals totals;

  // Measured time alternates open-loop and saturated segments, so a slow
  // stretch of the machine lands in a few p99 groups and rate windows of both
  // phases instead of one whole phase. The open loop gets most of the time:
  // its p99 is a median over groups of 1000 requests. The traced run gives
  // one cycle to an untraced and one to a traced half.
  const int cycles = opt.trace ? 1 : kCycles;
  const double open_s = opt.trace ? opt.seconds / 4 : opt.seconds * 0.75 / kCycles;
  const double sat_s = opt.trace ? opt.seconds / 4 : opt.seconds * 0.25 / kCycles;
  PhaseLog warm, open, sat;
  warm.stream_base = 1ULL << 32;
  open.stream_base = 2ULL << 32;
  sat.stream_base = 3ULL << 32;
  {
    // Untimed warm-up as a closed loop: a cold first second (page faults,
    // clock ramp-up) stalls the workers, and an open loop would overflow the
    // admission queue while it lasts. Its outputs are still checked.
    Generator gen(dep, in, refs, faulty, opt.seed, out, totals);
    gen.run(warm, 0.0, kWarmupS, root.fork(1), nullptr);
    for (int c = 0; c < cycles; ++c) {
      gen.run(open, open_rate, open_s, root.fork(10 + static_cast<std::uint64_t>(c)), nullptr);
      gen.run(sat, 0.0, sat_s, root.fork(20 + static_cast<std::uint64_t>(c)), nullptr);
    }
  }
  const double untraced_rps = percentile(sat.window_rps, 50);
  const std::vector<double> latency = latencies(open, -1);
  const double interactive_p99 = grouped_percentile(latencies(open, 0), kTailGroup, 99);

  if (!opt.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("ops_per_s", untraced_rps, "1/s");
    out.set("gemm_gops", percentile(sat.window_gops, 50), "GOP/s");
    out.set("latency_p50_ms", percentile(latency, 50), "ms");
    out.set("latency_p95_ms", percentile(latency, 95), "ms");
    out.set("serve.latency_p99_ms", grouped_percentile(latency, kTailGroup, 99), "ms");
    out.set("latency_samples", static_cast<double>(latency.size()), "count");
    out.set("serve.interactive_p99_ms", interactive_p99, "ms");
    out.set("serve.gen_lag_p99_ms", percentile(open.lag_ms, 99), "ms");
    out.set("correct.recompute_frac",
            ratio(static_cast<double>(open.tiles_recomputed), static_cast<double>(open.tiles)),
            "ratio");
    return;
  }

  // Traced half: a fresh grid and engine with the tracer attached. A request
  // leaves at most 59 events; 40'000 per lane per measured second is four
  // times what either serving workload records here, so the rings never wrap.
  realm::obs::TracerConfig tcfg;
  tcfg.lanes = kWorkers;
  tcfg.capacity = std::bit_ceil(static_cast<std::size_t>(opt.seconds * 40'000) + 1024);
  tcfg.enabled = false;
  realm::obs::Tracer tracer(tcfg);
  build(dep, in, faulty, opt.seed, &tracer);
  SpanLog log;
  PhaseLog twarm, topen, tsat;
  twarm.stream_base = 4ULL << 32;
  topen.stream_base = 5ULL << 32;
  tsat.stream_base = 6ULL << 32;
  Generator gen(dep, in, refs, faulty, opt.seed, out, totals);
  gen.run(twarm, 0.0, kWarmupS, root.fork(4), nullptr);
  tracer.set_enabled(true);
  const std::uint64_t swaps0 = gen.swaps();
  const std::uint64_t rejects0 = gen.scrub_rejects();
  gen.run(topen, open_rate, open_s, root.fork(10), &log);
  gen.run(tsat, 0.0, sat_s, root.fork(20), &log);
  tracer.set_enabled(false);
  dep.engine->drain();
  const double traced_rps = percentile(tsat.window_rps, 50);

  const TraceDump dump = dump_tracer(tracer);
  analyse_spans(dump, topen, out);
  std::uint64_t hot_swaps = 0, scrub_rejects = 0;
  for (const realm::obs::Event& e : dump.events) {
    if (e.kind == SpanKind::kHotSwap) ++hot_swaps;
    if (e.kind == SpanKind::kScrubReject) ++scrub_rejects;
  }
  if (hot_swaps != gen.swaps() - swaps0 || scrub_rejects != gen.scrub_rejects() - rejects0) {
    out.miss("hot-swap instants disagree with the swaps the generator made", 0);
  }
  if (dump.dropped != 0) out.miss("trace rings wrapped", 0);

  out.set("serve.service_p50_ms", percentile(open.service_ms, 50), "ms");
  out.set("serve.service_p99_ms", percentile(open.service_ms, 99), "ms");
  out.set("serve.admit_us_p50", percentile(log.durations("admit", 1e3), 50), "us");
  out.set("serve.gen_lag_p99_ms", percentile(topen.lag_ms, 99), "ms");
  out.set("serve.interactive_p99_ms", interactive_p99, "ms");
  out.set("serve.latency_p99_ms", grouped_percentile(latency, kTailGroup, 99), "ms");
  out.set("latency_samples", static_cast<double>(latency.size()), "count");
  out.set("serve.rejected", static_cast<double>(totals.refused), "count");
  out.set("serve.expired", static_cast<double>(totals.expired), "count");
  out.set("serve.failed", static_cast<double>(totals.failed), "count");
  out.set("tile_grid.swap_ms_p50", percentile(log.durations("swap", 1e6), 50), "ms");
  out.set("tile_grid.swaps", static_cast<double>(hot_swaps), "count");
  out.set("tile_grid.scrub_rejects", static_cast<double>(scrub_rejects), "count");
  out.set("correct.recompute_frac",
          ratio(static_cast<double>(topen.tiles_recomputed), static_cast<double>(topen.tiles)),
          "ratio");
  out.set("fault.accumulator_flips", static_cast<double>(topen.acc_flips), "count");
  out.set("fault.activation_flips", static_cast<double>(topen.act_flips), "count");
  out.set("obs.trace_overhead", ratio(traced_rps, untraced_rps), "ratio");
  out.set("obs.events", static_cast<double>(dump.recorded), "count");
  out.set("obs.dropped", static_cast<double>(dump.dropped), "count");
}

}  // namespace perfbench

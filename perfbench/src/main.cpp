// realm_perfbench: the repository benchmark binary. One workload per
// invocation; prints one JSON record (provenance, correctness, every metric
// the workload measured) as its last line. run.py builds this binary and
// turns the record into the benchmark's result line.
//
//   realm_perfbench --workload decode-serve|faulty-serve|prefill-block|fault-campaign
//                   --seed N --seconds S --trace 0|1 [--git-sha X] [--src-digest Y]
#include <sys/prctl.h>
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "perfbench.h"
#include "tensor/gemm_kernels.h"
#include "util/clock.h"
#include "util/threadpool.h"

namespace perfbench {

std::vector<double> SpanLog::durations(const char* name, double scale) const {
  std::vector<double> out;
  for (const BenchSpan& s : spans_) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.t.t1 - s.t.t0) / scale);
    }
  }
  return out;
}

std::vector<double> SpanLog::sums_per_parent(const char* name, const char* parent_name,
                                             double scale) const {
  std::map<int, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::string_view(spans_[i].name) == parent_name) sums[static_cast<int>(i)] = 0.0;
  }
  for (const BenchSpan& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    const auto it = sums.find(s.parent);
    if (it != sums.end()) it->second += static_cast<double>(s.t.t1 - s.t.t0) / scale;
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [idx, sum] : sums) out.push_back(sum);
  return out;
}

TraceDump dump_tracer(const realm::obs::Tracer& tracer) {
  TraceDump d;
  for (std::size_t lane = 0; lane <= tracer.lanes(); ++lane) {
    const std::uint64_t n = tracer.recorded(lane);
    d.recorded += n;
    if (n > tracer.capacity()) d.dropped += n - tracer.capacity();
    const std::vector<realm::obs::Event> held = tracer.snapshot(lane);
    d.events.insert(d.events.end(), held.begin(), held.end());
  }
  return d;
}

double median_setup_s(int reps, const std::function<void()>& build) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = realm::util::now_ns();
    build();
    times.push_back(realm::util::seconds_since_ns(t0));
  }
  return percentile(times, 50.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void sleep_until(std::int64_t t_ns) {
  // The default 50 us timer slack would make every wake-up that late.
  static const int slack_set = prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  (void)slack_set;
  const std::int64_t wait = t_ns - realm::util::now_ns();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: realm_perfbench --workload decode-serve|faulty-serve|prefill-block|"
               "fault-campaign --seed N --seconds S --trace 0|1\n"
               "                       [--git-sha SHA] [--src-digest HEX]\n";
  return 2;
}

struct CpuFlags {
  bool avx512_vnni = false;
  bool amx_int8 = false;
};

CpuFlags cpu_flags() {
  CpuFlags f;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    f.avx512_vnni = (c >> 11) & 1U;  // CPUID.(7,0):ECX[11]
    f.amx_int8 = (d >> 25) & 1U;     // CPUID.(7,0):EDX[25]
  }
  return f;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(ch);
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
      if (!(opt.seconds > 0.0) || opt.seconds > 600.0) return usage();
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage();
      opt.trace = val == "1";
    } else if (arg == "--git-sha") {
      git_sha = val;
    } else if (arg == "--src-digest") {
      src_digest = val;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty()) return usage();

  perfbench::Result result;
  std::size_t workers = 0;
  try {
    if (opt.workload == "decode-serve" || opt.workload == "faulty-serve") {
      workers = 3;
      perfbench::run_serve(opt, opt.workload == "faulty-serve", result);
    } else if (opt.workload == "prefill-block") {
      perfbench::run_prefill(opt, result);
    } else if (opt.workload == "fault-campaign") {
      perfbench::run_campaign(opt, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "realm_perfbench: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }

  for (const std::string& e : result.errors) std::cerr << "oracle miss: " << e << "\n";
  for (auto& [name, m] : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.miss("metric " + name + " is not finite", 0);
      m.value = 0.0;
    }
  }

  const CpuFlags flags = cpu_flags();
  std::string line = "{\"workload\":" + json_string(opt.workload);
  line += ",\"provenance\":{\"git_sha\":" + json_string(git_sha);
  line += ",\"src_digest\":" + json_string(src_digest);
  line += ",\"kernel_tier\":" +
          json_string(realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier()));
  line += std::string(",\"avx512_vnni\":") + (flags.avx512_vnni ? "true" : "false");
  line += std::string(",\"amx_int8\":") + (flags.amx_int8 ? "true" : "false");
  line += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  line += ",\"engine_workers\":" + std::to_string(workers);
  line += ",\"pool_threads\":" + std::to_string(realm::util::global_threads());
  line += ",\"seed\":" + std::to_string(opt.seed);
  line += ",\"seconds\":" + json_number(opt.seconds);
  line += std::string(",\"trace\":") + (opt.trace ? "1" : "0") + "}";
  line += std::string(",\"correct\":") + (result.correct() ? "true" : "false");
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"errors\":[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i != 0) line += ",";
    line += json_string(result.errors[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) line += ",";
    line += json_string(name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}

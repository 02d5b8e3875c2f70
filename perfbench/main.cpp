// perfbench: the repository benchmark program.
//
//   perfbench --workload live_zap|live_broadcast|macro_day --seed N
//             --seconds S --trace 0|1
//
// Prints a human-readable report, then one JSON line with the run's
// correctness verdict, op counts and every metric it measured. Exit status
// is nonzero when a correctness check fails. perfbench/run.py builds this
// binary and turns its output into the BENCHMARK.json result line.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {

double windowed_quantile(const std::vector<std::pair<std::int64_t, double>>& samples,
                         std::int64_t start, std::int64_t width, double q) {
  std::map<std::int64_t, std::vector<double>> windows;
  for (const auto& [t, v] : samples) windows[(t - start) / width].push_back(v);
  std::vector<double> per_window;
  for (auto& [w, values] : windows) per_window.push_back(quantile(std::move(values), q));
  return median(std::move(per_window));
}

double peak_rss_mb() {
  // VmHWM is the high-water of this program image. getrusage's ru_maxrss
  // would do, except that Linux carries it across execve: under a parent
  // such as run.py it starts at the parent's own RSS.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Result;

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !opt.workload.empty() && opt.seconds > 0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void print_result(const std::string& workload, const Result& r) {
  std::printf("\n# %s: %llu ops attempted, %llu failed\n", workload.c_str(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [name, m] : r.metrics) {
    std::printf("#   %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [what, ok] : r.checks) {
    std::printf("# check %-4s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  }
  std::string line = "{\"workload\": \"" + workload + "\", \"correct\": " +
                     (r.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload live_zap|live_broadcast|macro_day "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Result r;
  try {
    if (opt.workload == "live_zap") {
      r = perfbench::run_live_zap(opt);
    } else if (opt.workload == "live_broadcast") {
      r = perfbench::run_live_broadcast(opt);
    } else if (opt.workload == "macro_day" || opt.workload == "macro_record") {
      r = perfbench::run_macro_day(opt);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
    if (opt.trace) perfbench::measure_layers(opt.seed, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_result(opt.workload, r);
  return r.correct() ? 0 : 1;
}

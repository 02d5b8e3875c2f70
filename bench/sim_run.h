// SimRun: the one way a bench binary talks to the outside world.
//
// Every fig*/ablation*/bench* executable used to hand-roll its own argv
// scanning, environment fallbacks, and artifact plumbing. SimRun collapses
// that into a single object with three responsibilities:
//
//   1. Flags — a uniform `--name=value` vocabulary shared by every bench:
//        --seed=N       override MacroSimConfig::seed
//        --days=N       override MacroSimConfig::days
//        --peak=N       override MacroSimConfig::peak_concurrent (absolute)
//        --threads=N    worker threads (0 = hardware concurrency)
//        --shards=N     channel shards (fixed per run; output depends on
//                       shards, never on threads)
//        --out=PATH     artifact path (default BENCH_<name>.json)
//        --trace-out=PATH       Chrome-trace export (env P2PDRM_TRACE_OUT)
//        --timeseries-out=PATH  metrics CSV export  (env P2PDRM_TS_OUT)
//        --prom-out=PATH        Prometheus exposition snapshot of the final
//                               registry (env P2PDRM_PROM_OUT)
//      Benches may read additional bench-specific flags through the same
//      accessors.
//
//   2. Config — `finalize(cfg)` layers the CLI overrides onto a bench-built
//      MacroSimConfig and returns `cfg.validated()`, so every run is
//      checked through the single validation entry point. When --threads
//      asks for parallelism but --shards is absent, shards defaults to a
//      fixed 8 — a constant, NOT a function of the thread count, so the
//      same seed still produces byte-identical output at any --threads.
//
//   3. Artifact — every bench emits BENCH_<name>.json with one schema:
//        { "schema": "p2pdrm.bench.v1", "bench": ..., "config": {...},
//          "results": <bench-specific>, "wall_seconds": ... }
//      `begin_artifact()` writes the envelope up to and including the
//      "results" key; the bench then writes exactly one JSON value (object
//      or array) through `json()`; `finish_artifact()` stamps the
//      wall-clock and writes the file. A bench that ran the macro-sim may
//      call `set_runtime(result.runtime)` before finish_artifact() to add a
//      "runtime" object (shard event counts, barrier-wait and imbalance
//      telemetry) to the envelope.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"

namespace p2pdrm::bench {

class SimRun {
 public:
  SimRun(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)), started_(std::chrono::steady_clock::now()) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
        std::fprintf(stderr, "%s: ignoring argument '%s' (flags are --name=value)\n",
                     name_.c_str(), arg.c_str());
        continue;
      }
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags_.push_back({arg.substr(2), "true"});
      } else {
        flags_.push_back({arg.substr(2, eq - 2), arg.substr(eq + 1)});
      }
    }
  }

  const std::string& name() const { return name_; }

  bool has(const std::string& flag) const {
    for (const Flag& f : flags_) {
      if (f.name == flag) return true;
    }
    return false;
  }

  std::string str_flag(const std::string& flag, const std::string& fallback) const {
    for (const Flag& f : flags_) {
      if (f.name == flag) return f.value;
    }
    return fallback;
  }

  double num_flag(const std::string& flag, double fallback) const {
    for (const Flag& f : flags_) {
      if (f.name == flag) return std::atof(f.value.c_str());
    }
    return fallback;
  }

  std::uint64_t u64_flag(const std::string& flag, std::uint64_t fallback) const {
    for (const Flag& f : flags_) {
      if (f.name == flag) return std::strtoull(f.value.c_str(), nullptr, 10);
    }
    return fallback;
  }

  /// Layer the uniform CLI overrides onto a bench-built config and validate.
  /// Throws std::invalid_argument (via MacroSimConfig::validated) on nonsense.
  sim::MacroSimConfig finalize(sim::MacroSimConfig cfg) const {
    cfg.seed = u64_flag("seed", cfg.seed);
    cfg.days = static_cast<int>(u64_flag("days", static_cast<std::uint64_t>(cfg.days)));
    cfg.peak_concurrent = num_flag("peak", cfg.peak_concurrent);
    cfg.threads = static_cast<std::size_t>(u64_flag("threads", cfg.threads));
    if (has("shards")) {
      cfg.shards = static_cast<std::size_t>(u64_flag("shards", cfg.shards));
    } else if (cfg.threads != 1 && cfg.shards == 1) {
      // Parallelism needs shards; pick a fixed count so the output stays a
      // pure function of (config, seed) regardless of the thread count.
      cfg.shards = kDefaultShards;
    }
    return cfg.validated();
  }

  std::string out_file() const {
    return str_flag("out", "BENCH_" + name_ + ".json");
  }
  std::string trace_out() const {
    return str_flag("trace-out", env_or_empty("P2PDRM_TRACE_OUT"));
  }
  std::string timeseries_out() const {
    return str_flag("timeseries-out", env_or_empty("P2PDRM_TS_OUT"));
  }
  std::string prom_out() const {
    return str_flag("prom-out", env_or_empty("P2PDRM_PROM_OUT"));
  }

  /// Dump a Prometheus exposition snapshot of `registry` to --prom-out /
  /// P2PDRM_PROM_OUT. No-op when neither is set.
  void maybe_write_prom(const obs::Registry& registry) const {
    const std::string path = prom_out();
    if (path.empty()) return;
    write_file(path, obs::registry_to_prometheus(registry));
  }

  obs::JsonWriter& json() { return json_; }

  /// Open the artifact envelope for a macro-sim bench: emits schema, bench
  /// name, and the run's config block, then leaves the writer positioned at
  /// "results" for the bench to fill with one JSON value.
  void begin_artifact(const sim::MacroSimConfig& cfg) {
    begin_envelope();
    json_.key("config").begin_object();
    json_.kv("seed", static_cast<std::uint64_t>(cfg.seed));
    json_.kv("days", cfg.days);
    json_.kv("peak_concurrent", cfg.peak_concurrent);
    json_.kv("threads", static_cast<std::uint64_t>(cfg.threads));
    json_.kv("shards", static_cast<std::uint64_t>(cfg.shards));
    json_.kv("scale", scale_factor());
    json_.end_object();
    json_.key("results");
  }

  /// Same envelope for benches that do not run the macro-sim; the config
  /// block carries only the global scale knob.
  void begin_artifact() {
    begin_envelope();
    json_.key("config").begin_object();
    json_.kv("scale", scale_factor());
    json_.end_object();
    json_.key("results");
  }

  /// Record macro-sim runtime telemetry for the artifact envelope; emitted
  /// as a top-level "runtime" object by finish_artifact(). The event-count
  /// fields are deterministic; the *_seconds fields are wall-clock and must
  /// never feed a reproducibility digest.
  void set_runtime(const sim::MacroRuntimeStats& runtime) {
    runtime_ = runtime;
    have_runtime_ = true;
  }

  /// Serialize one MacroRuntimeStats as a JSON object value. Shared by the
  /// envelope and by benches that emit per-run runtime blocks.
  static void write_runtime_json(obs::JsonWriter& j,
                                 const sim::MacroRuntimeStats& rt) {
    j.begin_object();
    j.key("shard_events").begin_array();
    for (const std::uint64_t e : rt.shard_events) j.value(e);
    j.end_array();
    j.kv("windows", rt.windows);
    j.kv("imbalance_mean", rt.imbalance_mean);
    j.kv("imbalance_max", rt.imbalance_max);
    j.kv("window_wall_seconds", rt.window_wall_seconds);
    j.kv("coordinator_wall_seconds", rt.coordinator_wall_seconds);
    j.kv("barrier_wait_seconds", rt.barrier_wait_seconds);
    j.kv("barrier_wait_fraction", rt.barrier_wait_fraction);
    j.key("worker_busy_seconds").begin_array();
    for (const double b : rt.worker_busy_seconds) j.value(b);
    j.end_array();
    j.end_object();
  }

  /// Close the envelope (the bench must have completed its "results" value),
  /// stamp the wall clock, and write the artifact file.
  void finish_artifact() {
    if (have_runtime_) {
      json_.key("runtime");
      write_runtime_json(json_, runtime_);
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - started_;
    json_.kv("wall_seconds", wall.count());
    json_.end_object();
    write_file(out_file(), json_.str());
  }

  /// Elapsed wall-clock since the run started, in seconds.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started_)
        .count();
  }

  static constexpr std::size_t kDefaultShards = 8;

 private:
  struct Flag {
    std::string name;
    std::string value;
  };

  static std::string env_or_empty(const char* env) {
    if (const char* v = std::getenv(env)) return v;
    return {};
  }

  void begin_envelope() {
    json_.begin_object();
    json_.kv("schema", "p2pdrm.bench.v1");
    json_.kv("bench", name_);
  }

  std::string name_;
  std::vector<Flag> flags_;
  obs::JsonWriter json_;
  sim::MacroRuntimeStats runtime_;
  bool have_runtime_ = false;
  std::chrono::steady_clock::time_point started_;
};

}  // namespace p2pdrm::bench

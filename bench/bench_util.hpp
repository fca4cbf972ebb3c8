// Shared helpers for the table/figure regeneration benches, and the one
// harness of the six CI-gated benches (fleet_scale, horizon, incident,
// kernel_suite, mechanism_arena, storm_recovery): timer, calibration,
// argument parser and schema-1 suite JSON.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/batch_solver.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"
#include "fleet/fleet_metrics.hpp"
#include "horizon/multi_day_driver.hpp"
#include "math/vector_ops.hpp"

// Short commit SHA baked in by bench/CMakeLists.txt so every BENCH_JSON
// line is traceable to the tree that produced it.
#ifndef TDP_GIT_SHA
#define TDP_GIT_SHA "unknown"
#endif

namespace tdp::bench {

inline void banner(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void paper_vs_measured(const std::string& what,
                              const std::string& paper,
                              const std::string& measured) {
  std::printf("  %-46s paper: %-14s ours: %s\n", what.c_str(), paper.c_str(),
              measured.c_str());
}

inline void print_table(const TextTable& table) {
  std::printf("%s", table.to_string().c_str());
}

inline void report_batch(const BatchTiming& timing) {
  std::printf("  [batch] %zu solves on %zu threads: %.3f s wall, "
              "%zu FISTA iterations (%zu in the anchor)\n",
              timing.tasks, timing.threads, timing.wall_seconds,
              timing.total_iterations, timing.anchor_iterations);
}

/// High-water-mark resident set size of this process, in MiB.
inline double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

/// One machine-readable result line per bench run. Collects custom fields
/// and emits a single `BENCH_JSON {...}` line; `wall_seconds` (construction
/// to emit) and `peak_rss_mb` are always appended, so every bench JSON in
/// the trajectory exposes time *and* memory and regressions in either are
/// visible from the logs alone.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  ~BenchReport() {
    if (!emitted_) emit();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void add(const std::string& key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    fields_.emplace_back(key, buffer);
  }

  void add(const std::string& key, std::uint64_t value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%llu",
                  static_cast<unsigned long long>(value));
    fields_.emplace_back(key, buffer);
  }

  void add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, '"' + value + '"');
  }

  /// Embed a pre-serialized JSON value (array or object) verbatim.
  void add_raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }

  /// The pricing mechanism this bench ran under ("none" when the bench has
  /// no mechanism axis). Always emitted so arena results sort by regime.
  void set_mechanism(std::string name) { mechanism_ = std::move(name); }

  /// Worker threads this bench actually ran on. Defaults to the hardware
  /// count; benches that sweep a thread axis set it per cell so the
  /// provenance fields describe the measurement, not the host.
  void set_threads_used(std::size_t threads) { threads_used_ = threads; }

  void emit() {
    emitted_ = true;
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    std::string line = "BENCH_JSON {\"bench\":\"" + name_ + '"';
    for (const auto& [key, value] : fields_) {
      line += ",\"" + key + "\":" + value;
    }
    line += ",\"mechanism\":\"" + mechanism_ + "\"";
    // Measurement provenance: what the host can do (host_isa), what the
    // dispatcher actually used (simd_mode), and the threading layout —
    // so any two BENCH_JSON lines are comparable, or visibly not.
    line += ",\"host_isa\":\"" + std::string(simd::host_isa()) + "\"";
    line += ",\"simd_mode\":\"" + std::string(simd::mode_name()) + "\"";
    line += ",\"threads_used\":" + std::to_string(threads_used_);
    line += ",\"pinned\":";
    line += pin_threads() ? "true" : "false";
    line += ",\"git_sha\":\"" TDP_GIT_SHA "\"";
    char buffer[64];
    std::snprintf(buffer, sizeof buffer,
                  ",\"wall_seconds\":%.6f,\"peak_rss_mb\":%.3f}", wall,
                  peak_rss_mb());
    line += buffer;
    std::printf("%s\n", line.c_str());
  }

 private:
  std::string name_;
  std::string mechanism_ = "none";
  std::size_t threads_used_ = hardware_threads();
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> fields_;
  bool emitted_ = false;
};

// ---- The gated-bench harness ---------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Time `fn()` `reps` times and return the total wall seconds. One untimed
/// warm-up call first populates lazy caches (plans, validity bounds).
template <typename Fn>
double time_reps(std::size_t reps, Fn&& fn) {
  fn();
  const auto start = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) fn();
  return seconds_since(start);
}

/// The calibration workload every gated suite records: the 12-period
/// table-8 reference kernel evaluated 50 times at rewards 0.8, after one
/// warm-up pass. The regression gate divides wall times by it, so it
/// measures code changes rather than host speed; it runs the reference
/// kernel, not a fast path, so fast-path changes stay visible after
/// normalization.
inline double calibration_run() {
  const DeferralKernel kernel(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kDiscrete, 0.7),
      LagConvention::kPeriodStart);
  const math::Vector rewards(12, 0.8);
  double sink = 0.0;
  const double seconds = time_reps(50, [&] {
    for (std::size_t i = 0; i < 12; ++i) {
      sink += kernel.inflow(i, rewards[i]) + kernel.outflow(i, rewards);
    }
  });
  if (sink < 0.0) std::printf("?\n");  // keep the sink alive
  return seconds;
}

/// A whole-number flag `--name N` of a gated bench. `value` holds the
/// default and receives the parsed number. Zero is rejected unless
/// `zero_ok` (as for `--threads 0`, the default thread count).
struct CountFlag {
  const char* name;
  std::uint64_t* value;
  bool zero_ok = false;
};

/// Parses a gated bench's command line: `--out FILE`, the bench's `flags`
/// and, when `users` is given, bare fleet sizes appended to it. Anything
/// else (an unknown flag, a missing, malformed or zero value) prints usage
/// to stderr and exits 2. Returns the --out path, empty when absent.
inline std::string parse_args(int argc, char** argv,
                              std::initializer_list<CountFlag> flags,
                              std::vector<std::uint64_t>* users = nullptr) {
  std::string synopsis = users != nullptr ? "[<users>...] " : "";
  synopsis += "[--out <file>]";
  for (const CountFlag& flag : flags) {
    synopsis += std::string(" [") + flag.name + " N]";
  }
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : "";
    std::uint64_t number = 0;
    if (std::strcmp(arg, "--out") == 0) {
      if (*next == '\0') cli::exit_with_usage(argv[0], synopsis);
      out_path = next;
      ++i;
      continue;
    }
    if (users != nullptr && cli::parse_count(arg, number) && number > 0) {
      users->push_back(number);
      continue;
    }
    const CountFlag* match = nullptr;
    for (const CountFlag& flag : flags) {
      if (std::strcmp(arg, flag.name) == 0) match = &flag;
    }
    if (match == nullptr || !cli::parse_count(next, number) ||
        (number == 0 && !match->zero_ok)) {
      cli::exit_with_usage(argv[0], synopsis);
    }
    *match->value = number;
    ++i;
  }
  return out_path;
}

/// One entry of a suite JSON: the values the regression gate reads.
struct SuiteEntry {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

inline void append_json_field(std::string& out, const char* key,
                              double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "\"%s\":%.17g", key, value);
  out += buffer;
}

/// A gated bench's results: the calibration time, taken when the suite is
/// constructed (before the bench's own work), and the entries its
/// SuiteReports record, written as the schema-1 JSON that
/// tools/check_bench_regression.py reads.
class Suite {
 public:
  explicit Suite(std::string out_path)
      : out_path_(std::move(out_path)),
        calibration_seconds_(calibration_run()) {}

  /// Starts an entry; SuiteReport calls this once per gated cell.
  SuiteEntry& add_entry(std::string name) {
    return entries_.emplace_back(SuiteEntry{std::move(name), {}});
  }

  /// Writes the suite JSON when an --out path was given. Returns main's
  /// exit code: 0, or 1 when the file cannot be written.
  int finish() const {
    if (out_path_.empty()) return 0;
    std::string json = "{\n  \"schema\": 1,\n  ";
    append_json_field(json, "calibration_seconds", calibration_seconds_);
    json += ",\n  \"benches\": {\n";
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      json += "    \"" + entries_[e].name + "\": {";
      for (std::size_t f = 0; f < entries_[e].fields.size(); ++f) {
        if (f) json += ", ";
        append_json_field(json, entries_[e].fields[f].first.c_str(),
                          entries_[e].fields[f].second);
      }
      json += e + 1 < entries_.size() ? "},\n" : "}\n";
    }
    json += "  }\n}\n";
    std::ofstream out(out_path_);
    out << json;
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path_.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", out_path_.c_str());
    return 0;
  }

 private:
  std::string out_path_;
  double calibration_seconds_;
  std::deque<SuiteEntry> entries_;  // stable references for SuiteReports
};

/// A BENCH_JSON line whose gated values are also one suite entry: `gate`
/// records a value once and it appears in both. The entry is named after
/// the bench unless `entry` names it otherwise.
class SuiteReport : public BenchReport {
 public:
  SuiteReport(Suite& suite, const std::string& bench)
      : SuiteReport(suite, bench, bench) {}
  SuiteReport(Suite& suite, const std::string& bench, std::string entry)
      : BenchReport(bench), entry_(suite.add_entry(std::move(entry))) {}

  void gate(const std::string& key, double value) {
    add(key, value);
    entry_.fields.emplace_back(key, value);
  }

 private:
  SuiteEntry& entry_;
};

/// Bitwise the same fleet aggregates: the thread-count determinism
/// contract (the enforced version is tests/test_fleet.cpp).
inline bool identical_profiles(const fleet::FleetMetrics& a,
                               const fleet::FleetMetrics& b) {
  return a.offered_units == b.offered_units &&
         a.realized_units == b.realized_units && a.sessions == b.sessions &&
         a.deferred_sessions == b.deferred_sessions &&
         a.reward_paid_units == b.reward_paid_units;
}

/// Every DayMetrics field bitwise equal, as tests/test_horizon.cpp's
/// expect_days_bitwise_equal checks: the kill-and-restore and
/// pure-observer contracts.
inline bool days_bitwise_equal(const std::vector<horizon::DayMetrics>& a,
                               const std::vector<horizon::DayMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const horizon::DayMetrics& x = a[d];
    const horizon::DayMetrics& y = b[d];
    if (x.day != y.day || x.offered_units != y.offered_units ||
        x.realized_units != y.realized_units || x.rewards != y.rewards ||
        x.sessions != y.sessions ||
        x.deferred_sessions != y.deferred_sessions ||
        x.reward_paid_units != y.reward_paid_units ||
        x.peak_to_average_tip != y.peak_to_average_tip ||
        x.peak_to_average_tdp != y.peak_to_average_tdp ||
        x.estimated != y.estimated || x.beta_estimate != y.beta_estimate ||
        x.estimate_residual != y.estimate_residual ||
        x.reanchored != y.reanchored ||
        x.reward_step_linf != y.reward_step_linf ||
        x.fallback_periods != y.fallback_periods ||
        x.estimation_frozen != y.estimation_frozen ||
        x.reanchor_rolled_back != y.reanchor_rolled_back) {
      return false;
    }
  }
  return true;
}

/// The 20%-duty storm regime the storm acceptance criteria are written
/// against: onset 0.06, persist 0.76 -> duty 0.06/(0.06+0.24) = 0.2, mean
/// burst ~4.2 periods.
inline StormRegime twenty_duty(double intensity) {
  StormRegime regime;
  regime.onset = 0.06;
  regime.persist = 0.76;
  regime.intensity = intensity;
  return regime;
}

/// The multi-day fleet the horizon, incident and storm benches run: one
/// warm-up day, §IV estimation every day over a 4-day window, and mild
/// i.i.d. chaos so degraded paths stay on the measured profile; `storms`
/// adds the 20%-duty blackout, channel and solver storms.
inline horizon::HorizonConfig storm_config(std::uint64_t users,
                                           std::size_t days, bool storms) {
  horizon::HorizonConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.population.seed = 20110611;
  config.shards = 32;
  config.warmup_days = 1;
  config.horizon_days = days;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.seed = 424242;
  if (storms) {
    config.fault.storm_blackout = twenty_duty(1.0);
    config.fault.storm_channel = twenty_duty(0.5);
    config.fault.storm_solver = twenty_duty(1.0);
  }
  return config;
}

}  // namespace tdp::bench

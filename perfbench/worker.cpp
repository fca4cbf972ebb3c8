// One measured repetition of a benchmark workload, run in its own process.
//
// perfbench/run.py starts this binary once per (repetition, thread count,
// trace mode) so that no cell inherits another's thread pool or page
// placement. It drives the program only through public entry points —
// FleetDriver's constructor and run_day, MultiDayDriver's constructor,
// step_period, checkpoint_bytes and restore, load_checkpoint_file_recover
// and WaitingFunctionEstimator::estimate_multistart — and prints one
// BENCH_JSON line (bench/bench_util.hpp's BenchReport, which appends the
// host_isa / simd_mode / threads / pinning / git SHA / peak RSS provenance).
// Output digests are printed, not compared: run.py compares them across
// processes.
//
//   perfbench_worker --workload fleet_day|horizon_week|storm_week
//                    [--threads N] [--pop-seed S] [--fault-seed F]
//                    [--trace SPANS_FILE] [--tmpdir DIR] [--checks 0|1]
//
// --trace turns on the program's spans (obs::set_trace_enabled) for the
// measured loop only, adds the benchmark's own spans around each public
// call, and writes every span to SPANS_FILE as "tid begin_ns end_ns name"
// lines for run.py's self-time analysis. --checks 0 skips the
// kill-and-restore checks that follow the horizon loop.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/fault.hpp"
#include "core/paper_data.hpp"
#include "estimation/wf_estimator.hpp"
#include "fleet/fleet_driver.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"
#include "obs/incident/incident.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::size_t threads = 0;
  std::uint64_t pop_seed = 20110611;
  std::uint64_t fault_seed = 424242;
  std::string spans_path;  // empty = untraced
  std::string tmpdir = ".";
  bool checks = true;  // restore checks after the loop
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--threads") {
      args.threads = std::stoull(value);
    } else if (flag == "--pop-seed") {
      args.pop_seed = std::stoull(value);
    } else if (flag == "--fault-seed") {
      args.fault_seed = std::stoull(value);
    } else if (flag == "--trace") {
      args.spans_path = value;
    } else if (flag == "--tmpdir") {
      args.tmpdir = value;
    } else if (flag == "--checks") {
      args.checks = value != "0";
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (args.workload != "fleet_day" && args.workload != "horizon_week" &&
      args.workload != "storm_week") {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  if (args.threads == 0) args.threads = tdp::hardware_threads();
  return args;
}

// ---- output digests ---------------------------------------------------------

/// FNV-1a over the raw bytes of every value fed in, so two digests agree
/// only when the outputs are bitwise identical.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (v >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (double v : values) add(v);
  }
  std::string hex() const {
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "%016" PRIx64, hash_);
    return buffer;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string day_digest(const tdp::horizon::DayMetrics& d) {
  Digest h;
  h.add(d.day);
  h.add(d.offered_units);
  h.add(d.realized_units);
  h.add(d.rewards);
  h.add(d.sessions);
  h.add(d.deferred_sessions);
  h.add(d.reward_paid_units);
  h.add(d.peak_to_average_tip);
  h.add(d.peak_to_average_tdp);
  h.add(static_cast<std::uint64_t>(d.estimated));
  h.add(d.beta_estimate);
  h.add(d.estimate_residual);
  h.add(static_cast<std::uint64_t>(d.reanchored));
  h.add(d.fallback_periods);
  h.add(static_cast<std::uint64_t>(d.estimation_frozen));
  h.add(static_cast<std::uint64_t>(d.reanchor_rolled_back));
  h.add(d.reward_step_linf);
  return h.hex();
}

std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += '"' + values[i] + '"';
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  char buffer[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s%.9g", i ? "," : "", values[i]);
    out += buffer;
  }
  return out + "]";
}

std::vector<std::string> days_digests(
    const std::vector<tdp::horizon::DayMetrics>& days) {
  std::vector<std::string> out;
  for (const auto& d : days) out.push_back(day_digest(d));
  return out;
}

// ---- registry counters ------------------------------------------------------

/// Process-wide counters whose growth over the measured loop run.py reports
/// per layer (the registry's names, without the "_total" suffix).
const char* const kCounters[] = {
    "kernel.plan_builds_total",     "kernel.memo_hits_total",
    "kernel.memo_misses_total",     "fista.iterations_total",
    "fista.backtracks_total",       "pricer.skipped_updates_total",
    "channel.fallback_periods_total", "guard.gaps_filled_total",
    "horizon.reanchors_total",      "horizon.stream_commits_total",
};

class CounterWindow {
 public:
  CounterWindow() {
    for (const char* name : kCounters) {
      deltas_.emplace_back(tdp::obs::Registry::global().counter(name));
    }
  }
  void report(tdp::bench::BenchReport& report) const {
    std::string out = "{";
    for (std::size_t i = 0; i < deltas_.size(); ++i) {
      std::string name = kCounters[i];
      name.resize(name.size() - std::strlen("_total"));
      out += (i ? ",\"" : "\"") + name + "\":" +
             std::to_string(deltas_[i].delta());
    }
    report.add_raw("counters", out + "}");
  }

 private:
  std::vector<tdp::obs::CounterDelta> deltas_;
};

// ---- tracing ----------------------------------------------------------------

/// Writes every recorded span as "tid begin_ns end_ns name", pairing each
/// thread's B/E events with a stack (spans nest within a thread).
void write_spans(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  struct Open {
    std::string name;
    std::uint64_t begin;
  };
  std::vector<std::vector<Open>> stacks;
  for (const tdp::obs::TraceEvent& e : tdp::obs::trace_events()) {
    if (e.tid >= stacks.size()) stacks.resize(e.tid + 1);
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back({e.name, e.ts_ns});
    } else if (e.phase == 'E' && !stack.empty()) {
      out << e.tid << ' ' << stack.back().begin << ' ' << e.ts_ns << ' '
          << stack.back().name << '\n';
      stack.pop_back();
    }
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

/// The thread that runs the benchmark loop; run.py treats spans on other
/// threads as children of the innermost span open here.
std::uint32_t main_trace_tid() {
  tdp::obs::trace_instant("perfbench.main");
  std::uint32_t tid = 0;
  for (const tdp::obs::TraceEvent& e : tdp::obs::trace_events()) {
    if (e.phase == 'i' && e.name == "perfbench.main") tid = e.tid;
  }
  return tid;
}

/// This process's peak resident set in MiB (VmHWM). Unlike getrusage's
/// ru_maxrss, it does not inherit the high-water mark of the process image
/// that exec replaced, which is the launching Python interpreter's.
double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

// ---- workloads --------------------------------------------------------------

/// Fields shared by every workload's report.
struct LoopResult {
  double setup_s = 0.0;
  double loop_s = 0.0;
  double p2a_reduction = 0.0;
};

void report_common(tdp::bench::BenchReport& report, const LoopResult& r) {
  report.add("setup_s", r.setup_s);
  report.add("loop_s", r.loop_s);
  report.add("p2a_reduction", r.p2a_reduction);
  report.add("build_type", std::string(PERFBENCH_BUILD_TYPE));
}

/// Switches the program's spans on for the measured loop and returns the
/// loop thread's trace id.
std::uint32_t start_trace() {
  tdp::obs::set_trace_enabled(true);
  const std::uint32_t tid = main_trace_tid();
  tdp::obs::trace_clear();
  return tid;
}

void finish_trace(const Args& args, tdp::bench::BenchReport& report,
                  std::uint32_t tid) {
  tdp::obs::set_trace_enabled(false);
  write_spans(args.spans_path);
  report.add("main_tid", static_cast<std::uint64_t>(tid));
}

/// fleet_day: the 1M-user day, 128 shards, one warmup day.
void run_fleet_day(const Args& args, tdp::bench::BenchReport& report) {
  tdp::fleet::FleetDriverConfig config;
  config.population.users = 1000000;
  config.population.periods = 48;
  config.population.seed = args.pop_seed;
  config.shards = 128;
  config.threads = args.threads;
  config.warmup_days = 1;
  config.online_pricing = true;

  LoopResult r;
  const auto setup_start = Clock::now();
  tdp::fleet::FleetDriver driver(config);
  r.setup_s = seconds_since(setup_start);

  const bool traced = !args.spans_path.empty();
  const std::uint32_t tid = traced ? start_trace() : 0;
  const CounterWindow counters;
  tdp::fleet::FleetMetrics m;
  const auto loop_start = Clock::now();
  {
    tdp::obs::Span span("bench.run_day");
    m = driver.run_day();
  }
  r.loop_s = seconds_since(loop_start);
  counters.report(report);
  if (traced) finish_trace(args, report, tid);

  r.p2a_reduction = m.peak_to_average_tip > 0.0
                        ? (m.peak_to_average_tip - m.peak_to_average_tdp) /
                              m.peak_to_average_tip
                        : 0.0;
  Digest digest;
  digest.add(m.offered_units);
  digest.add(m.realized_units);
  digest.add(driver.mechanism().rewards());
  digest.add(m.sessions);
  digest.add(m.deferred_sessions);
  digest.add(m.reward_paid_units);
  digest.add(m.pricer_expected_cost);
  report_common(report, r);
  report.add_raw("digests", json_strings({digest.hex()}));
  report.add("periods", static_cast<std::uint64_t>(m.periods));
}

tdp::horizon::HorizonConfig horizon_config(const Args& args, bool storm,
                                           const std::string& ck_path) {
  tdp::horizon::HorizonConfig config;
  config.population.users = 100000;
  config.population.periods = 48;
  config.population.seed = args.pop_seed;
  config.shards = 32;
  config.threads = args.threads;
  config.warmup_days = 1;
  config.horizon_days = 7;
  config.estimation_window = 4;
  config.estimation_min_days = 2;
  config.estimation_starts = 2;
  config.reanchor = true;
  config.fault.price_pull_drop = 0.02;
  config.fault.measurement_loss = 0.02;
  config.fault.drift_beta_rate = 0.01;
  config.fault.seed = args.fault_seed;
  if (storm) {
    // The 20%-duty reference storm: onset 0.06, persist 0.76.
    config.fault.storm_blackout = {0.06, 0.76, 1.0};
    config.fault.storm_channel = {0.06, 0.76, 0.5};
    config.fault.storm_solver = {0.06, 0.76, 1.0};
    config.estimation_health_gate = true;
    config.reanchor_healthy_periods = 8;
    config.reanchor_objective_guard = true;
    config.reanchor_guard_tolerance = 0.05;
    config.incident.enabled = true;
    config.checkpoint_path = ck_path;
    config.checkpoint_every_periods = 8;
  }
  return config;
}

double mean_p2a_reduction(const std::vector<tdp::horizon::DayMetrics>& days,
                          std::size_t warmup_days) {
  double total = 0.0;
  std::size_t counted = 0;
  for (const auto& d : days) {
    if (d.day < warmup_days || d.peak_to_average_tip <= 0.0) continue;
    total += (d.peak_to_average_tip - d.peak_to_average_tdp) /
             d.peak_to_average_tip;
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
}

/// Replays estimate_multistart on every window the loop fitted, rebuilding
/// each window from the finished days exactly as the driver does, and times
/// the fits. Returns false when a replayed fit differs from the loop's.
bool replay_estimation(const tdp::horizon::HorizonConfig& config,
                       std::size_t threads,
                       const std::vector<tdp::horizon::DayMetrics>& days,
                       std::uint64_t* fits, double* fit_s) {
  using tdp::EstimationDataset;
  const std::size_t n = config.population.periods;
  std::vector<const tdp::horizon::DayMetrics*> window;
  bool match = true;
  for (const auto& d : days) {
    if (d.day < config.warmup_days || !config.estimation ||
        d.estimation_frozen) {
      match = match && !d.estimated;
      continue;
    }
    window.push_back(&d);
    if (window.size() > config.estimation_window) window.erase(window.begin());
    if (window.size() < config.estimation_min_days) {
      match = match && !d.estimated;
      continue;
    }
    std::vector<double> tip(n, 0.0);
    for (const auto* r : window) {
      for (std::size_t p = 0; p < n; ++p) tip[p] += r->offered_units[p];
    }
    for (std::size_t p = 0; p < n; ++p) {
      tip[p] /= static_cast<double>(window.size());
    }
    std::vector<EstimationDataset> data;
    for (const auto* r : window) {
      std::vector<double> change(n);
      for (std::size_t p = 0; p < n; ++p) {
        change[p] = r->offered_units[p] - r->realized_units[p];
      }
      data.push_back(EstimationDataset{r->rewards, change});
    }
    tdp::WaitingFunctionEstimator estimator(
        n, /*types=*/1, tdp::paper::kStaticNormalizationReward);
    tdp::WaitingFunctionEstimator::MultiStartOptions options;
    options.starts = config.estimation_starts;
    options.seed = 1;
    options.threads = threads;
    options.tied = true;
    const auto start = Clock::now();
    const tdp::WaitingFunctionEstimate estimate =
        estimator.estimate_multistart(tip, data, options);
    *fit_s += seconds_since(start);
    ++*fits;
    match = match && d.estimated &&
            estimate.mix.beta(0, 0) == d.beta_estimate &&
            estimate.residual_norm2 == d.estimate_residual;
  }
  return match;
}

/// horizon_week / storm_week: the multi-day driver, one step_period at a
/// time, each step timed and tagged ordinary ('o'), commit ('c') or
/// day-boundary rollover ('r').
void run_horizon(const Args& args, bool storm,
                 tdp::bench::BenchReport& report) {
  const bool checks = args.checks;
  using tdp::horizon::MultiDayDriver;
  const fs::path tmp = args.tmpdir;
  const std::string ck_path = (tmp / "commit.ckpt").string();
  const std::string mid_path = (tmp / "mid.ckpt").string();
  const tdp::horizon::HorizonConfig config =
      horizon_config(args, storm, ck_path);

  LoopResult r;
  const auto setup_start = Clock::now();
  MultiDayDriver driver(config);
  r.setup_s = seconds_since(setup_start);

  const std::size_t periods = config.population.periods;
  const std::size_t total =
      (config.warmup_days + config.horizon_days) * periods;
  // Mid-run kill point for the restore check, on a commit boundary.
  const std::size_t every = 8;
  const std::size_t kill_step = total * 3 / 5 / every * every;

  const bool traced = !args.spans_path.empty();
  const std::uint32_t tid = traced ? start_trace() : 0;
  const CounterWindow counters;
  std::vector<double> step_ms;
  std::string tags;
  std::vector<std::uint8_t> mid_bytes;
  double encode_ms = 0.0;
  for (std::size_t step = 0; step < total; ++step) {
    if (checks && step == kill_step) {
      // Outside the timed steps: keep the state to resume from.
      if (storm) {
        fs::copy_file(ck_path, mid_path, fs::copy_options::overwrite_existing);
      } else {
        const auto start = Clock::now();
        mid_bytes = driver.checkpoint_bytes();
        encode_ms = 1e3 * seconds_since(start);
      }
    }
    const std::size_t period = driver.period();
    char tag = 'o';
    const char* name = "bench.step.ordinary";
    if (period + 1 == periods) {
      tag = 'r';
      name = "bench.step.rollover";
    } else if (storm && (period + 1) % every == 0) {
      tag = 'c';
      name = "bench.step.commit";
    }
    const auto start = Clock::now();
    {
      tdp::obs::Span span(name);
      driver.step_period();
    }
    step_ms.push_back(1e3 * seconds_since(start));
    tags += tag;
  }
  for (double ms : step_ms) r.loop_s += ms / 1e3;
  counters.report(report);
  if (traced) finish_trace(args, report, tid);

  const std::vector<tdp::horizon::DayMetrics>& days = driver.completed_days();
  r.p2a_reduction = mean_p2a_reduction(days, config.warmup_days);
  report_common(report, r);
  report.add_raw("step_ms", json_numbers(step_ms));
  report.add("step_tags", tags);
  report.add_raw("digests", json_strings(days_digests(days)));

  std::uint64_t frozen = 0;
  for (const auto& d : days) frozen += d.estimation_frozen ? 1 : 0;
  report.add("frozen_days", frozen);
  if (const auto* engine = driver.incident_engine()) {
    report.add("incident_alerts", engine->alerts_emitted());
    report.add("incidents_opened", engine->incidents_opened());
  }

  if (traced) {
    std::uint64_t fits = 0;
    double fit_s = 0.0;
    const bool match =
        replay_estimation(config, driver.thread_count(), days, &fits, &fit_s);
    report.add("estimation_fits", fits);
    report.add("estimation_fit_s", fit_s);
    report.add("estimation_replay_match", std::string(match ? "yes" : "no"));
  }
  if (!checks) return;

  // Restore onto a different shard count, without streaming, and finish.
  tdp::horizon::HorizonConfig resume = config;
  resume.shards = 8;
  resume.checkpoint_path.clear();
  if (storm) {
    const auto encode_start = Clock::now();
    (void)driver.checkpoint_bytes();
    encode_ms = 1e3 * seconds_since(encode_start);
    report.add("ckpt_bytes",
               static_cast<std::uint64_t>(fs::file_size(ck_path)));

    // The newest commit is the end of the week: recover and restore it.
    const auto recover_start = Clock::now();
    const tdp::horizon::CheckpointData newest =
        tdp::horizon::load_checkpoint_file_recover(ck_path);
    report.add("recover_ms", 1e3 * seconds_since(recover_start));
    const auto restore_start = Clock::now();
    const auto recovered = MultiDayDriver::restore(resume, newest);
    report.add("restore_ms", 1e3 * seconds_since(restore_start));
    report.add_raw("recovered_digests",
                   json_strings(days_digests(recovered->completed_days())));

    const auto from_mid = MultiDayDriver::restore(
        resume, tdp::horizon::load_checkpoint_file_recover(mid_path));
    while (!from_mid->done()) from_mid->step_period();
    report.add_raw("restored_digests",
                   json_strings(days_digests(from_mid->completed_days())));
  } else {
    report.add("ckpt_bytes", static_cast<std::uint64_t>(mid_bytes.size()));
    const auto restore_start = Clock::now();
    const auto from_mid = MultiDayDriver::restore(resume, mid_bytes);
    report.add("restore_ms", 1e3 * seconds_since(restore_start));
    while (!from_mid->done()) from_mid->step_period();
    report.add_raw("restored_digests",
                   json_strings(days_digests(from_mid->completed_days())));
  }
  report.add("encode_ms", encode_ms);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    fs::create_directories(args.tmpdir);
    tdp::bench::BenchReport report(args.workload);
    report.set_threads_used(args.threads);
    report.add("pop_seed", args.pop_seed);
    report.add("fault_seed", args.fault_seed);
    if (args.workload == "fleet_day") {
      run_fleet_day(args, report);
    } else {
      run_horizon(args, args.workload == "storm_week", report);
    }
    report.add("vm_hwm_mb", vm_hwm_mb());
    report.emit();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_worker: %s\n", e.what());
    return 1;
  }
}

// Long-horizon bench: wall time of the multi-day control loop (online §IV
// re-estimation in the loop, drift active) plus the checkpoint codec cost,
// emitting BENCH_JSON lines and a machine-readable BENCH_horizon.json for
// the CI perf gate (tools/check_bench_regression.py --suite horizon).
//
//   horizon_run        warmup + measured days of the MultiDayDriver at fleet
//                      scale, estimation + re-anchoring every day, patience
//                      drift injected so the estimator has work to do
//   checkpoint_codec   encode/decode of the end-of-run checkpoint and one
//                      full restore (population rebuild + model re-solve)
//
// The run also re-executes the kill-and-restore contract once at bench
// scale: the second half of the horizon simulated from a mid-run checkpoint
// must reproduce the uninterrupted day metrics bitwise (the enforced
// version lives in tests/test_horizon.cpp); a mismatch fails the bench.
//
// Absolute times are normalized by calibration_seconds (the shared
// reference workload of bench_util.hpp, timed in this process) before
// baseline comparison, so the regression gate measures code changes rather
// than host-speed changes.
//
//   ./bench/bench_horizon [--out BENCH_horizon.json] [--users N] [--days N]
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/multi_day_driver.hpp"

int main(int argc, char** argv) {
  using namespace tdp;

  std::uint64_t users = 20000;
  std::uint64_t days = 5;
  bench::Suite suite(bench::parse_args(
      argc, argv, {{"--users", &users}, {"--days", &days}}));

  bench::banner("horizon",
                "multi-day online estimation loop + checkpoint codec");

  // Drift on top of the shared chaos so the estimator/re-anchor work is
  // exercised every day.
  horizon::HorizonConfig config = bench::storm_config(users, days, false);
  config.fault.drift_beta_rate = 0.01;

  // ---- horizon_run: the full multi-day loop -------------------------------
  horizon::HorizonMetrics metrics;
  std::vector<std::uint8_t> mid_bytes;
  std::size_t mid_kill_step = 0;
  {
    bench::SuiteReport report(suite, "horizon_run");
    horizon::MultiDayDriver driver(config);
    // Checkpoint once mid-horizon (the kill point for the restore check).
    const std::size_t total_steps =
        (config.warmup_days + config.horizon_days) *
        config.population.periods;
    mid_kill_step = total_steps / 2;
    const auto start = bench::Clock::now();
    for (std::size_t step = 0; step < total_steps; ++step) {
      if (step == mid_kill_step) mid_bytes = driver.checkpoint_bytes();
      driver.step_period();
    }
    const double loop_seconds = bench::seconds_since(start);
    metrics = driver.metrics();

    double estimates = 0.0;
    for (const auto& d : metrics.days) {
      if (d.estimated) estimates += 1.0;
    }
    report.add("users", users);
    report.add("periods",
               static_cast<std::uint64_t>(config.population.periods));
    report.add("days", static_cast<std::uint64_t>(metrics.days.size()));
    report.gate("horizon_wall_seconds", loop_seconds);
    report.add("estimates", estimates);
    report.add("final_beta",
               metrics.days.empty() ? 0.0
                                    : metrics.days.back().beta_estimate);
    report.emit();

    const double day_ms =
        1e3 * loop_seconds /
        static_cast<double>(config.warmup_days + config.horizon_days);
    std::printf("  horizon_run        %zu days x %llu users: %.3f s "
                "(%.1f ms/day), %g estimates\n",
                config.warmup_days + config.horizon_days,
                static_cast<unsigned long long>(users), loop_seconds,
                day_ms, estimates);
  }

  // ---- kill-and-restore contract at bench scale ---------------------------
  {
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(config, mid_bytes);
    while (!restored->done()) restored->step_period();
    const horizon::HorizonMetrics resumed = restored->metrics();
    if (!bench::days_bitwise_equal(metrics.days, resumed.days)) {
      std::printf("  ERROR: restored run diverged from the uninterrupted "
                  "run (kill step %zu)\n",
                  mid_kill_step);
      return 1;
    }
    std::printf("  restore check      resumed run bit-identical: yes\n");
  }

  // ---- checkpoint_codec: encode / decode / restore ------------------------
  {
    bench::SuiteReport report(suite, "checkpoint_codec");
    horizon::MultiDayDriver driver(config);
    driver.run_day();  // a warmed checkpoint with ring + window state
    driver.run_day();
    const horizon::CheckpointData data = driver.checkpoint();
    const std::vector<std::uint8_t> bytes = horizon::encode(data);

    const std::size_t reps = 100;
    const double encode_seconds =
        bench::time_reps(reps, [&] { (void)horizon::encode(data); });
    const double decode_seconds =
        bench::time_reps(reps, [&] { (void)horizon::decode(bytes); });
    const auto restore_start = bench::Clock::now();
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(config, bytes);
    const double restore_seconds = bench::seconds_since(restore_start);
    (void)restored;

    report.add("checkpoint_bytes",
               static_cast<std::uint64_t>(bytes.size()));
    report.add("reps", static_cast<std::uint64_t>(reps));
    report.gate("encode_seconds", encode_seconds);
    report.gate("decode_seconds", decode_seconds);
    report.gate("restore_wall_seconds", restore_seconds);
    report.emit();

    std::printf("  checkpoint_codec   %zu bytes, encode %.3f ms, decode "
                "%.3f ms, restore %.3f s\n",
                bytes.size(), 1e3 * encode_seconds / reps,
                1e3 * decode_seconds / reps, restore_seconds);
  }

  return suite.finish();
}

// Storm-recovery bench: what a correlated fault storm costs the control
// loop, what streaming checkpoints cost the period loop, and how fast a
// crash-under-storm recovery is — emitting BENCH_JSON lines and a
// machine-readable BENCH_storm.json for the CI perf gate
// (tools/check_bench_regression.py --suite storm).
//
//   storm_week        the multi-day loop under a 20%-duty storm plan
//                     (blackout + channel + solver regimes) vs the same
//                     fleet with the storms off: p2a_retention is the
//                     peak-to-average reduction the pricer keeps while the
//                     weather is bad (gated >= --min-p2a-retention)
//   stream_overhead   the same storm run with streaming v2 checkpoints on
//                     (atomic tmp/rename commit every --every periods):
//                     stream_overhead_fraction = on/off - 1 is gated
//                     <= --max-stream-overhead
//   storm_recovery    kill the streamed run mid-storm, recover from the
//                     committed file (torn-write-tolerant loader), restore
//                     onto a different shard count, and finish: the
//                     resumed days must be bitwise identical to the
//                     uninterrupted run's (a mismatch fails the bench) and
//                     recovery_wall_seconds is gated against the baseline
//
// Absolute times are normalized by calibration_seconds (the shared
// reference workload of bench_util.hpp, timed in this process) before
// baseline comparison, so the regression gate measures code changes rather
// than host-speed changes.
//
//   ./bench/bench_storm_recovery [--out BENCH_storm.json] [--users N]
//                                [--days N] [--every K]
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/multi_day_driver.hpp"

namespace {

double mean_p2a_reduction(const std::vector<tdp::horizon::DayMetrics>& days,
                          std::size_t warmup_days) {
  double total = 0.0;
  std::size_t counted = 0;
  for (const tdp::horizon::DayMetrics& d : days) {
    if (d.day < warmup_days || d.peak_to_average_tip <= 0.0) continue;
    total += (d.peak_to_average_tip - d.peak_to_average_tdp) /
             d.peak_to_average_tip;
    ++counted;
  }
  return counted ? total / static_cast<double>(counted) : 0.0;
}

double run_wall(const tdp::horizon::HorizonConfig& config,
                std::vector<tdp::horizon::DayMetrics>* days_out = nullptr) {
  tdp::horizon::MultiDayDriver driver(config);
  const auto start = tdp::bench::Clock::now();
  while (!driver.done()) driver.step_period();
  const double wall = tdp::bench::seconds_since(start);
  if (days_out != nullptr) *days_out = driver.completed_days();
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  std::uint64_t users = 20000;
  std::uint64_t days = 4;
  std::uint64_t every = 8;  // streamed commit cadence in periods
  bench::Suite suite(bench::parse_args(
      argc, argv,
      {{"--users", &users}, {"--days", &days}, {"--every", &every}}));

  bench::banner("storm_recovery",
                "storm-mode P2A retention + streaming checkpoint overhead "
                "+ crash-under-storm recovery");

  const horizon::HorizonConfig calm = bench::storm_config(users, days, false);
  const horizon::HorizonConfig stormy = bench::storm_config(users, days, true);
  const std::size_t total_steps =
      (stormy.warmup_days + stormy.horizon_days) * stormy.population.periods;

  // ---- storm_week: P2A retention under the 20%-duty storm -----------------
  std::vector<horizon::DayMetrics> storm_days;
  double storm_wall = 0.0;
  {
    bench::SuiteReport report(suite, "storm_week");
    std::vector<horizon::DayMetrics> calm_days;
    const double calm_wall = run_wall(calm, &calm_days);
    storm_wall = run_wall(stormy, &storm_days);

    const double calm_reduction =
        mean_p2a_reduction(calm_days, calm.warmup_days);
    const double storm_reduction =
        mean_p2a_reduction(storm_days, stormy.warmup_days);
    const double retention =
        calm_reduction > 0.0 ? storm_reduction / calm_reduction : 0.0;

    report.add("users", users);
    report.add("days", days);
    report.gate("calm_wall_seconds", calm_wall);
    report.gate("calm_p2a_reduction", calm_reduction);
    report.gate("storm_p2a_reduction", storm_reduction);
    report.gate("p2a_retention", retention);
    report.gate("storm_wall_seconds", storm_wall);
    report.emit();
    std::printf("  storm_week         p2a reduction %.3f calm -> %.3f storm "
                "(retention %.3f), %.3f s\n",
                calm_reduction, storm_reduction, retention, storm_wall);
  }

  // ---- stream_overhead: streamed v2 commits vs no checkpointing -----------
  const std::string ck_path = "BENCH_storm_ck.bin";
  {
    bench::SuiteReport report(suite, "stream_overhead");
    horizon::HorizonConfig streaming = stormy;
    streaming.checkpoint_path = ck_path;
    streaming.checkpoint_every_periods = every;

    horizon::MultiDayDriver driver(streaming);
    const auto start = bench::Clock::now();
    while (!driver.done()) driver.step_period();
    const double streamed_wall = bench::seconds_since(start);
    const double overhead =
        storm_wall > 0.0 ? streamed_wall / storm_wall - 1.0 : 0.0;

    report.add("commit_every_periods", every);
    report.gate("streamed_wall_seconds", streamed_wall);
    report.gate("stream_overhead_fraction", overhead);
    report.emit();
    std::printf("  stream_overhead    %.3f s streamed vs %.3f s bare "
                "(%.1f%% overhead, commit every %llu periods)\n",
                streamed_wall, storm_wall, 1e2 * overhead,
                static_cast<unsigned long long>(every));
  }

  // ---- storm_recovery: kill mid-storm, recover, resume, verify ------------
  {
    bench::SuiteReport report(suite, "storm_recovery");
    horizon::HorizonConfig streaming = stormy;
    streaming.checkpoint_path = ck_path;
    streaming.checkpoint_every_periods = every;
    const std::size_t kill_step = (total_steps * 3) / 5;
    {
      horizon::MultiDayDriver victim(streaming);
      for (std::size_t step = 0; step < kill_step; ++step) {
        victim.step_period();
      }
      // The victim dies here; only the streamed file survives.
    }

    horizon::HorizonConfig resume = stormy;  // no streaming on the resume
    resume.shards = 16;                      // recover onto a new layout
    const auto recover_start = bench::Clock::now();
    const horizon::CheckpointData recovered =
        horizon::load_checkpoint_file_recover(ck_path);
    std::unique_ptr<horizon::MultiDayDriver> restored =
        horizon::MultiDayDriver::restore(resume, recovered);
    const double recovery_wall = bench::seconds_since(recover_start);

    const auto resume_start = bench::Clock::now();
    while (!restored->done()) restored->step_period();
    const double resume_wall = bench::seconds_since(resume_start);

    if (!bench::days_bitwise_equal(storm_days, restored->completed_days())) {
      std::printf("  ERROR: resumed storm run diverged from the "
                  "uninterrupted run (kill step %zu)\n",
                  kill_step);
      return 1;
    }

    report.add("kill_step", static_cast<std::uint64_t>(kill_step));
    report.gate("recovery_wall_seconds", recovery_wall);
    report.gate("resume_wall_seconds", resume_wall);
    report.emit();
    std::printf("  storm_recovery     recovered + restored in %.3f s, "
                "resumed %zu steps in %.3f s, bit-identical: yes\n",
                recovery_wall, total_steps - kill_step, resume_wall);
  }
  std::remove(ck_path.c_str());
  std::remove((ck_path + ".tmp").c_str());

  return suite.finish();
}

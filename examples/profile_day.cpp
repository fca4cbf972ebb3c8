// Where does a fleet day's wall time go? Runs the 100k-user online-pricing
// day and prints the driver's per-phase timing breakdown: schedule publish +
// fan-out, deferral-table builds, the sharded user walks, stripe merges, and
// the online pricer's incremental 1-D re-solves.
//
// The phases are instrumented inside FleetDriver::run_day (FleetMetrics
// *_seconds fields), so the same numbers are available from any fleet run's
// JSON — this example just renders them.
//
//   ./examples/profile_day [users]
#include <cstdio>

#include "common/cli.hpp"
#include "fleet/fleet_driver.hpp"

namespace {

void print_phase(const char* name, double seconds, double total) {
  const double share = total > 0.0 ? 100.0 * seconds / total : 0.0;
  const int bar = static_cast<int>(share / 2.0 + 0.5);
  std::printf("  %-22s %8.3f s  %5.1f%%  %.*s\n", name, seconds, share, bar,
              "##################################################");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp::fleet;

  FleetDriverConfig config;
  config.population.users =
      tdp::cli::users_arg(argc, argv, 100000, 1, "[users]");
  config.population.periods = 48;
  config.shards = 64;
  config.threads = 0;
  config.warmup_days = 1;

  std::printf("=== profile day: %llu users, %zu periods, %zu warmup day ===\n",
              static_cast<unsigned long long>(config.population.users),
              config.population.periods, config.warmup_days);
  FleetDriver driver(config);
  const FleetMetrics m = driver.run_day();

  const double phase_total = m.publish_seconds + m.table_seconds +
                             m.simulate_seconds + m.aggregate_seconds +
                             m.pricer_seconds;
  std::printf("\n  %llu sessions over %zu periods x %zu days on %zu "
              "threads; %.2f s wall\n\n",
              static_cast<unsigned long long>(m.sessions), m.periods, m.days,
              m.threads, m.wall_seconds);
  print_phase("publish + fan-out", m.publish_seconds, phase_total);
  print_phase("deferral tables", m.table_seconds, phase_total);
  print_phase("shard simulation", m.simulate_seconds, phase_total);
  print_phase("aggregate merge", m.aggregate_seconds, phase_total);
  print_phase("online pricer", m.pricer_seconds, phase_total);
  std::printf("  %-22s %8.3f s  (loop coverage %.1f%% of wall)\n",
              "phase total", phase_total,
              m.wall_seconds > 0.0 ? 100.0 * phase_total / m.wall_seconds
                                   : 0.0);

  std::printf("\n  throughput: %.2fM sessions/s, %.1fM user-periods/s\n",
              m.sessions_per_second / 1e6, m.user_periods_per_second / 1e6);
  std::printf("  peak-to-average: %.3f (TIP) -> %.3f (TDP)\n",
              m.peak_to_average_tip, m.peak_to_average_tdp);
  return 0;
}

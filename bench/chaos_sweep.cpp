// Chaos sweep: the fleet day under increasing fault rates, measuring how
// gracefully the control loop degrades.
//
// For each fault rate the same population is simulated with a plan that
// drops price pulls, loses/corrupts measurements and starves the solver at
// that rate. Faults only touch what the control loop *observes* — the
// physical fleet is identical across cells — so peak-to-average drift vs
// the clean run isolates the cost of degraded control. Each cell emits a
// BENCH_JSON line with the traffic shape, the degradation vs clean, and
// the pricer's health/recovery counters.
//
// Invariants checked here (both fatal when violated):
//   - the zero-rate cell is bit-identical to a driver with no fault plan;
//   - at a 5% fault rate the peak-to-average ratio stays within 10% of the
//     clean run's value (the control loop rides through, it doesn't fall
//     over).
//
//   ./bench/bench_chaos_sweep            # 20k users, rates 0/1%/5%/20%
//   ./bench/bench_chaos_sweep 50000      # custom fleet size
//
// Any other argument (a second size, zero, "abc", a flag) prints usage to
// stderr and exits 2.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/fault.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"

namespace {

tdp::FaultPlan plan_for_rate(double rate) {
  tdp::FaultPlan plan;
  plan.price_pull_drop = rate;
  plan.measurement_loss = rate / 2.0;
  plan.measurement_nan = rate / 4.0;
  plan.measurement_spike = rate / 4.0;
  plan.solver_exhaustion = rate;
  return plan;
}

tdp::fleet::FleetMetrics run_fleet(std::uint64_t users,
                                   const tdp::FaultPlan& plan) {
  tdp::fleet::FleetDriverConfig config;
  config.population.users = users;
  config.population.periods = 48;
  config.shards = 64;
  config.warmup_days = 1;
  config.online_pricing = true;
  config.fault = plan;
  tdp::fleet::FleetDriver driver(config);
  return driver.run_day();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;

  const std::uint64_t users = cli::users_arg(argc, argv, 20000, 1, "[users]");
  const std::vector<double> rates = {0.0, 0.01, 0.05, 0.20};

  bench::banner("chaos_sweep",
                "fleet day under injected faults, degradation vs clean");

  const fleet::FleetMetrics clean = run_fleet(users, FaultPlan{});
  std::printf("  clean run: P2A %.4f -> %.4f, reward paid %.1f units\n",
              clean.peak_to_average_tip, clean.peak_to_average_tdp,
              clean.reward_paid_units);

  bool ok = true;
  for (double rate : rates) {
    bench::BenchReport report("chaos_sweep");
    const fleet::FleetMetrics metrics = run_fleet(users, plan_for_rate(rate));

    const double p2a_drift =
        clean.peak_to_average_tdp > 0.0
            ? (metrics.peak_to_average_tdp - clean.peak_to_average_tdp) /
                  clean.peak_to_average_tdp
            : 0.0;
    const double reward_drift =
        clean.reward_paid_units > 0.0
            ? (metrics.reward_paid_units - clean.reward_paid_units) /
                  clean.reward_paid_units
            : 0.0;

    report.add("users", static_cast<std::uint64_t>(metrics.users));
    report.add("fault_rate", rate);
    report.add("sessions", metrics.sessions);
    report.add("deferred_sessions", metrics.deferred_sessions);
    report.add("peak_to_average_tip", metrics.peak_to_average_tip);
    report.add("peak_to_average_tdp", metrics.peak_to_average_tdp);
    report.add("p2a_drift_vs_clean", p2a_drift);
    report.add("reward_paid_units", metrics.reward_paid_units);
    report.add("reward_drift_vs_clean", reward_drift);
    report.add("pricer_expected_cost", metrics.pricer_expected_cost);
    report.add("price_pull_drops",
               static_cast<std::uint64_t>(metrics.price_pull_drops));
    report.add("price_stale_periods",
               static_cast<std::uint64_t>(metrics.price_stale_periods));
    report.add("price_fallback_periods",
               static_cast<std::uint64_t>(metrics.price_fallback_periods));
    report.add("shard_stripes_lost",
               static_cast<std::uint64_t>(metrics.shard_stripes_lost));
    report.add("measurement_gaps",
               static_cast<std::uint64_t>(metrics.measurement_gaps));
    report.add("measurement_repairs",
               static_cast<std::uint64_t>(metrics.measurement_repairs));
    report.add("solver_failures", metrics.solver_failures);
    report.add("reward_clamps", metrics.reward_clamps);
    report.add("skipped_updates", metrics.skipped_updates);
    report.add("health_transitions", metrics.health_transitions);
    report.add("degraded_observations", metrics.degraded_observations);
    report.add("fallback_observations", metrics.fallback_observations);
    report.add("pricer_recoveries", metrics.pricer_recoveries);
    report.add("max_recovery_periods", metrics.max_recovery_periods);
    report.add("final_health", metrics.final_health);
    report.emit();

    std::printf(
        "  rate %5.1f%%: P2A %.4f (%+.2f%% vs clean), %llu degraded obs, "
        "%llu clamps, %llu skipped, recovery <= %llu periods, health %s\n",
        rate * 100.0, metrics.peak_to_average_tdp, p2a_drift * 100.0,
        static_cast<unsigned long long>(metrics.degraded_observations),
        static_cast<unsigned long long>(metrics.reward_clamps),
        static_cast<unsigned long long>(metrics.skipped_updates),
        static_cast<unsigned long long>(metrics.max_recovery_periods),
        metrics.final_health.c_str());

    if (rate == 0.0 && !bench::identical_profiles(clean, metrics)) {
      std::printf("  ERROR: zero-fault plan diverged from the clean run\n");
      ok = false;
    }
    if (rate == 0.05 && std::fabs(p2a_drift) > 0.10) {
      std::printf("  ERROR: 5%% fault rate moved P2A by more than 10%%\n");
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

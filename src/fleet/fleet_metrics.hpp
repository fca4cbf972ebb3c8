// Fleet-run metrics: throughput, peak-to-average, cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tdp::fleet {

struct FleetMetrics {
  // Configuration echo.
  std::uint64_t users = 0;
  std::size_t periods = 0;
  std::size_t shards = 0;
  std::size_t threads = 0;
  std::size_t days = 0;  ///< total days simulated (incl. warmup)

  // Volume (measured day only).
  std::uint64_t sessions = 0;
  std::uint64_t deferred_sessions = 0;

  // Throughput over the whole run (all days).
  double wall_seconds = 0.0;
  double sessions_per_second = 0.0;
  double user_periods_per_second = 0.0;

  // Per-phase wall time over the whole run (seconds). The phases cover the
  // period loop end to end, so they sum to ~wall_seconds; examples/
  // profile_day prints this breakdown for a 100k-user day.
  double publish_seconds = 0.0;    ///< schedule publish + fan-out sync
  double table_seconds = 0.0;      ///< per-period DeferralTable builds
  double simulate_seconds = 0.0;   ///< sharded user walks (thread pool)
  double aggregate_seconds = 0.0;  ///< stripe merges + metric folds
  double pricer_seconds = 0.0;     ///< telemetry, guard, online re-solve

  // Traffic shape (measured day, demand units per period).
  std::vector<double> offered_units;   ///< pre-deferral (TIP baseline)
  std::vector<double> realized_units;  ///< post-deferral (under TDP)
  double peak_to_average_tip = 0.0;
  double peak_to_average_tdp = 0.0;

  // Economics (measured day, money units).
  double reward_paid_units = 0.0;      ///< realized reward payouts
  double pricer_expected_cost = 0.0;   ///< model's view after all updates

  // Mechanism arena (DESIGN.md §13).
  std::string mechanism = "tube_online";  ///< active pricing mechanism
  double rebate_budget_pool = 0.0;   ///< daily pool (0 = unbudgeted)
  double rebate_budget_spent = 0.0;  ///< measured day's settle payout

  // Fan-out accounting.
  std::size_t price_groups = 0;
  std::size_t price_server_fetches = 0;

  // Robustness accounting (all days; zero on a fault-free run).
  std::size_t price_pull_drops = 0;       ///< dropped fetch attempts
  std::size_t price_pull_retries = 0;     ///< extra attempts after a drop
  std::size_t price_stale_periods = 0;    ///< group-periods on stale cache
  std::size_t price_fallback_periods = 0; ///< group-periods on flat-TIP
  std::size_t price_skewed_periods = 0;   ///< group-periods lost to skew
  std::size_t price_recoveries = 0;       ///< fetch succeeded after misses
  std::size_t shard_stripes_lost = 0;     ///< shard telemetry never arrived
  std::size_t measurement_gaps = 0;       ///< whole-aggregate losses
  std::size_t measurement_repairs = 0;    ///< guard-sanitized samples
  std::uint64_t solver_failures = 0;
  std::uint64_t reward_clamps = 0;        ///< trust-region bound steps
  std::uint64_t skipped_updates = 0;      ///< FALLBACK froze the schedule
  std::uint64_t health_transitions = 0;
  std::uint64_t degraded_observations = 0;
  std::uint64_t fallback_observations = 0;
  std::uint64_t pricer_recoveries = 0;
  std::uint64_t max_recovery_periods = 0;
  std::string final_health = "HEALTHY";

  // Incident engine (zero when the engine is off). Deterministic counts
  // of the engine's alert/incident streams over the whole run.
  std::uint64_t incident_alerts = 0;
  std::uint64_t incidents_opened = 0;
  std::uint64_t incidents_closed = 0;
};

/// max(profile) / mean(profile); 0 for an empty or all-zero profile.
double peak_to_average(const std::vector<double>& profile);

}  // namespace tdp::fleet

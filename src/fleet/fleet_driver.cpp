#include "fleet/fleet_driver.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp::fleet {

FleetDriver::FleetDriver(FleetDriverConfig config)
    : engine_(std::move(config)) {
  TDP_LOG_INFO << "fleet: " << engine_.population().users() << " users over "
               << engine_.slice_count() << " slices in "
               << engine_.shard_count() << " shards, "
               << engine_.thread_count() << " threads, "
               << engine_.population().periods() << " periods, "
               << engine_.mechanism().name() << " mechanism";
}

const OnlinePricer& FleetDriver::pricer() const {
  const OnlinePricer* pricer = engine_.mechanism().online_pricer();
  TDP_REQUIRE(pricer != nullptr,
              "pricer() needs the tube_online mechanism; use mechanism()");
  return *pricer;
}

FleetMetrics FleetDriver::run_day() {
  TDP_REQUIRE(!ran_, "FleetDriver instances are single-shot");
  ran_ = true;
  TDP_OBS_SPAN("fleet.run_day");

  const std::size_t n = engine_.population().periods();
  const std::size_t total_days = engine_.config().warmup_days + 1;
  mech::PricingMechanism& mechanism = engine_.mechanism();
  obs::incident::IncidentEngine* incident = engine_.incident();

  FleetMetrics metrics;
  metrics.users = engine_.population().users();
  metrics.periods = n;
  metrics.shards = engine_.shard_count();
  metrics.threads = engine_.thread_count();
  metrics.days = total_days;
  metrics.price_groups = engine_.fanout().groups();
  metrics.offered_units.assign(n, 0.0);
  metrics.realized_units.assign(n, 0.0);

  // FleetMetrics' timing and robustness fields are per-run views over the
  // process-wide registry: capture each counter's baseline now, read the
  // deltas after the loop. Safe because a driver is single-shot and nothing
  // else exercises this channel/pricer while run_day runs.
  obs::Registry& reg = obs::Registry::global();
  const auto delta = [&reg](const char* name) {
    return obs::CounterDelta(reg.counter(name));
  };
  const obs::CounterDelta d_publish = delta("fleet.phase.publish_ns");
  const obs::CounterDelta d_table = delta("fleet.phase.table_ns");
  const obs::CounterDelta d_simulate = delta("fleet.phase.simulate_ns");
  const obs::CounterDelta d_aggregate = delta("fleet.phase.aggregate_ns");
  const obs::CounterDelta d_pricer = delta("fleet.phase.pricer_ns");
  const obs::CounterDelta d_stripes = delta("fleet.shard_stripes_lost_total");
  const obs::CounterDelta d_gaps = delta("fleet.measurement_gaps_total");
  const obs::CounterDelta d_repairs = delta("fleet.measurement_repairs_total");
  const obs::CounterDelta d_fetches = delta("channel.fetches_total");
  const obs::CounterDelta d_drops = delta("channel.dropped_attempts_total");
  const obs::CounterDelta d_retries = delta("channel.retries_total");
  const obs::CounterDelta d_stale = delta("channel.stale_periods_total");
  const obs::CounterDelta d_chan_fallback =
      delta("channel.fallback_periods_total");
  const obs::CounterDelta d_skewed = delta("channel.skewed_periods_total");
  const obs::CounterDelta d_chan_recoveries = delta("channel.recoveries_total");
  const obs::CounterDelta d_solve_failures =
      delta("pricer.solve_failures_total");
  const obs::CounterDelta d_clamps = delta("pricer.clamped_steps_total");
  const obs::CounterDelta d_skipped = delta("pricer.skipped_updates_total");
  const obs::CounterDelta d_transitions =
      delta("pricer.health_transitions_total");
  const obs::CounterDelta d_degraded =
      delta("pricer.degraded_observations_total");
  const obs::CounterDelta d_fallback_obs =
      delta("pricer.fallback_observations_total");
  const obs::CounterDelta d_recoveries = delta("pricer.recoveries_total");

  std::uint64_t all_day_sessions = 0;
  const auto start = std::chrono::steady_clock::now();

  // Per-day settlement accumulators (every day, warmup included: budgeted
  // mechanisms adapt their splits across warmup days too).
  mech::DaySettlement settlement;
  for (std::size_t day = 0; day < total_days; ++day) {
    const bool measured = day + 1 == total_days;
    settlement.offered_units.assign(n, 0.0);
    settlement.realized_units.assign(n, 0.0);
    settlement.reward_paid_units = 0.0;
    SubscriberTelemetry day_chan_before;
    if (incident != nullptr) {
      day_chan_before = engine_.fanout().total_telemetry();
    }
    engine_.publish_day(day);
    for (std::size_t period = 0; period < n; ++period) {
      const PeriodEngine::PeriodResult r = engine_.step_period(day, period);
      all_day_sessions += r.merged.sessions;
      settlement.offered_units[period] = r.offered_units;
      settlement.realized_units[period] = r.realized_units;
      settlement.reward_paid_units += r.reward_paid_units;
      if (measured) {
        metrics.sessions += r.merged.sessions;
        metrics.deferred_sessions += r.merged.deferred_sessions;
        metrics.offered_units[period] = r.offered_units;
        metrics.realized_units[period] = r.realized_units;
        metrics.reward_paid_units += r.reward_paid_units;
      }
    }

    const mech::SettleInfo settle = engine_.settle_day(day, settlement);
    if (measured) {
      metrics.rebate_budget_spent = settle.budget_spent;
      metrics.rebate_budget_pool = settle.budget_pool;
    }
    if (incident != nullptr) {
      // The fleet's day signal counts channel fallback periods (the
      // horizon's counts gated pricer-FALLBACK periods; DESIGN.md §8).
      const SubscriberTelemetry day_chan_now =
          engine_.fanout().total_telemetry();
      obs::incident::DaySignals dsig;
      dsig.day = day;
      dsig.abs_period = static_cast<std::uint64_t>(day) * n + (n - 1);
      dsig.peak_to_average_tip = peak_to_average(settlement.offered_units);
      dsig.peak_to_average_tdp = peak_to_average(settlement.realized_units);
      dsig.peak_realized_units =
          *std::max_element(settlement.realized_units.begin(),
                            settlement.realized_units.end());
      dsig.fallback_periods =
          day_chan_now.fallback_periods - day_chan_before.fallback_periods;
      incident->observe_day(dsig);
    }
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  metrics.wall_seconds =
      std::chrono::duration<double>(elapsed).count();
  metrics.publish_seconds = static_cast<double>(d_publish.delta()) * 1e-9;
  metrics.table_seconds = static_cast<double>(d_table.delta()) * 1e-9;
  metrics.simulate_seconds = static_cast<double>(d_simulate.delta()) * 1e-9;
  metrics.aggregate_seconds = static_cast<double>(d_aggregate.delta()) * 1e-9;
  metrics.pricer_seconds = static_cast<double>(d_pricer.delta()) * 1e-9;
  const double user_periods = static_cast<double>(metrics.users) *
                              static_cast<double>(n) *
                              static_cast<double>(total_days);
  if (metrics.wall_seconds > 0.0) {
    metrics.sessions_per_second =
        static_cast<double>(all_day_sessions) / metrics.wall_seconds;
    metrics.user_periods_per_second = user_periods / metrics.wall_seconds;
  }
  metrics.peak_to_average_tip = peak_to_average(metrics.offered_units);
  metrics.peak_to_average_tdp = peak_to_average(metrics.realized_units);
  metrics.pricer_expected_cost = mechanism.expected_cost();
  metrics.mechanism = mechanism.name();

  // Robustness counters: per-run deltas of the channel/pricer/fleet
  // registry counters (the components bump them at the event sites).
  metrics.price_server_fetches = d_fetches.delta();
  metrics.price_pull_drops = d_drops.delta();
  metrics.price_pull_retries = d_retries.delta();
  metrics.price_stale_periods = d_stale.delta();
  metrics.price_fallback_periods = d_chan_fallback.delta();
  metrics.price_skewed_periods = d_skewed.delta();
  metrics.price_recoveries = d_chan_recoveries.delta();
  metrics.shard_stripes_lost = d_stripes.delta();
  metrics.measurement_gaps = d_gaps.delta();
  metrics.measurement_repairs = d_repairs.delta();
  metrics.solver_failures = d_solve_failures.delta();
  metrics.reward_clamps = d_clamps.delta();
  metrics.skipped_updates = d_skipped.delta();
  metrics.health_transitions = d_transitions.delta();
  metrics.degraded_observations = d_degraded.delta();
  metrics.fallback_observations = d_fallback_obs.delta();
  metrics.pricer_recoveries = d_recoveries.delta();
  // The maximum and the final rung are state, not counts: read them from
  // the mechanism directly.
  const PricerHealthStats* health_stats = mechanism.health_stats();
  metrics.max_recovery_periods =
      health_stats != nullptr ? health_stats->max_recovery_periods : 0;
  metrics.final_health = to_string(mechanism.health());
  if (incident != nullptr) {
    metrics.incident_alerts = incident->alerts_emitted();
    metrics.incidents_opened = incident->incidents_opened();
    metrics.incidents_closed = incident->incidents_closed();
  }
  return metrics;
}

}  // namespace tdp::fleet

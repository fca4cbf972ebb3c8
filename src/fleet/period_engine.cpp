#include "fleet/period_engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/paper_data.hpp"
#include "math/piecewise_linear.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp::fleet {
namespace {

/// The loop's registry instruments. Phase timers are nanosecond counters
/// (always on: FleetMetrics' phase seconds are views over their per-run
/// deltas; is_wall_counter keeps them out of checkpoints); the robustness
/// counters cover the engine's own fault domains, while channel.* /
/// pricer.* are bumped by those components.
struct LoopCounters {
  obs::Counter& publish_ns =
      obs::Registry::global().counter("fleet.phase.publish_ns");
  obs::Counter& table_ns =
      obs::Registry::global().counter("fleet.phase.table_ns");
  obs::Counter& simulate_ns =
      obs::Registry::global().counter("fleet.phase.simulate_ns");
  obs::Counter& aggregate_ns =
      obs::Registry::global().counter("fleet.phase.aggregate_ns");
  obs::Counter& pricer_ns =
      obs::Registry::global().counter("fleet.phase.pricer_ns");
  obs::Counter& periods =
      obs::Registry::global().counter("fleet.periods_total");
  obs::Counter& stripes_lost =
      obs::Registry::global().counter("fleet.shard_stripes_lost_total");
  obs::Counter& measurement_gaps =
      obs::Registry::global().counter("fleet.measurement_gaps_total");
  obs::Counter& measurement_repairs =
      obs::Registry::global().counter("fleet.measurement_repairs_total");
  obs::Counter& mech_publishes =
      obs::Registry::global().counter("mech.publishes_total");
  obs::Counter& mech_settles =
      obs::Registry::global().counter("mech.settles_total");
};

LoopCounters& loop_counters() {
  static LoopCounters counters;
  return counters;
}

/// Charges each phase's wall time to its registry timer and closes the
/// phase's trace span. `lap` rolls the mark forward, so consecutive phases
/// tile the period. Pure observation: no simulated value depends on it.
class PhaseClock {
 public:
  void begin(std::string_view name) { span_.emplace(name); }
  void lap(obs::Counter& sink) {
    const auto now = std::chrono::steady_clock::now();
    sink.add_always(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
            .count()));
    mark_ = now;
    span_.reset();
  }

 private:
  std::chrono::steady_clock::time_point mark_ =
      std::chrono::steady_clock::now();
  std::optional<obs::Span> span_;
};

/// PricerHealth -> the incident engine's own health ladder (same rungs;
/// the engine sits below the pricing layers and keeps its own enum).
obs::incident::Health map_health(PricerHealth health) {
  switch (health) {
    case PricerHealth::kHealthy:
      return obs::incident::Health::kHealthy;
    case PricerHealth::kDegraded:
      return obs::incident::Health::kDegraded;
    case PricerHealth::kFallback:
      return obs::incident::Health::kFallback;
  }
  return obs::incident::Health::kHealthy;
}

/// Canonical slice count: an explicit override (a checkpoint's layout)
/// wins, then config.slices, else one slice per shard (the pre-slice
/// layout); always clamped to [1, users].
std::size_t effective_slices(const FleetDriverConfig& config,
                             std::size_t slice_override, std::uint64_t users) {
  std::size_t requested = slice_override;
  if (requested == 0) {
    requested = config.slices != 0 ? config.slices
                                   : std::max<std::size_t>(config.shards, 1);
  }
  return std::min<std::size_t>(std::max<std::size_t>(requested, 1),
                               static_cast<std::size_t>(users));
}

}  // namespace

DynamicModel baseline_fluid_model(const Population& population) {
  const std::size_t n = population.periods();
  DemandProfile arrivals = paper::make_profile(
      n == 48 ? paper::table7_mix_48() : paper::table8_mix_12(),
      paper::kStaticNormalizationReward, LagNormalization::kContinuous);
  const std::vector<double> demand48 = paper::table5_demand_48();
  const double mean48 =
      std::accumulate(demand48.begin(), demand48.end(), 0.0) /
      static_cast<double>(demand48.size());
  const std::vector<double>& expected = population.expected_demand_units();
  const double mean =
      std::accumulate(expected.begin(), expected.end(), 0.0) /
      static_cast<double>(expected.size());
  const double capacity =
      paper::kDynamicCapacityUnits * (mean / mean48);
  return DynamicModel(
      std::move(arrivals), capacity,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

PeriodEngine::PeriodEngine(FleetDriverConfig config,
                           std::size_t slice_override,
                           const MechanismFactory& make_mechanism)
    : config_(std::move(config)),
      population_(config_.population),
      injector_(config_.fault),
      channel_(config_.population.periods),
      fanout_(channel_, paper::kPatienceIndices.size()),
      guard_(population_.expected_demand_units(),
             config_.measurement_guard),
      aggregator_(
          effective_slices(config_, slice_override, population_.users()),
          population_.periods()),
      threads_(config_.threads == 0 ? default_thread_count()
                                    : config_.threads) {
  channel_.set_resilience(config_.resilience);
  if (injector_.enabled()) channel_.set_fault_injector(&injector_);

  if (config_.incident.enabled) {
    incident_ = std::make_unique<obs::incident::IncidentEngine>(
        config_.incident);
  }

  // Shards group whole slices into contiguous near-equal runs; the slice
  // layout (and with it every reduction order) depends on users and slice
  // count only, never on the shard grouping. Built on the pool so each
  // shard's arena pages are first-touched by a worker (NUMA locality with
  // TDP_PIN_THREADS; also parallelizes the per-user trait derivation).
  // Which worker builds which shard does not matter for determinism: every
  // per-user value is a pure function of (seed, user id).
  const std::size_t slices = aggregator_.stripes();
  const std::size_t shard_count =
      std::min<std::size_t>(std::max<std::size_t>(config_.shards, 1), slices);
  shards_.resize(shard_count);
  parallel_for(
      shard_count,
      [&](std::size_t s) {
        const std::size_t begin = slices * s / shard_count;
        const std::size_t end = slices * (s + 1) / shard_count;
        shards_[s] = std::make_unique<Shard>(population_, begin, end, slices);
      },
      threads_);

  // Any offline solve happens here (inside the mechanism's constructor).
  // When the fault plan can fire, the guard defaults to the armed preset; a
  // clean engine keeps the behavior-preserving default guard.
  const PricerGuardConfig guard = config_.pricer_guard.value_or(
      injector_.enabled() ? PricerGuardConfig::protective()
                          : PricerGuardConfig{});
  mechanism_ = make_mechanism
                   ? make_mechanism(population_, guard)
                   : mech::make_mechanism(config_.mechanism,
                                          baseline_fluid_model(population_),
                                          config_.offline_options, guard);
}

PeriodEngine::Observation PeriodEngine::observe(
    std::size_t period, std::uint64_t abs_period,
    const PeriodStats& merged) const {
  const double calibration = population_.unit_calibration();
  Observation obs;
  if (!injector_.enabled()) {
    // Fault-free fast path: the merged aggregate, bit-identical to the
    // pre-fault driver.
    obs.sample = merged.offered_work * calibration;
    return obs;
  }

  // Slices are measurement fault domains: a lost slice's stripe never
  // reaches telemetry. Surviving stripes fold in the same ascending slice
  // order as StripedAggregator::merged, so a no-loss period reproduces the
  // merged value bitwise — and fault draws depend on the slice id, never on
  // the shard grouping, so a chaos run survives a reshard bit-for-bit.
  PeriodStats survived;
  for (std::size_t s = 0; s < aggregator_.stripes(); ++s) {
    if (injector_.measurement_fault(s, abs_period) ==
        FaultInjector::MeasurementFault::kLost) {
      ++obs.lost_stripes;
      continue;
    }
    survived += aggregator_.stripe(s, period);
  }
  const double value = survived.offered_work * calibration;

  // The aggregate stream is its own fault domain on top of shard loss.
  const FaultInjector::MeasurementFault fault = injector_.measurement_fault(
      FaultInjector::kAggregateEntity, abs_period);
  if (fault == FaultInjector::MeasurementFault::kLost) {
    return obs;  // sample never arrives
  }
  obs.sample = injector_.corrupt(fault, value);
  return obs;
}

PeriodEngine::PeriodResult PeriodEngine::step_period(
    std::size_t day, std::size_t period,
    const std::vector<UniformLagWeightTable>* drift_tables) {
  TDP_OBS_SPAN("fleet.period");
  LoopCounters& lc = loop_counters();
  lc.periods.add(1);
  const std::size_t n = population_.periods();
  const std::size_t classes = population_.patience_classes();
  const double calibration = population_.unit_calibration();
  const std::uint64_t abs_period = static_cast<std::uint64_t>(day) * n + period;
  // Channel-side degradation counters are deterministic channel state (not
  // gated telemetry): their delta across this period's sync is the incident
  // engine's price-channel disturbance signal.
  SubscriberTelemetry chan_before;
  if (incident_ != nullptr) chan_before = fanout_.total_telemetry();

  PeriodResult out;
  PhaseClock clock;
  // Publish the current schedule and fan it out (one server fetch per group;
  // every user in a group reads the group cache).
  clock.begin("fleet.publish");
  const math::Vector& published = mechanism_->rewards();
  out.published_reward = published[period];
  channel_.publish(published);
  fanout_.sync(static_cast<std::size_t>(abs_period));
  std::vector<const math::Vector*> schedules(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    schedules[c] = &fanout_.schedule(c);
  }
  clock.lap(lc.publish_ns);

  clock.begin("fleet.table");
  const DeferralTable table(population_, schedules, period, drift_tables);
  clock.lap(lc.table_ns);

  clock.begin("fleet.simulate");
  parallel_for(
      shards_.size(),
      [&](std::size_t s) {
        TDP_OBS_SPAN("fleet.shard");
        shards_[s]->simulate_period(day, period, table, aggregator_);
      },
      threads_);
  clock.lap(lc.simulate_ns);

  clock.begin("fleet.aggregate");
  out.merged = aggregator_.merged(period);
  out.offered_units = out.merged.offered_work * calibration;
  out.realized_units = out.merged.realized_work * calibration;
  out.reward_paid_units = out.merged.reward_paid * calibration;
  clock.lap(lc.aggregate_ns);

  if (config_.online_pricing) {
    clock.begin("fleet.pricer");
    const Observation obs = observe(period, abs_period, out.merged);
    out.lost_stripes = obs.lost_stripes;
    if (obs.lost_stripes > 0) {
      lc.stripes_lost.add_always(obs.lost_stripes);
      obs::journal_record("fleet.stripe_lost",
                          static_cast<std::int64_t>(period), -1,
                          "shard measurement stripes lost",
                          {{"stripes", static_cast<double>(obs.lost_stripes)},
                           {"abs_period", static_cast<double>(abs_period)}});
    }
    if (!obs.sample.has_value()) {
      // Total telemetry blackout for the period: the mechanism is told
      // explicitly and freezes its schedule.
      out.measurement_gap = true;
      lc.measurement_gaps.add_always(1);
      obs::journal_record("fleet.measurement_gap",
                          static_cast<std::int64_t>(period), -1,
                          "telemetry blackout, schedule frozen",
                          {{"abs_period", static_cast<double>(abs_period)}});
      mechanism_->observe_missed(period);
    } else {
      const MeasurementGuard::Admitted admitted =
          guard_.admit(period, obs.sample);
      if (admitted.degraded) lc.measurement_repairs.add_always(1);
      out.measurement_repaired = admitted.degraded;
      const std::size_t budget = injector_.exhaust_solver(abs_period)
                                     ? injector_.plan().solver_starved_budget
                                     : mechanism_->solver_budget();
      mechanism_->observe_period(period, admitted.value,
                                 admitted.degraded || obs.lost_stripes > 0,
                                 budget);
    }
    clock.lap(lc.pricer_ns);
  }

  if (incident_ != nullptr) {
    const SubscriberTelemetry chan_now = fanout_.total_telemetry();
    obs::incident::PeriodSignals sig;
    sig.day = day;
    sig.period = static_cast<std::uint32_t>(period);
    sig.abs_period = abs_period;
    sig.offered_units = out.offered_units;
    sig.realized_units = out.realized_units;
    sig.measurement_gap = out.measurement_gap;
    sig.measurement_repaired = out.measurement_repaired;
    sig.lost_stripes = out.lost_stripes;
    sig.price_groups = fanout_.groups();
    sig.failed_attempts =
        chan_now.dropped_attempts - chan_before.dropped_attempts;
    sig.degraded_groups =
        (chan_now.stale_periods - chan_before.stale_periods) +
        (chan_now.fallback_periods - chan_before.fallback_periods) +
        (chan_now.skewed_periods - chan_before.skewed_periods);
    sig.solver_starved =
        config_.online_pricing && injector_.exhaust_solver(abs_period);
    sig.health = map_health(mechanism_->health());
    sig.storm_blackout = injector_.storm_active(
        FaultInjector::StormDomain::kBlackout, abs_period);
    sig.storm_channel = injector_.storm_active(
        FaultInjector::StormDomain::kChannel, abs_period);
    sig.storm_solver = injector_.storm_active(
        FaultInjector::StormDomain::kSolver, abs_period);
    incident_->observe_period(sig);
  }
  return out;
}

void PeriodEngine::publish_day(std::size_t day) {
  const math::Vector& published = mechanism_->rewards();
  double mean_reward = 0.0;
  double max_reward = 0.0;
  for (double reward : published) {
    mean_reward += reward;
    max_reward = std::max(max_reward, reward);
  }
  mean_reward /= static_cast<double>(published.size());
  loop_counters().mech_publishes.add(1);
  obs::journal_record("mech.publish", -1, -1, mechanism_->name(),
                      {{"day", static_cast<double>(day)},
                       {"mean_reward", mean_reward},
                       {"max_reward", max_reward}});
}

mech::SettleInfo PeriodEngine::settle_day(
    std::size_t day, const mech::DaySettlement& settlement) {
  const mech::SettleInfo settle = mechanism_->settle_day(settlement);
  loop_counters().mech_settles.add(1);
  obs::Registry::global()
      .counter(std::string("mech.") + mechanism_->name() + ".days_total")
      .add(1);
  obs::journal_record(
      "mech.settle", -1, -1, mechanism_->name(),
      {{"day", static_cast<double>(day)},
       {"budget_spent", settle.budget_spent},
       {"budget_pool", settle.budget_pool},
       {"schedule_changed", settle.schedule_changed ? 1.0 : 0.0}});
  if (incident_ != nullptr) {
    const std::size_t n = population_.periods();
    obs::incident::SettleSignals sig;
    sig.day = day;
    sig.abs_period = static_cast<std::uint64_t>(day) * n + (n - 1);
    sig.schedule_changed = settle.schedule_changed;
    sig.books_held = settle.books_held;
    sig.budget_spent = settle.budget_spent;
    sig.budget_pool = settle.budget_pool;
    incident_->observe_settle(sig);
  }
  return settle;
}

PeriodEngine::State PeriodEngine::export_state() const {
  State state;
  state.ring_head = static_cast<std::uint32_t>(shards_.front()->ring_head());
  state.ring_work.reserve(aggregator_.stripes());
  state.ring_reward.reserve(aggregator_.stripes());
  for (const auto& shard : shards_) {
    for (std::size_t s = shard->begin_slice(); s < shard->end_slice(); ++s) {
      std::vector<double> work;
      std::vector<double> reward;
      shard->export_slice_rings(s, work, reward);
      state.ring_work.push_back(std::move(work));
      state.ring_reward.push_back(std::move(reward));
    }
  }
  state.channel = channel_.export_state();
  state.fanout_schedules = fanout_.export_schedules();
  state.guard = guard_.export_state();
  return state;
}

void PeriodEngine::restore_state(const State& state) {
  TDP_REQUIRE(state.ring_work.size() == aggregator_.stripes() &&
                  state.ring_reward.size() == aggregator_.stripes(),
              "engine state does not match the slice layout");
  for (const auto& shard : shards_) {
    for (std::size_t s = shard->begin_slice(); s < shard->end_slice(); ++s) {
      shard->restore_slice_rings(s, state.ring_work[s], state.ring_reward[s]);
    }
    shard->set_ring_head(state.ring_head);
  }
  channel_.restore_state(state.channel);
  fanout_.restore_schedules(state.fanout_schedules);
  guard_.restore_state(state.guard);
}

}  // namespace tdp::fleet

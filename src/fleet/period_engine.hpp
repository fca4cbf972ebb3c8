// The TUBE control-loop period, shared by every driver.
//
//   ┌────────────┐ publish ┌──────────────┐ pull/group ┌─────────────┐
//   │ Mechanism  ├────────►│ PriceChannel ├───────────►│ PriceFanout │
//   └─────▲──────┘         └──────────────┘            └──────┬──────┘
//         │ guarded aggregate (demand units)                  │ schedules
//   ┌─────┴────────┐  ordered merge   ┌────────┐  parallel    ▼
//   │ StripedAggreg│◄─────────────────┤ Shards │◄──── DeferralTable
//   └──────────────┘                  └────────┘      (per class)
//
// step_period() runs one period: the mechanism's current schedule is
// published; the fan-out groups pull it once; a per-class deferral table is
// built from the pulled schedules; shards simulate their slices on the
// thread pool; stripes merge in fixed slice order; the telemetry path drops
// lost slices and corrupts the aggregate per the fault plan; the guard
// sanitizes what arrives; the mechanism observes it; the incident engine
// gets the period's signals. publish_day()/settle_day() bracket a day.
//
// The engine is resumable: it holds no clock of its own. The caller names
// the (day, period) to run, and export_state()/restore_state() move every
// piece of loop state a checkpoint needs (rings, channel, fan-out, guard).
// FleetDriver wraps it in a warmup loop and FleetMetrics; MultiDayDriver
// adds drift, estimation, re-anchoring and checkpoints (DESIGN.md §8).
//
// Determinism: population draws depend only on (seed, user, day, period);
// the slice layout is fixed by configuration, never derived from the thread
// count or the shard grouping; the merge order is fixed. Per-period
// aggregates — and therefore the mechanism's reward trajectory — are
// bit-identical for any thread count and any shard count. Faults hit the
// *observation* paths only (price pulls, usage telemetry); slices are the
// measurement fault domains, so fault draws are keyed by slice id. Phase
// timers and spans are pure observation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/fault.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/population.hpp"
#include "fleet/price_fanout.hpp"
#include "fleet/shard.hpp"
#include "mech/mechanism.hpp"
#include "obs/incident/incident.hpp"
#include "tube/measurement_guard.hpp"
#include "tube/price_channel.hpp"

namespace tdp::fleet {

struct FleetDriverConfig {
  PopulationConfig population;
  /// Shard count — the execution grouping for the per-period parallel
  /// sweep. Clamped to the slice count. Since aggregation is striped per
  /// canonical *slice* (see aggregator.hpp), any shard count yields
  /// bit-identical aggregates for a fixed slice layout.
  std::size_t shards = 64;
  /// Canonical slice count — part of the experiment definition (it fixes
  /// the floating-point reduction order and the measurement fault
  /// domains), deliberately NOT defaulted from the thread count. 0 = one
  /// slice per shard, which reproduces the pre-slice drivers bitwise.
  /// Clamped to the user count.
  std::size_t slices = 0;
  /// Worker threads for the per-period shard sweep; 0 = TDP_THREADS /
  /// hardware default. Any value yields bit-identical aggregates.
  std::size_t threads = 0;
  /// Days simulated before the measured day to warm the deferral rings.
  std::size_t warmup_days = 1;
  /// Feed measured aggregates into the pricing mechanism (off = the
  /// initial schedule is published unchanged all day).
  bool online_pricing = true;
  DynamicOptimizerOptions offline_options;
  /// Which pricing mechanism drives the fleet (DESIGN.md §13). The default
  /// TubeOnline run is bit-identical to the pre-arena driver; every
  /// mechanism sees the same fault plan, telemetry, and journal events.
  mech::MechanismConfig mechanism;

  /// Fault plan for the chaos run (default: nothing ever fires).
  FaultPlan fault;
  /// Staleness/retry policy for degraded price pulls.
  ChannelResilienceConfig resilience;
  /// Sanitization policy for the measured-aggregate feed.
  MeasurementGuardConfig measurement_guard;
  /// Pricer degradation policy; unset = PricerGuardConfig::protective()
  /// when the fault plan can fire, legacy no-op guard otherwise.
  std::optional<PricerGuardConfig> pricer_guard;
  /// Incident engine (off by default). A pure observer: the driver feeds
  /// it per-period/settle/day aggregates; enabling it never changes any
  /// simulated or priced value (bit-identity enforced by tests).
  obs::incident::IncidentConfig incident;
};

/// The fluid dynamic model whose expected arrivals match the population's:
/// the published mix on the continuous lag grid, at the paper's 48-period
/// load factor (capacity scales with mean demand so 12-period runs see the
/// same congestion regime). The default mechanism plans against it; the
/// long-horizon driver re-anchors away from it.
DynamicModel baseline_fluid_model(const Population& population);

class PeriodEngine {
 public:
  /// Builds the mechanism from the population and the effective pricer
  /// guard. Unset = config.mechanism planning against baseline_fluid_model.
  using MechanismFactory =
      std::function<std::unique_ptr<mech::PricingMechanism>(
          const Population&, const PricerGuardConfig&)>;

  /// `slice_override` pins the canonical slice layout (a checkpoint's; 0 =
  /// config.slices, else one slice per shard).
  explicit PeriodEngine(FleetDriverConfig config,
                        std::size_t slice_override = 0,
                        const MechanismFactory& make_mechanism = {});

  PeriodEngine(const PeriodEngine&) = delete;
  PeriodEngine& operator=(const PeriodEngine&) = delete;

  /// What one period produced, in demand units where the mechanism sees it.
  struct PeriodResult {
    PeriodStats merged;  ///< fleet totals, user work units
    double offered_units = 0.0;
    double realized_units = 0.0;
    double reward_paid_units = 0.0;
    /// The reward published for this period — the one users responded to.
    double published_reward = 0.0;
    bool measurement_gap = false;       ///< aggregate sample never arrived
    bool measurement_repaired = false;  ///< guard sanitized the sample
    std::size_t lost_stripes = 0;
  };

  /// Run period `period` of day `day`. `drift_tables` (one per patience
  /// class) replaces the population's lag weights; nullptr = none.
  PeriodResult step_period(
      std::size_t day, std::size_t period,
      const std::vector<UniformLagWeightTable>* drift_tables = nullptr);

  /// Journal the schedule the mechanism publishes for `day`.
  void publish_day(std::size_t day);
  /// Settle `day` with the mechanism; journals it and feeds the incident
  /// engine's settle signals.
  mech::SettleInfo settle_day(std::size_t day,
                              const mech::DaySettlement& settlement);

  /// Loop state a checkpoint carries, slices in ascending order.
  struct State {
    std::uint32_t ring_head = 0;
    std::vector<std::vector<double>> ring_work;
    std::vector<std::vector<double>> ring_reward;
    PriceChannelState channel;
    std::vector<math::Vector> fanout_schedules;
    MeasurementGuardState guard;
  };
  State export_state() const;
  /// Install exported state; slices regroup onto this engine's shards.
  void restore_state(const State& state);

  const FleetDriverConfig& config() const { return config_; }
  const Population& population() const { return population_; }
  const FaultInjector& injector() const { return injector_; }
  mech::PricingMechanism& mechanism() { return *mechanism_; }
  const mech::PricingMechanism& mechanism() const { return *mechanism_; }
  const PriceFanout& fanout() const { return fanout_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t slice_count() const { return aggregator_.stripes(); }
  std::size_t thread_count() const { return threads_; }
  /// The incident engine, or nullptr when not enabled.
  obs::incident::IncidentEngine* incident() { return incident_.get(); }
  const obs::incident::IncidentEngine* incident() const {
    return incident_.get();
  }

 private:
  /// What the telemetry path reports for one period (std::nullopt = the
  /// aggregate sample never arrived), plus how many stripes were lost.
  struct Observation {
    std::optional<double> sample;
    std::size_t lost_stripes = 0;
  };
  Observation observe(std::size_t period, std::uint64_t abs_period,
                      const PeriodStats& merged) const;

  FleetDriverConfig config_;
  Population population_;
  FaultInjector injector_;
  std::unique_ptr<mech::PricingMechanism> mechanism_;
  PriceChannel channel_;
  PriceFanout fanout_;
  MeasurementGuard guard_;
  /// Heap-held so construction can run on the pool workers (first-touch
  /// NUMA placement of each shard's arena; see Shard's ctor comment).
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedAggregator aggregator_;
  std::size_t threads_;
  std::unique_ptr<obs::incident::IncidentEngine> incident_;
};

}  // namespace tdp::fleet

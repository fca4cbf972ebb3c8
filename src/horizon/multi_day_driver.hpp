// Long-horizon operations: the multi-day control loop with online §IV
// re-estimation and versioned checkpoint/restore.
//
// A MultiDayDriver runs the period engine (fleet/period_engine.hpp — the
// same publish → fan-out → simulate → aggregate → observe pipeline
// FleetDriver runs, so a clean or faulted day is bitwise FleetDriver's) for
// many consecutive simulated days. On top of the engine it keeps the
// operational layer a deployment needs:
//
//   * Online estimation. Each finished day contributes one DayRecord of
//     fleet aggregates — published rewards, offered (TIP) demand and the
//     per-period usage change T_i = offered - realized — to a sliding
//     window. Once the window is deep enough, the §IV estimator re-fits a
//     tied patience index to the window (estimate_multistart, tied m = 1)
//     and, when re-anchoring is enabled, the pricer's fluid model is
//     rebuilt from the estimate and re-solved. The population may *drift*
//     (FaultPlan::drift_*): simulated users' patience indices move day by
//     day, and the estimator is how the control loop finds out.
//
//   * Health gating. The driver tracks the pricer's HEALTHY streak and
//     per-day FALLBACK periods; the latter is also the incident engine's
//     day signal here (FleetDriver reports channel fallback periods).
//
//   * Checkpoint/restore. checkpoint() serializes the complete control-loop
//     state at any period boundary (horizon/checkpoint.hpp): the engine's
//     exported state plus the driver's own. restore() rebuilds a driver
//     from those bytes such that the continued run is **bitwise identical**
//     to the uninterrupted one — under any shard count from 1 to the
//     checkpointed slice count and any thread count: the canonical slice
//     layout is recorded in the checkpoint and shards regroup whole slices
//     on restore.
//
// Determinism: every DayMetrics field is a pure function of the
// configuration (population seed, fault plan, estimation settings). The
// kill-and-restore property tests compare EXPECT_EQ on raw doubles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "fleet/period_engine.hpp"
#include "horizon/checkpoint.hpp"
#include "horizon/checkpoint_stream.hpp"
#include "horizon/horizon_metrics.hpp"

namespace tdp::horizon {

struct HorizonConfig {
  fleet::PopulationConfig population;
  /// Execution grouping (clamped to the slice count); never affects values.
  std::size_t shards = 8;
  /// Canonical slice layout; 0 = one slice per shard. Recorded in every
  /// checkpoint — restore() reuses the checkpointed layout, so a restoring
  /// config must leave this 0 or repeat the stored value.
  std::size_t slices = 0;
  std::size_t threads = 0;  ///< 0 = TDP_THREADS / hardware default

  /// Days simulated before the measured horizon to warm the deferral rings
  /// (their DayMetrics are kept but excluded from metrics().days).
  std::size_t warmup_days = 1;
  /// Measured days after warmup.
  std::size_t horizon_days = 7;

  bool online_pricing = true;
  DynamicOptimizerOptions offline_options;

  /// Pricing mechanism (DESIGN.md §13). The default TubeOnline config
  /// keeps every pre-arena horizon run bitwise unchanged.
  mech::MechanismConfig mechanism;

  /// Day-over-day user adaptation: after each settled day, every patience
  /// class's index is pulled toward a target set by the mean published
  /// reward (higher rewards -> lower beta -> more patient users). The
  /// EWMA'd scale composes multiplicatively with FaultPlan drift.
  bool adaptive_users = false;
  /// EWMA rate toward the target scale per day, in (0, 1].
  double adaptation_rate = 0.25;
  /// Sensitivity of the target scale to the mean reward.
  double adaptation_gain = 0.5;

  /// Fault plan. Observation faults behave exactly as in FleetDriver; the
  /// drift_* fields additionally move the simulated population's patience
  /// indices day by day (never arming guards — drift is reality changing,
  /// not telemetry lying).
  FaultPlan fault;
  ChannelResilienceConfig resilience;
  MeasurementGuardConfig measurement_guard;
  std::optional<PricerGuardConfig> pricer_guard;

  /// Incident engine (off by default). A pure observer fed the same
  /// aggregates the drivers already compute; enabling it never changes a
  /// simulated or priced value. Its state checkpoints (kSecIncident) so
  /// the alert stream survives kill/restore bitwise; the threshold fields
  /// are config-echoed and restore rejects mismatches.
  obs::incident::IncidentConfig incident;

  /// Run the §IV estimator over the sliding window after each measured day.
  bool estimation = true;
  /// Window depth in days (records beyond this age are dropped).
  std::size_t estimation_window = 5;
  /// Minimum records in the window before the first estimate.
  std::size_t estimation_min_days = 2;
  /// Multi-start count for estimate_multistart (start 0 is deterministic).
  std::size_t estimation_starts = 4;
  /// Rebuild + re-solve the pricer's fluid model from each estimate.
  bool reanchor = true;

  // -- storm-mode health gating (all defaults preserve legacy behavior) ---

  /// Freeze §IV re-estimation for any day during which the pricer FSM sat
  /// in FALLBACK: measurements from a fallback window describe the safety
  /// schedule's world, not the control loop's, and must never be fitted.
  bool estimation_health_gate = false;
  /// Hysteresis: re-anchor only after this many consecutive HEALTHY
  /// periods (0 = re-anchor as soon as an estimate lands, legacy).
  std::size_t reanchor_healthy_periods = 0;
  /// Guard adopt_model with a predicted-objective check: re-solve the
  /// candidate model and roll the re-fit back when its own objective says
  /// the new schedule is worse than the anchored one.
  bool reanchor_objective_guard = false;
  /// Relative slack for the objective guard: adopt while
  /// candidate_cost <= anchored_cost * (1 + tolerance).
  double reanchor_guard_tolerance = 0.0;

  // -- streaming checkpoints (execution knobs; never config-echoed) -------

  /// When non-empty, stream incremental v2 checkpoints to this path at
  /// period boundaries (atomic tmp-file/rename commits).
  std::string checkpoint_path;
  /// Commit every k-th period boundary in addition to day boundaries
  /// (0 = day boundaries only).
  std::size_t checkpoint_every_periods = 0;
};

class MultiDayDriver {
 public:
  explicit MultiDayDriver(HorizonConfig config);

  /// Rebuild a driver from checkpoint bytes. The configuration must agree
  /// with the checkpoint's determinism-relevant echo (population, fault
  /// plan, estimation settings...); shards/threads are free to differ —
  /// that is the point. `restore_counters` additionally forces the global
  /// obs registry's counters to the checkpointed values (process-restart
  /// fidelity; leave off when other components share the process).
  static std::unique_ptr<MultiDayDriver> restore(HorizonConfig config,
                                                 const CheckpointData& data,
                                                 bool restore_counters = false);
  static std::unique_ptr<MultiDayDriver> restore(
      HorizonConfig config, const std::vector<std::uint8_t>& bytes,
      bool restore_counters = false);

  const fleet::Population& population() const { return engine_.population(); }
  /// The active pricing mechanism (always present).
  const mech::PricingMechanism& mechanism() const {
    return engine_.mechanism();
  }
  /// Per-class adaptive patience scale (all ones unless adaptive_users).
  const std::vector<double>& adaptive_scale() const { return adapt_scale_; }
  std::size_t slice_count() const { return engine_.slice_count(); }
  std::size_t shard_count() const { return engine_.shard_count(); }
  std::size_t thread_count() const { return engine_.thread_count(); }

  /// Simulated clock: the *next* period to simulate.
  std::uint64_t day() const { return day_; }
  std::size_t period() const { return period_; }
  bool done() const {
    return day_ >= config_.warmup_days + config_.horizon_days;
  }

  /// Simulate exactly one period (precondition: !done()). Rolls the day
  /// over — including estimation and re-anchoring — when it was the day's
  /// last period.
  void step_period();

  /// Simulate to the end of the current day (at least one period).
  void run_day();

  /// Simulate to the end of the horizon and return the run summary.
  HorizonMetrics run();

  /// All finished days, warmup included (completed_days()[d].day == d).
  const std::vector<DayMetrics>& completed_days() const {
    return completed_days_;
  }

  /// Run summary so far (days = measured days only, warmup dropped).
  HorizonMetrics metrics() const;

  /// Serialize the complete control-loop state (period boundary).
  CheckpointData checkpoint() const;
  std::vector<std::uint8_t> checkpoint_bytes() const;

  /// The incident engine, or nullptr when not enabled.
  const obs::incident::IncidentEngine* incident_engine() const {
    return engine_.incident();
  }

 private:
  struct RestoreTag {};
  MultiDayDriver(RestoreTag, HorizonConfig config, const CheckpointData& data,
                 bool restore_counters);

  /// Shared by both constructors: validates config, builds the engine.
  /// `slice_override` pins the canonical layout (the checkpointed value on
  /// restore; 0 = derive from config); an unset factory plans against the
  /// baseline fluid model.
  MultiDayDriver(HorizonConfig config, std::size_t slice_override,
                 const fleet::PeriodEngine::MechanismFactory& make_mechanism);

  void start_day();
  void finish_day();
  void build_drift_tables();
  /// True when any storm-mode health gate is configured. Health tracking
  /// (healthy_streak_periods_, DayMetrics::fallback_periods) runs only when
  /// gated, so ungated runs keep the new fields at zero and their
  /// checkpoints stay byte-identical to format v1.
  bool health_gated() const {
    return config_.estimation_health_gate ||
           config_.reanchor_healthy_periods > 0 ||
           config_.reanchor_objective_guard;
  }
  /// Stream a checkpoint commit if the clock warrants one.
  void maybe_stream_commit();
  /// The checkpointed mechanism: rebuilt on the checkpointed model, then
  /// overwritten with the checkpointed state (restore path).
  std::unique_ptr<mech::PricingMechanism> restore_mechanism(
      const fleet::Population& population, const PricerGuardConfig& guard,
      const CheckpointData& data) const;

  HorizonConfig config_;
  fleet::PeriodEngine engine_;

  // Simulated clock (next period to simulate).
  std::uint64_t day_ = 0;
  std::size_t period_ = 0;
  bool day_started_ = false;

  /// Current day's drifted lag tables (empty = no drift, use the
  /// population's own). Rebuilt each day, never serialized.
  std::vector<UniformLagWeightTable> drift_tables_;

  /// Per-class adaptive patience scale (EWMA; all ones when adaptation is
  /// off). Composes multiplicatively with the injector's drift scale.
  std::vector<double> adapt_scale_;

  // Online estimation state.
  std::vector<DayRecord> window_;
  ModelSource model_source_ = ModelSource::kBaseline;
  double model_beta_ = 0.0;
  std::vector<double> model_volumes_;

  /// Consecutive HEALTHY periods (tracked only when health_gated()).
  std::uint64_t healthy_streak_periods_ = 0;

  /// Streaming checkpoint writer (present when checkpoint_path is set).
  std::unique_ptr<CheckpointStream> stream_;

  // Metrics.
  std::vector<DayMetrics> completed_days_;
  DayMetrics partial_;
  math::Vector prev_day_start_rewards_;
  bool has_prev_day_start_ = false;
  double wall_seconds_ = 0.0;
};

}  // namespace tdp::horizon

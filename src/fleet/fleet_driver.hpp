// The fleet day loop: the period engine (period_engine.hpp) run for
// warmup_days + 1 days, reporting the final day as FleetMetrics.
//
// The warmup day(s) fill the deferral rings so the measured day sees the
// cyclic steady state the fluid model assumes. Every day is published and
// settled with the mechanism (budgeted mechanisms adapt across warmup days
// too); only the measured day's aggregates enter the metrics.
//
// Fault model: `FleetDriverConfig::fault` injects failures into the
// *observation* paths only — price pulls and usage telemetry — never into
// the simulated users themselves, so a chaos run and a clean run describe
// the same physical fleet and differ only in what the control loop sees.
// When any fault can fire, the pricer's guard is armed (trust region +
// keep-reward on failure) unless an explicit guard config is given. A
// zero-fault plan leaves every path bit-identical to a driver with no plan.
// The incident engine's day signal counts channel fallback periods here;
// MultiDayDriver counts gated pricer-FALLBACK periods instead.
#pragma once

#include <cstddef>

#include "fleet/fleet_metrics.hpp"
#include "fleet/period_engine.hpp"

namespace tdp::fleet {

class FleetDriver {
 public:
  explicit FleetDriver(FleetDriverConfig config);

  const Population& population() const { return engine_.population(); }
  /// The §III-B pricer — TubeOnline runs only (TDP_REQUIRE otherwise);
  /// mechanism() is the kind-agnostic view.
  const OnlinePricer& pricer() const;
  const mech::PricingMechanism& mechanism() const {
    return engine_.mechanism();
  }
  std::size_t shard_count() const { return engine_.shard_count(); }
  std::size_t slice_count() const { return engine_.slice_count(); }
  std::size_t thread_count() const { return engine_.thread_count(); }

  /// Simulate warmup_days + 1 days; returns metrics for the final day.
  /// Single-shot: a driver instance runs one experiment.
  FleetMetrics run_day();

  /// The incident engine, or nullptr when not enabled.
  const obs::incident::IncidentEngine* incident_engine() const {
    return engine_.incident();
  }

 private:
  PeriodEngine engine_;
  bool ran_ = false;
};

}  // namespace tdp::fleet

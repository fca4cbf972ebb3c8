// Bitwise property tests for the fused kernel plan (core/kernel_plan).
//
// The contract under test is *identity*, not closeness: every double the
// fast paths produce must EXPECT_EQ the corresponding reference-path value.
// The reference DeferralKernel / model methods stay in the codebase exactly
// so they can serve as the oracle here.
#include "core/kernel_plan.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/deferral_kernel.hpp"
#include "core/paper_data.hpp"
#include "core/profit.hpp"
#include "core/static_model.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_model.hpp"
#include "dynamic/dynamic_optimizer.hpp"
#include "dynamic/online_pricer.hpp"
#include "math/golden_section.hpp"
#include "math/piecewise_linear.hpp"
#include "obs/registry.hpp"

namespace tdp {
namespace {

enum class WfFamily { kLinearPower, kNonlinearPower, kCallable };

const char* family_name(WfFamily family) {
  switch (family) {
    case WfFamily::kLinearPower: return "linear";
    case WfFamily::kNonlinearPower: return "nonlinear";
    case WfFamily::kCallable: return "callable";
  }
  return "?";
}

/// A demand profile exercising shared waiting functions (one per class,
/// reused across periods), empty periods, and mixed class counts.
DemandProfile make_test_profile(std::size_t n, WfFamily family,
                                LagNormalization normalization,
                                double max_reward) {
  std::vector<WaitingFunctionPtr> wfs;
  for (std::size_t s = 0; s < 4; ++s) {
    const double beta = 0.5 + static_cast<double>(s) * 1.1;
    switch (family) {
      case WfFamily::kLinearPower:
        wfs.push_back(std::make_shared<PowerLawWaitingFunction>(
            beta, n, max_reward, 1.0, normalization));
        break;
      case WfFamily::kNonlinearPower:
        wfs.push_back(std::make_shared<PowerLawWaitingFunction>(
            beta, n, max_reward, 0.6 + 0.1 * static_cast<double>(s),
            normalization));
        break;
      case WfFamily::kCallable: {
        // Bounded concave-in-p family the plan cannot specialize: forces
        // the generic per-term dispatch path.
        const double scale = 0.02 + 0.01 * static_cast<double>(s);
        wfs.push_back(std::make_shared<CallableWaitingFunction>(
            [scale, beta](double p, double t) {
              if (p <= 0.0) return 0.0;
              return scale * std::log1p(p) / std::pow(t + 1.0, beta);
            },
            [scale, beta](double p, double t) {
              if (p < 0.0) return 0.0;
              return scale / (1.0 + p) / std::pow(t + 1.0, beta);
            },
            "test-log"));
        break;
      }
    }
  }

  DemandProfile profile(n);
  Rng rng(17 + n);
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 2 && i % 5 == 4) continue;  // leave some periods empty
    const std::size_t classes = 1 + i % wfs.size();
    for (std::size_t c = 0; c < classes; ++c) {
      profile.add_class(i, SessionClass{wfs[c], 1.0 + rng.uniform(0.0, 4.0)});
    }
  }
  return profile;
}

math::Vector random_rewards(Rng& rng, std::size_t n, double cap) {
  math::Vector rewards(n);
  for (double& r : rewards) {
    const double u = rng.uniform();
    r = u < 0.15 ? 0.0 : rng.uniform(0.0, cap);  // exercise the p <= 0 gate
  }
  return rewards;
}

/// Reference flows straight off the DeferralKernel.
struct ReferenceFlows {
  math::Vector inflow, inflow_derivative, outflow;
  std::vector<double> pair, pair_derivative;
};

ReferenceFlows reference_flows(const DeferralKernel& kernel,
                               const math::Vector& rewards) {
  const std::size_t n = kernel.periods();
  ReferenceFlows ref;
  ref.inflow.resize(n);
  ref.inflow_derivative.resize(n);
  ref.outflow.resize(n);
  ref.pair.assign(n * n, 0.0);
  ref.pair_derivative.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ref.inflow[i] = kernel.inflow(i, rewards[i]);
    ref.inflow_derivative[i] = kernel.inflow_derivative(i, rewards[i]);
    ref.outflow[i] = kernel.outflow(i, rewards);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      ref.pair[i * n + j] = kernel.pair_volume(i, j, rewards[j]);
      ref.pair_derivative[i * n + j] =
          kernel.pair_volume_derivative(i, j, rewards[j]);
    }
  }
  return ref;
}

void expect_state_matches(const ReferenceFlows& ref, const KernelPlan& plan,
                          const FlowState& state, std::size_t n,
                          const char* context) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ref.inflow[i], state.inflow[i]) << context << " inflow " << i;
    EXPECT_EQ(ref.inflow_derivative[i], state.inflow_derivative[i])
        << context << " dinflow " << i;
    EXPECT_EQ(ref.outflow[i], state.outflow[i]) << context << " outflow "
                                                << i;
    if (plan.linear()) {
      // A linear plan keeps no pair matrices; its dV rows are the unit
      // table behind derivative_rows.
      const double* dV = plan.derivative_rows(state);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(ref.pair_derivative[i * n + j], dV[i * n + j])
            << context << " dpair " << i << "," << j;
      }
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(ref.pair[i * n + j], state.pair[i * n + j])
          << context << " pair " << i << "," << j;
      EXPECT_EQ(ref.pair_derivative[i * n + j],
                state.pair_derivative[i * n + j])
          << context << " dpair " << i << "," << j;
    }
  }
}

TEST(KernelPlan, BitwiseIdentityAcrossConventionsFamiliesAndSizes) {
  Rng rng(2024);
  // 7 and 13 leave remainder rows after the four-row outflow blocks.
  for (const std::size_t n : {std::size_t{2}, std::size_t{12},
                              std::size_t{48}, std::size_t{7},
                              std::size_t{13}}) {
    for (const WfFamily family : {WfFamily::kLinearPower,
                                  WfFamily::kNonlinearPower,
                                  WfFamily::kCallable}) {
      for (const LagConvention convention :
           {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
        const LagNormalization norm =
            convention == LagConvention::kPeriodStart
                ? LagNormalization::kDiscrete
                : LagNormalization::kContinuous;
        const DeferralKernel kernel(make_test_profile(n, family, norm, 1.5),
                                    convention);
        const auto plan = kernel.plan();
        ASSERT_NE(plan, nullptr);
        EXPECT_EQ(plan->periods(), n);
        EXPECT_EQ(plan->linear(), kernel.linear());

        FlowState state;
        for (int trial = 0; trial < 3; ++trial) {
          const math::Vector rewards = random_rewards(rng, n, 1.5);
          plan->evaluate(rewards, /*with_derivatives=*/true, state);
          const ReferenceFlows ref = reference_flows(kernel, rewards);
          expect_state_matches(
              ref, *plan, state, n,
              (std::string(family_name(family)) + " n=" +
               std::to_string(n))
                  .c_str());
        }
      }
    }
  }
}

TEST(KernelPlan, IncrementalCoordinateUpdateIsBitIdenticalToFullEvaluate) {
  Rng rng(99);
  for (const std::size_t n : {std::size_t{2}, std::size_t{12},
                              std::size_t{48}, std::size_t{7},
                              std::size_t{13}}) {
    for (const WfFamily family :
         {WfFamily::kLinearPower, WfFamily::kNonlinearPower}) {
      const DeferralKernel kernel(
          make_test_profile(n, family, LagNormalization::kContinuous, 1.5),
          LagConvention::kUniformArrival);
      const auto plan = kernel.plan();

      math::Vector rewards = random_rewards(rng, n, 1.5);
      FlowState incremental;
      plan->evaluate(rewards, /*with_derivatives=*/true, incremental);

      FlowState full;
      for (int step = 0; step < 40; ++step) {
        const std::size_t m = static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(n)) % n;
        const double u = rng.uniform();
        rewards[m] = u < 0.2 ? 0.0 : rng.uniform(0.0, 1.5);
        plan->update_coordinate(m, rewards[m], /*with_derivatives=*/true,
                                incremental);
        plan->evaluate(rewards, /*with_derivatives=*/true, full);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(full.inflow[i], incremental.inflow[i]);
          EXPECT_EQ(full.inflow_derivative[i],
                    incremental.inflow_derivative[i]);
          EXPECT_EQ(full.outflow[i], incremental.outflow[i]);
        }
        if (plan->linear()) {
          // No pair matrices to compare; the dV rows must still be the
          // reference derivatives.
          for (const FlowState* state : {&full, &incremental}) {
            const double* dV = plan->derivative_rows(*state);
            for (std::size_t i = 0; i < n; ++i) {
              for (std::size_t j = 0; j < n; ++j) {
                if (j == i) continue;
                EXPECT_EQ(kernel.pair_volume_derivative(i, j, rewards[j]),
                          dV[i * n + j]);
              }
            }
          }
          continue;
        }
        for (std::size_t k = 0; k < n * n; ++k) {
          EXPECT_EQ(full.pair[k], incremental.pair[k]);
          EXPECT_EQ(full.pair_derivative[k], incremental.pair_derivative[k]);
        }
      }
    }
  }
}

TEST(KernelPlan, UpdateCoordinateRejectsForeignState) {
  const DeferralKernel kernel(
      make_test_profile(6, WfFamily::kNonlinearPower,
                        LagNormalization::kDiscrete, 1.5),
      LagConvention::kPeriodStart);
  FlowState state;
  EXPECT_THROW(kernel.plan()->update_coordinate(0, 0.5, false, state),
               PreconditionError);
}

TEST(LagWeightPair, MatchesSeparateCallsBitwise) {
  const std::size_t n = 12;
  std::vector<WaitingFunctionPtr> wfs = {
      std::make_shared<PowerLawWaitingFunction>(1.5, n, 1.5, 1.0),
      std::make_shared<PowerLawWaitingFunction>(2.5, n, 1.5, 0.7,
                                                LagNormalization::kContinuous),
      std::make_shared<CallableWaitingFunction>(
          [](double p, double t) {
            return p <= 0.0 ? 0.0 : 0.05 * std::sqrt(p) / (t + 1.0);
          },
          [](double p, double t) {
            return p <= 0.0 ? 0.0 : 0.025 / std::sqrt(p) / (t + 1.0);
          })};
  for (const auto& wf : wfs) {
    for (const LagConvention convention :
         {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
      for (std::size_t lag = 1; lag < n; ++lag) {
        for (double p : {0.0, 0.05, 0.4, 1.2, 1.5}) {
          double value = -1.0;
          double derivative = -1.0;
          lag_weight_pair(*wf, p, lag, convention, value, derivative);
          EXPECT_EQ(value, lag_weight(*wf, p, lag, convention));
          EXPECT_EQ(derivative,
                    lag_weight_derivative(*wf, p, lag, convention));
        }
      }
    }
  }
}

TEST(UniformLagWeightTableTest, MatchesLagWeightBitwise) {
  const std::size_t n = 48;
  const std::vector<WaitingFunctionPtr> wfs = {
      std::make_shared<PowerLawWaitingFunction>(
          0.5, n, 1.5, 1.0, LagNormalization::kContinuous),
      std::make_shared<PowerLawWaitingFunction>(
          3.0, n, 1.5, 0.8, LagNormalization::kContinuous),
      std::make_shared<CallableWaitingFunction>([](double p, double t) {
        return p <= 0.0 ? 0.0 : 0.01 * p / std::sqrt(t + 1.0);
      })};
  Rng rng(7);
  for (const auto& wf : wfs) {
    const UniformLagWeightTable table(wf, n);
    for (std::size_t lag = 1; lag < n; ++lag) {
      for (int trial = 0; trial < 4; ++trial) {
        const double p = trial == 0 ? 0.0 : rng.uniform(0.0, 1.5);
        EXPECT_EQ(table.weight(p, lag),
                  lag_weight(*wf, p, lag, LagConvention::kUniformArrival))
            << wf->label() << " lag=" << lag << " p=" << p;
      }
    }
  }
}

TEST(StaticModelFused, CostAndGradientBitIdenticalToReference) {
  const StaticModel model(
      make_test_profile(12, WfFamily::kNonlinearPower,
                        LagNormalization::kDiscrete, 1.5),
      6.0, math::PiecewiseLinearCost::hinge(3.0, 0.0));
  Rng rng(11);
  FlowState state;
  const std::size_t n = model.periods();
  for (int trial = 0; trial < 8; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, 1.5);
    EXPECT_EQ(model.total_cost(rewards), model.total_cost(rewards, state));
    for (double mu : {1.0, 1e-3}) {
      EXPECT_EQ(model.smoothed_cost(rewards, mu),
                model.smoothed_cost(rewards, mu, state));
      math::Vector ref_grad(n, 0.0);
      math::Vector fused_grad(n, 0.0);
      model.smoothed_gradient(rewards, mu, ref_grad);
      const double fused_value =
          model.smoothed_cost_and_gradient(rewards, mu, fused_grad, state);
      EXPECT_EQ(model.smoothed_cost(rewards, mu), fused_value);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref_grad[i], fused_grad[i]) << "grad " << i;
      }
    }
    // usage / reward_cost overloads (the profit path).
    const math::Vector ref_usage = model.usage(rewards);
    FlowState usage_state;
    const math::Vector fused_usage = model.usage(rewards, usage_state);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref_usage[i], fused_usage[i]);
    }
    EXPECT_EQ(model.reward_cost(rewards), model.reward_cost(usage_state));
  }
}

TEST(StaticModelFused, CoordinateUpdateCostMatchesReference) {
  const StaticModel model(
      make_test_profile(12, WfFamily::kNonlinearPower,
                        LagNormalization::kDiscrete, 1.5),
      6.0, math::PiecewiseLinearCost::hinge(3.0, 0.0));
  Rng rng(5);
  const std::size_t n = model.periods();
  math::Vector rewards = random_rewards(rng, n, 1.5);
  FlowState state;
  model.prime_flow_state(rewards, /*with_derivatives=*/false, state);
  for (int step = 0; step < 30; ++step) {
    const std::size_t m = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(n)) % n;
    rewards[m] = rng.uniform(0.0, 1.5);
    EXPECT_EQ(model.total_cost(rewards),
              model.total_cost_with_coordinate(m, rewards[m], state));
  }
}

TEST(StaticOptimizerFused, SolutionBitIdenticalToReferencePath) {
  const StaticModel model = paper::static_model_12();
  StaticOptimizerOptions fused;
  fused.fused = true;
  StaticOptimizerOptions reference;
  reference.fused = false;
  const PricingSolution a = optimize_static_prices(model, fused);
  const PricingSolution b = optimize_static_prices(model, reference);
  ASSERT_EQ(a.rewards.size(), b.rewards.size());
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(StaticOptimizerFused, NonlinearSolveBitIdenticalToReferencePath) {
  const StaticModel model(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kDiscrete, /*gamma=*/0.7),
      paper::kStaticCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kStaticCostSlope, 0.0));
  StaticOptimizerOptions fused;
  fused.fused = true;
  fused.fista.max_iterations = 800;
  StaticOptimizerOptions reference = fused;
  reference.fused = false;
  const PricingSolution a = optimize_static_prices(model, fused);
  const PricingSolution b = optimize_static_prices(model, reference);
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(StaticOptimizerFused, ResolveCoordinateMatchesReferenceGoldenSection) {
  const StaticModel model = paper::static_model_12();
  const double cap = model.max_reward();
  Rng rng(3);
  math::Vector rewards = random_rewards(rng, model.periods(), cap);
  math::Vector reference_rewards = rewards;

  FlowState state;
  for (int step = 0; step < 12; ++step) {
    const std::size_t period = static_cast<std::size_t>(step) % 12;
    const math::GoldenSectionResult fast = resolve_static_coordinate(
        model, rewards, period, state, cap);
    // Reference: golden section over the full-recompute objective.
    const auto objective = [&](double candidate) {
      math::Vector probe = reference_rewards;
      probe[period] = candidate;
      return model.total_cost(probe);
    };
    const math::GoldenSectionResult ref =
        math::minimize_golden_section(objective, 0.0, cap, 1e-7, 200);
    reference_rewards[period] = ref.x;
    EXPECT_EQ(fast.x, ref.x) << "period " << period;
    EXPECT_EQ(fast.value, ref.value);
    EXPECT_EQ(fast.iterations, ref.iterations);
  }
}

DynamicModel nonlinear_dynamic_model() {
  return DynamicModel(
      paper::make_profile(paper::table8_mix_12(),
                          paper::kStaticNormalizationReward,
                          LagNormalization::kContinuous, /*gamma=*/0.7),
      paper::kDynamicCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0));
}

TEST(DeferralKernelState, CopiesShareOnePlanAndRebuildsAreBitwiseEqual) {
  for (WfFamily family : {WfFamily::kLinearPower, WfFamily::kNonlinearPower}) {
    const DemandProfile profile = make_test_profile(
        12, family, LagNormalization::kDiscrete, 1.5);
    for (LagConvention convention :
         {LagConvention::kPeriodStart, LagConvention::kUniformArrival}) {
      SCOPED_TRACE(family_name(family));
      SCOPED_TRACE(convention == LagConvention::kPeriodStart ? "start"
                                                             : "uniform");
      // A copy shares the lazily built artifacts: one plan, one bound.
      const DeferralKernel first(profile, convention);
      const DeferralKernel copy = first;
      EXPECT_EQ(first.plan().get(), copy.plan().get());
      EXPECT_EQ(first.max_safe_reward(), copy.max_safe_reward());

      // An independent construction rebuilds them, bit for bit.
      const DeferralKernel second(profile, convention);
      EXPECT_EQ(first.linear(), second.linear());
      EXPECT_EQ(first.unit_table(), second.unit_table());
      EXPECT_EQ(first.unit_inflow_table(), second.unit_inflow_table());
      EXPECT_EQ(first.max_safe_reward(), second.max_safe_reward());
      if (family == WfFamily::kLinearPower) {
        EXPECT_FALSE(first.unit_table().empty());
      }
    }
  }
  const DynamicModel model = nonlinear_dynamic_model();
  const DynamicModel copy = model;
  EXPECT_EQ(model.kernel().plan().get(), copy.kernel().plan().get());
  EXPECT_EQ(model.kernel().max_safe_reward(), copy.kernel().max_safe_reward());
}

TEST(DynamicModelFused, CostAndGradientBitIdenticalToReference) {
  const DynamicModel model = nonlinear_dynamic_model();
  Rng rng(21);
  FlowState state;
  const std::size_t n = model.periods();
  for (int trial = 0; trial < 8; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, 1.5);
    EXPECT_EQ(model.total_cost(rewards), model.total_cost(rewards, state));
    for (double mu : {1.0, 1e-4}) {
      EXPECT_EQ(model.smoothed_cost(rewards, mu),
                model.smoothed_cost(rewards, mu, state));
      math::Vector ref_grad(n, 0.0);
      math::Vector fused_grad(n, 0.0);
      model.smoothed_gradient(rewards, mu, ref_grad);
      const double fused_value =
          model.smoothed_cost_and_gradient(rewards, mu, fused_grad, state);
      EXPECT_EQ(model.smoothed_cost(rewards, mu), fused_value);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref_grad[i], fused_grad[i]) << "grad " << i;
      }
    }
  }
}

/// Shaped like the horizon driver's re-estimated model, the linear
/// (gamma = 1) form every production DynamicModel takes: 48 periods, one
/// class per period sharing a single power-law waiting function, warmup 6.
DynamicModel linear_estimated_model() {
  const std::size_t n = 48;
  const std::vector<double> volumes = paper::table5_demand_48();
  const WaitingFunctionPtr waiting = std::make_shared<PowerLawWaitingFunction>(
      1.8, n, paper::kStaticNormalizationReward, 1.0,
      LagNormalization::kContinuous);
  DemandProfile profile(n);
  for (std::size_t p = 0; p < n; ++p) {
    profile.add_class(p, SessionClass{waiting, volumes[p]});
  }
  return DynamicModel(
      std::move(profile), paper::kDynamicCapacityUnits,
      math::PiecewiseLinearCost::hinge(paper::kDynamicCostSlope, 0.0),
      /*warmup_days=*/6);
}

/// Periods, over every warmup day, whose smoothed backlog recursion lands
/// strictly inside the smoothing band (0 < pre < mu, so 0 < sigma < 1).
std::size_t smoothing_band_hits(const DynamicModel& model,
                                const math::Vector& rewards, double mu) {
  const math::Vector arrivals = model.evaluate(rewards).arrivals;
  std::size_t hits = 0;
  double backlog = 0.0;
  for (std::size_t day = 0; day < model.warmup_days(); ++day) {
    for (std::size_t i = 0; i < model.periods(); ++i) {
      const double pre = backlog + arrivals[i] - model.capacity()[i];
      if (pre > 0.0 && pre < mu) ++hits;
      backlog = pre <= 0.0 ? 0.0
                : pre >= mu ? pre - 0.5 * mu
                            : pre * pre / (2.0 * mu);
    }
  }
  return hits;
}

TEST(DynamicModelFused, LinearEstimatedModelGradientBitIdenticalToReference) {
  const DynamicModel model = linear_estimated_model();
  ASSERT_TRUE(model.kernel().linear());
  Rng rng(48);
  FlowState state;
  const std::size_t n = model.periods();
  const double cap = model.reward_cap();
  std::size_t band_hits = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, cap);
    for (double mu : {1.0, 1e-3}) {
      band_hits += smoothing_band_hits(model, rewards, mu);
      EXPECT_EQ(model.smoothed_cost(rewards, mu),
                model.smoothed_cost(rewards, mu, state));
      math::Vector ref_grad(n, 0.0);
      math::Vector fused_grad(n, 0.0);
      model.smoothed_gradient(rewards, mu, ref_grad);
      const double fused_value =
          model.smoothed_cost_and_gradient(rewards, mu, fused_grad, state);
      EXPECT_EQ(model.smoothed_cost(rewards, mu), fused_value);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(ref_grad[i], fused_grad[i]) << "grad " << i << " mu " << mu;
      }
    }
  }
  // The sweep's sigma must take fractional values, not only 0 and 1.
  EXPECT_GT(band_hits, 0u);
}

// ---- Truncated warm-up, compared bit for bit --------------------------------
// The fused recursions stop warming up once a day ends in the backlog it
// started with, and the gradient's sensitivity sweep restarts after the
// last sigma = 0 step before the last day. Those shortcuts may change the
// sign of a zero in the swept rows, so these cases compare bit patterns:
// EXPECT_EQ on doubles treats +0 and -0 as equal.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

DynamicModel with_warmup(const DynamicModel& model, std::size_t days) {
  return DynamicModel(model.arrivals(), model.capacity(),
                      model.backlog_cost(), days);
}

/// End-of-day backlogs of the reference (exact) recursion for days
/// 0..days-1, each read off evaluate() of the model warmed up over day + 1
/// days. An exact backlog of 0 forces the smoothed one to 0 as well (the
/// smoothed hinge never exceeds the exact one), so a zero here is a
/// sigma = 0 step of every smoothed recursion.
std::vector<double> exact_day_ends(const DynamicModel& model,
                                   const math::Vector& rewards,
                                   std::size_t days) {
  std::vector<double> ends;
  for (std::size_t d = 1; d <= days; ++d) {
    ends.push_back(with_warmup(model, d).evaluate(rewards).backlog.back());
  }
  return ends;
}

/// End-of-day-0 backlog of the smoothed recursion at `mu`.
double smoothed_day0_end(const DynamicModel& model,
                         const math::Vector& rewards, double mu) {
  const math::Vector arrivals = model.evaluate(rewards).arrivals;
  double backlog = 0.0;
  for (std::size_t i = 0; i < model.periods(); ++i) {
    const double pre = backlog + arrivals[i] - model.capacity()[i];
    backlog = pre <= 0.0 ? 0.0
              : pre >= mu ? pre - 0.5 * mu
                          : pre * pre / (2.0 * mu);
  }
  return backlog;
}

/// Every fused entry point against its reference, by bit pattern:
/// smoothed cost, cost and gradient, total cost, and a run of coordinate
/// updates against from-scratch total costs.
void expect_fused_bits_match_reference(const DynamicModel& model,
                                       const math::Vector& rewards,
                                       double mu, double cap, Rng& rng,
                                       const std::string& context) {
  const std::size_t n = model.periods();
  FlowState state;
  const double reference_value = model.smoothed_cost(rewards, mu);
  EXPECT_EQ(bits(reference_value),
            bits(model.smoothed_cost(rewards, mu, state)))
      << context;
  math::Vector ref_grad(n, 0.0);
  math::Vector fused_grad(n, 0.0);
  model.smoothed_gradient(rewards, mu, ref_grad);
  EXPECT_EQ(bits(reference_value),
            bits(model.smoothed_cost_and_gradient(rewards, mu, fused_grad,
                                                  state)))
      << context;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits(ref_grad[i]), bits(fused_grad[i]))
        << context << " grad " << i;
  }
  EXPECT_EQ(bits(model.total_cost(rewards)),
            bits(model.total_cost(rewards, state)))
      << context;
  math::Vector moved = rewards;
  for (int step = 0; step < 8; ++step) {
    const std::size_t m = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(n)) % n;
    moved[m] = step % 4 == 0 ? 0.0 : rng.uniform(0.0, cap);
    EXPECT_EQ(bits(model.total_cost(moved)),
              bits(model.total_cost_with_coordinate(m, moved[m], state)))
        << context << " coordinate " << m;
  }
}

/// warmup_days 1 has no day before the last, so neither shortcut can fire:
/// the whole sweep runs from db = 0. No valid model reaches that branch
/// with more warm-up days: if every step of day 0 had pre > 0, the
/// backlog would end the day at most sum(arrivals - capacity) < 0.
constexpr std::size_t kWarmupDays[] = {1, 2, 3, 6};

/// The horizon driver's linear model shape with evening capacity raised to
/// 40: congestion clears before midnight, so day 0 ends empty and every
/// later warm-up day is skipped.
DynamicModel clearing_model() {
  const DynamicModel base = linear_estimated_model();
  std::vector<double> capacity = base.capacity();
  for (std::size_t i = 30; i < capacity.size(); ++i) capacity[i] = 40.0;
  return DynamicModel(base.arrivals(), std::move(capacity),
                      base.backlog_cost(), base.warmup_days());
}

void expect_truncations_bitwise(const DynamicModel& base, bool clears,
                                std::uint64_t seed) {
  const DynamicOptimizerOptions options;
  Rng rng(seed);
  const std::size_t n = base.periods();
  const double cap = 0.5 * base.reward_cap();
  for (int trial = 0; trial < 4; ++trial) {
    const math::Vector rewards = random_rewards(rng, n, cap);
    const std::vector<double> ends = exact_day_ends(base, rewards, 3);
    if (clears) {
      // Day 0 ends in the empty queue it started with.
      ASSERT_EQ(bits(ends[0]), bits(0.0)) << "trial " << trial;
    } else {
      // Day 0 carries backlog past midnight; day 1 ends where day 0 did,
      // so the recursion is periodic only from day 1 on.
      ASSERT_GT(ends[0], 0.0) << "trial " << trial;
      ASSERT_EQ(bits(ends[1]), bits(ends[0])) << "trial " << trial;
      ASSERT_EQ(bits(ends[2]), bits(ends[0])) << "trial " << trial;
    }
    for (const double mu : {options.mu_initial, options.mu_final}) {
      if (!clears) {
        ASSERT_GT(smoothed_day0_end(base, rewards, mu), 0.0)
            << "trial " << trial << " mu " << mu;
      }
      for (const std::size_t days : kWarmupDays) {
        expect_fused_bits_match_reference(
            with_warmup(base, days), rewards, mu, cap, rng,
            "trial " + std::to_string(trial) + " mu " + std::to_string(mu) +
                " warmup " + std::to_string(days));
      }
    }
  }
}

TEST(DynamicModelFused, WarmupSkippedAfterEmptyDayZeroIsBitwise) {
  const DynamicModel model = clearing_model();
  ASSERT_TRUE(model.kernel().linear());
  expect_truncations_bitwise(model, /*clears=*/true, 61);
}

TEST(DynamicModelFused, PeriodicOnlyAfterDayOneIsBitwise) {
  const DynamicModel model = linear_estimated_model();
  ASSERT_TRUE(model.kernel().linear());
  expect_truncations_bitwise(model, /*clears=*/false, 62);
}

TEST(DynamicModelFused, NonlinearTruncationsAreBitwise) {
  const DynamicModel model = nonlinear_dynamic_model();
  ASSERT_FALSE(model.kernel().linear());
  expect_truncations_bitwise(model, /*clears=*/false, 63);
}

TEST(DynamicModelFused, CoordinateUpdateCostMatchesReference) {
  const DynamicModel model = nonlinear_dynamic_model();
  Rng rng(31);
  const std::size_t n = model.periods();
  math::Vector rewards = random_rewards(rng, n, 1.2);
  FlowState state;
  model.prime_flow_state(rewards, /*with_derivatives=*/false, state);
  for (int step = 0; step < 30; ++step) {
    const std::size_t m = static_cast<std::size_t>(
        rng.uniform() * static_cast<double>(n)) % n;
    rewards[m] = rng.uniform(0.0, 1.2);
    EXPECT_EQ(model.total_cost(rewards),
              model.total_cost_with_coordinate(m, rewards[m], state));
  }
}

TEST(DynamicOptimizerFused, SolutionBitIdenticalToReferencePath) {
  const DynamicModel model = nonlinear_dynamic_model();
  DynamicOptimizerOptions fused;
  fused.fused = true;
  fused.fista.max_iterations = 600;
  DynamicOptimizerOptions reference = fused;
  reference.fused = false;
  const DynamicPricingSolution a = optimize_dynamic_prices(model, fused);
  const DynamicPricingSolution b = optimize_dynamic_prices(model, reference);
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.evaluation.total_cost, b.evaluation.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(DynamicOptimizerFused, LinearEstimatedModelSolutionBitIdentical) {
  const DynamicModel model = linear_estimated_model();
  DynamicOptimizerOptions fused;
  fused.fused = true;
  fused.fista.max_iterations = 300;
  DynamicOptimizerOptions reference = fused;
  reference.fused = false;
  const DynamicPricingSolution a = optimize_dynamic_prices(model, fused);
  const DynamicPricingSolution b = optimize_dynamic_prices(model, reference);
  for (std::size_t i = 0; i < a.rewards.size(); ++i) {
    EXPECT_EQ(a.rewards[i], b.rewards[i]) << "reward " << i;
  }
  EXPECT_EQ(a.evaluation.total_cost, b.evaluation.total_cost);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(OnlinePricerIncremental, DayOfObservationsBitIdenticalToReference) {
  DynamicOptimizerOptions offline;
  offline.fista.max_iterations = 400;

  OnlinePricer incremental(nonlinear_dynamic_model(), offline,
                           PricerGuardConfig{}, /*incremental=*/true);
  OnlinePricer reference(nonlinear_dynamic_model(), offline,
                         PricerGuardConfig{}, /*incremental=*/false);
  EXPECT_TRUE(incremental.incremental());
  EXPECT_FALSE(reference.incremental());

  const std::size_t n = incremental.periods();
  Rng rng(404);
  for (std::size_t period = 0; period < n; ++period) {
    // Mix confirmed forecasts (scale-by-1.0 resyncs) with real deviations.
    const double forecast =
        incremental.model().arrivals().tip_demand(period);
    const double measured =
        period % 3 == 0 ? forecast : forecast * rng.uniform(0.8, 1.2);
    const auto a = incremental.observe_period(period, measured);
    const auto b = reference.observe_period(period, measured);
    EXPECT_EQ(a.new_reward, b.new_reward) << "period " << period;
    EXPECT_EQ(a.expected_cost, b.expected_cost) << "period " << period;
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(incremental.rewards()[i], reference.rewards()[i]);
  }
}

TEST(OnlinePricerIncremental, ConfirmedForecastKeepsModelAndPlan) {
  DynamicOptimizerOptions offline;
  offline.fista.max_iterations = 400;
  OnlinePricer pricer(nonlinear_dynamic_model(), offline);
  ASSERT_TRUE(obs::metrics_enabled())
      << "plan builds are counted only with TDP_OBS on";

  // Holding the plan keeps its address from being reused by a new one.
  const std::shared_ptr<const KernelPlan> plan = pricer.model().kernel().plan();
  obs::CounterDelta builds(
      obs::Registry::global().counter("kernel.plan_builds_total"));

  const std::size_t period = 5;
  const double forecast = pricer.model().arrivals().tip_demand(period);
  pricer.observe_period(period, forecast);
  EXPECT_EQ(pricer.model().kernel().plan().get(), plan.get());
  EXPECT_EQ(pricer.model().arrivals().tip_demand(period), forecast);
  EXPECT_EQ(builds.delta(), 0u);

  const double next = pricer.model().arrivals().tip_demand(period + 1);
  pricer.observe_period(period + 1, 1.1 * next);
  EXPECT_NE(pricer.model().kernel().plan().get(), plan.get());
  EXPECT_EQ(builds.delta(), 1u);
}

TEST(ProfitFused, BreakdownMatchesReferenceAccessors) {
  const StaticModel model = paper::static_model_12();
  Rng rng(8);
  const math::Vector rewards = random_rewards(rng, model.periods(), 1.5);
  const ProfitBreakdown out = evaluate_profit(model, rewards, 2.0, 0.5);
  const math::Vector x = model.usage(rewards);
  EXPECT_EQ(out.reward_cost, model.reward_cost(rewards));
  EXPECT_EQ(out.capacity_cost, model.capacity_cost_value(x));
}

}  // namespace
}  // namespace tdp

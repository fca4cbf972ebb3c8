#include "dynamic/dynamic_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace tdp {
namespace {

/// Smoothed hinge and its derivative (same blend as PiecewiseLinearCost).
double smooth_hinge(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return y - 0.5 * mu;
  return y * y / (2.0 * mu);
}

double smooth_hinge_derivative(double y, double mu) {
  if (y <= 0.0) return 0.0;
  if (y >= mu) return 1.0;
  return y / mu;
}

/// db[m] = sigma * (db[m] + -row[m]) for every m: one step of the forward
/// sensitivity sweep with the arrival Jacobian's off-diagonal form applied
/// to the whole row. Branch-free over non-aliasing arrays, so it vectorizes;
/// lanes are independent, so the bits match the scalar loop.
void sensitivity_row(double* __restrict db, const double* __restrict row,
                     double sigma, std::size_t n) {
  for (std::size_t m = 0; m < n; ++m) db[m] = sigma * (db[m] + -row[m]);
}

/// Runs the warm-up days of a day-cyclic backlog recursion,
/// backlog = step(backlog, day, i), from an empty queue and returns how
/// many days it ran; `backlog` is left at the last day's start. A day
/// that ends in the backlog it started with (same bits, so the same sign
/// of zero) repeats exactly on every later day, so the remaining warm-up
/// days are skipped: the last day starts from the same bits either way.
template <typename Step>
std::size_t warm_up(std::size_t warmup_days, std::size_t n, double& backlog,
                    Step step) {
  backlog = 0.0;
  std::size_t days = 0;
  while (days + 1 < warmup_days) {
    const double start = backlog;
    for (std::size_t i = 0; i < n; ++i) backlog = step(backlog, days, i);
    ++days;
    if (std::bit_cast<std::uint64_t>(backlog) ==
        std::bit_cast<std::uint64_t>(start)) {
      break;
    }
  }
  return days;
}

}  // namespace

DynamicModel::DynamicModel(DemandProfile arrivals,
                           std::vector<double> capacity,
                           math::PiecewiseLinearCost backlog_cost,
                           std::size_t warmup_days)
    : arrivals_(std::move(arrivals)),
      capacity_(std::move(capacity)),
      cost_(std::move(backlog_cost)),
      kernel_(arrivals_, LagConvention::kUniformArrival),
      warmup_days_(warmup_days) {
  TDP_REQUIRE(capacity_.size() == arrivals_.periods(),
              "capacity vector must cover every period");
  TDP_REQUIRE(warmup_days_ >= 1, "need at least one warmup day");
  double total_capacity = 0.0;
  for (double a : capacity_) {
    TDP_REQUIRE(a >= 0.0, "capacity must be nonnegative");
    total_capacity += a;
  }
  TDP_REQUIRE(arrivals_.total_demand() < total_capacity,
              "daily demand must not exceed daily capacity or the backlog "
              "diverges and no steady state exists");
  tip_ = arrivals_.tip_demand_vector();
}

DynamicModel::DynamicModel(DemandProfile arrivals, double capacity,
                           math::PiecewiseLinearCost backlog_cost,
                           std::size_t warmup_days)
    : arrivals_(std::move(arrivals)),
      capacity_(arrivals_.periods(), capacity),
      cost_(std::move(backlog_cost)),
      kernel_(arrivals_, LagConvention::kUniformArrival),
      warmup_days_(warmup_days) {
  TDP_REQUIRE(capacity >= 0.0, "capacity must be nonnegative");
  TDP_REQUIRE(warmup_days_ >= 1, "need at least one warmup day");
  TDP_REQUIRE(arrivals_.total_demand() <
                  capacity * static_cast<double>(periods()),
              "daily demand must not exceed daily capacity or the backlog "
              "diverges and no steady state exists");
  tip_ = arrivals_.tip_demand_vector();
}

void DynamicModel::arrivals_after_deferral(const math::Vector& rewards,
                                           math::Vector& out) const {
  const std::size_t n = periods();
  out.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = arrivals_.tip_demand(i) - kernel_.outflow(i, rewards) +
             kernel_.inflow(i, rewards[i]);
  }
}

DynamicModel::Evaluation DynamicModel::evaluate(
    const math::Vector& rewards) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");

  Evaluation ev;
  arrivals_after_deferral(rewards, ev.arrivals);
  ev.backlog.assign(n, 0.0);
  ev.served.assign(n, 0.0);

  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      const double load = backlog + ev.arrivals[i];
      const double served = std::min(load, capacity_[i]);
      backlog = load - served;
      if (last) {
        ev.backlog[i] = backlog;
        ev.served[i] = served;
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    ev.reward_cost += rewards[i] * kernel_.inflow(i, rewards[i]);
    ev.backlog_cost += cost_.value(ev.backlog[i]);
  }
  ev.total_cost = ev.reward_cost + ev.backlog_cost;
  return ev;
}

double DynamicModel::total_cost(const math::Vector& rewards) const {
  return evaluate(rewards).total_cost;
}

double DynamicModel::tip_cost() const {
  return total_cost(math::Vector(periods(), 0.0));
}

double DynamicModel::smoothed_cost(const math::Vector& rewards,
                                   double mu) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");

  math::Vector arr;
  arrivals_after_deferral(rewards, arr);

  double cost = 0.0;
  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      backlog = smooth_hinge(backlog + arr[i] - capacity_[i], mu);
      if (last) cost += cost_.smoothed_value(backlog, mu);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    cost += rewards[i] * kernel_.inflow(i, rewards[i]);
  }
  return cost;
}

void DynamicModel::smoothed_gradient(const math::Vector& rewards, double mu,
                                     math::Vector& grad) const {
  const std::size_t n = periods();
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");

  math::Vector arr;
  arrivals_after_deferral(rewards, arr);

  // Jacobian of post-deferral arrivals: darr[i][m] = d a_i / d p_m.
  std::vector<math::Vector> darr(n, math::Vector(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t m = 0; m < n; ++m) {
      if (m == i) {
        darr[i][m] = kernel_.inflow_derivative(i, rewards[i]);
      } else {
        darr[i][m] = -kernel_.pair_volume_derivative(i, m, rewards[m]);
      }
    }
  }

  // Forward accumulation of backlog sensitivities through the warmup chain.
  std::fill(grad.begin(), grad.end(), 0.0);
  math::Vector dbacklog(n, 0.0);
  double backlog = 0.0;
  for (std::size_t day = 0; day < warmup_days_; ++day) {
    const bool last = (day + 1 == warmup_days_);
    for (std::size_t i = 0; i < n; ++i) {
      const double pre = backlog + arr[i] - capacity_[i];
      const double sigma = smooth_hinge_derivative(pre, mu);
      backlog = smooth_hinge(pre, mu);
      for (std::size_t m = 0; m < n; ++m) {
        dbacklog[m] = sigma * (dbacklog[m] + darr[i][m]);
      }
      if (last) {
        const double fprime = cost_.smoothed_derivative(backlog, mu);
        for (std::size_t m = 0; m < n; ++m) {
          grad[m] += fprime * dbacklog[m];
        }
      }
    }
  }

  // Reward-cost gradient: d/dp_m [ p_m * inflow(m, p_m) ].
  for (std::size_t m = 0; m < n; ++m) {
    grad[m] += kernel_.inflow(m, rewards[m]) +
               rewards[m] * kernel_.inflow_derivative(m, rewards[m]);
  }
}

// ---- Fused fast path -------------------------------------------------------
// Each assembly reproduces the reference method's floating-point operations
// in order, reading the deferral flows from the FlowState instead of
// re-walking the kernel (tests/test_kernel_plan.cpp checks bitwise
// identity).

void DynamicModel::prime_flow_state(const math::Vector& rewards,
                                    bool with_derivatives,
                                    FlowState& state) const {
  kernel_.plan()->evaluate(rewards, with_derivatives, state);
}

double DynamicModel::assemble_total_cost(FlowState& state) const {
  const std::size_t n = periods();
  math::Vector& arr = state.aux_a;
  math::Vector& end_backlog = state.aux_b;
  arr.resize(n);
  end_backlog.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  const auto step = [&](double b, std::size_t, std::size_t i) {
    const double load = b + arr[i];
    const double served = std::min(load, capacity_[i]);
    return load - served;
  };
  double backlog = 0.0;
  warm_up(warmup_days_, n, backlog, step);
  for (std::size_t i = 0; i < n; ++i) {
    backlog = step(backlog, 0, i);
    end_backlog[i] = backlog;
  }

  double reward_total = 0.0;
  double backlog_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reward_total += state.rewards[i] * state.inflow[i];
    backlog_total += cost_.value(end_backlog[i]);
  }
  return reward_total + backlog_total;
}

double DynamicModel::total_cost(const math::Vector& rewards,
                                FlowState& state) const {
  prime_flow_state(rewards, /*with_derivatives=*/false, state);
  return assemble_total_cost(state);
}

double DynamicModel::total_cost_with_coordinate(std::size_t period,
                                                double reward,
                                                FlowState& state) const {
  kernel_.plan()->update_coordinate(period, reward, /*with_derivatives=*/false,
                                    state);
  return assemble_total_cost(state);
}

double DynamicModel::smoothed_cost(const math::Vector& rewards, double mu,
                                   FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  prime_flow_state(rewards, /*with_derivatives=*/false, state);

  math::Vector& arr = state.aux_a;
  arr.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  const auto step = [&](double b, std::size_t, std::size_t i) {
    return smooth_hinge(b + arr[i] - capacity_[i], mu);
  };
  double backlog = 0.0;
  warm_up(warmup_days_, n, backlog, step);
  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    backlog = step(backlog, 0, i);
    cost += cost_.smoothed_value(backlog, mu);
  }
  for (std::size_t i = 0; i < n; ++i) {
    cost += rewards[i] * state.inflow[i];
  }
  return cost;
}

double DynamicModel::smoothed_cost_and_gradient(const math::Vector& rewards,
                                                double mu, math::Vector& grad,
                                                FlowState& state) const {
  const std::size_t n = periods();
  TDP_REQUIRE(grad.size() == n, "gradient vector size mismatch");
  TDP_REQUIRE(mu > 0.0, "smoothing parameter must be positive");
  prime_flow_state(rewards, /*with_derivatives=*/true, state);

  math::Vector& arr = state.aux_a;
  math::Vector& dbacklog = state.aux_b;
  math::Vector& slopes = state.aux_c;
  const std::size_t days = warmup_days_;
  arr.resize(n);
  dbacklog.assign(n, 0.0);
  slopes.resize((days + 1) * n);
  for (std::size_t i = 0; i < n; ++i) {
    arr[i] = tip_[i] - state.outflow[i] + state.inflow[i];
  }

  // Scalar pass: the backlog recursion, recording each step's hinge slope
  // sigma. Row d of `slopes` is warm-up day d for d < run; the warm-up
  // days the periodic jump skips repeat row run - 1. Row run is the last
  // day, and the row after it holds the last day's f'(backlog).
  const auto step = [&](double b, std::size_t day, std::size_t i) {
    const double pre = b + arr[i] - capacity_[i];
    slopes[day * n + i] = smooth_hinge_derivative(pre, mu);
    return smooth_hinge(pre, mu);
  };
  double backlog = 0.0;
  const std::size_t run = warm_up(days, n, backlog, step);
  const double* last_sigma = &slopes[run * n];
  double* fprime = &slopes[(run + 1) * n];
  double cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    backlog = step(backlog, run, i);
    cost += cost_.smoothed_value(backlog, mu);
    fprime[i] = cost_.smoothed_derivative(backlog, mu);
  }
  const auto sigma_row = [&](std::size_t day) {
    return day + 1 == days ? last_sigma
                           : &slopes[std::min(day, run - 1) * n];
  };

  // Forward sensitivity sweep. A sigma = 0 step multiplies every db lane
  // by 0 and leaves +-0 whatever came before, so the sweep starts from
  // db = +0 right after the last such step before the last day, and any
  // later sigma = 0 step just clears db. Only the sign of a zero lane can
  // differ from the full sweep, and that never reaches grad: grad starts
  // at +0.0 and only adds, and x + -0 == x, +0 + -0 == +0, so the f' term
  // of a step that leaves db zero is skipped too. Every warm-up day after
  // day 0 has such a step when daily demand is below capacity, so at most
  // 2n rows are swept, and only the congested ones do any work.
  std::size_t begin = 0;  // first swept step, as day * n + i
  for (std::size_t k = (days - 1) * n; k > 0; --k) {
    if (sigma_row((k - 1) / n)[(k - 1) % n] == 0.0) {
      begin = k;
      break;
    }
  }

  // The arrival Jacobian rows are read straight off the plan's dV rows
  // (darr[i][m] = inflow'(i) if m == i else -dV[i][m]). The diagonal is
  // computed from the old dbacklog[i] before the branch-free row update
  // and stored over that lane afterwards, so every element sees the
  // reference's operations in the reference order.
  const double* dV = kernel_.plan()->derivative_rows(state);
  double* db = dbacklog.data();
  bool db_zero = true;  // every db lane is +-0
  std::fill(grad.begin(), grad.end(), 0.0);
  for (std::size_t day = begin / n; day < days; ++day) {
    const bool last = (day + 1 == days);
    const double* sigma = sigma_row(day);
    for (std::size_t i = day == begin / n ? begin % n : 0; i < n; ++i) {
      if (sigma[i] == 0.0) {
        if (!db_zero) std::fill(db, db + n, 0.0);
        db_zero = true;
        continue;
      }
      db_zero = false;
      const double diagonal = sigma[i] * (db[i] + state.inflow_derivative[i]);
      sensitivity_row(db, dV + i * n, sigma[i], n);
      db[i] = diagonal;
      if (last) {
        for (std::size_t m = 0; m < n; ++m) {
          grad[m] += fprime[i] * db[m];
        }
      }
    }
  }
  for (std::size_t m = 0; m < n; ++m) {
    cost += rewards[m] * state.inflow[m];
    grad[m] += state.inflow[m] + rewards[m] * state.inflow_derivative[m];
  }
  return cost;
}

double DynamicModel::reward_cap() const {
  // Longest run (cyclically) of periods whose TIP load keeps the link
  // saturated, under the no-deferral backlog recursion.
  const std::size_t n = periods();
  math::Vector arr(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) arr[i] = arrivals_.tip_demand(i);

  double backlog = 0.0;
  std::size_t run = 0;
  std::size_t longest = 1;
  // Two warmed-up days to capture cyclic runs.
  for (std::size_t pass = 0; pass < 2 + warmup_days_; ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      backlog = std::max(backlog + arr[i] - capacity_[i], 0.0);
      if (backlog > 0.0) {
        ++run;
        longest = std::max(longest, run);
      } else {
        run = 0;
      }
    }
  }
  longest = std::min(longest, n);
  const double run_cap = static_cast<double>(longest) * cost_.max_slope();
  // Never exceed the probabilistic validity bound: beyond it some period
  // would "defer out" more traffic than it has.
  return std::min(run_cap, kernel_.max_safe_reward());
}

}  // namespace tdp

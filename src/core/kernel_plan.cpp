#include "core/kernel_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "common/cyclic.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "math/quadrature.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace tdp {
namespace {

constexpr std::size_t kGaussN = math::kGauss8Nodes.size();

/// The Gauss abscissa integrate_gauss(f, lag-1, lag, 1) evaluates at node k,
/// reproduced operation for operation (lo = a + h*0, mid = lo + h/2).
double gauss_abscissa(std::size_t lag, std::size_t k, double& half_out) {
  const double t = static_cast<double>(lag);
  const double a = t - 1.0;
  const double h = (t - a) / 1.0;
  const double lo = a + h * 0.0;
  const double mid = lo + 0.5 * h;
  half_out = 0.5 * h;
  return mid + half_out * math::kGauss8Nodes[k];
}

/// out[from] += col[from] * reward for every row: one `to` column of the
/// linear outflow sums. Lanes are independent rows over non-aliasing
/// arrays, so the loop vectorizes with each row's bits unchanged.
void add_unit_column(double* __restrict out, const double* __restrict col,
                     double reward, std::size_t n) {
  for (std::size_t from = 0; from < n; ++from) out[from] += col[from] * reward;
}

}  // namespace

KernelPlan::KernelPlan(const DeferralKernel& kernel)
    : periods_(kernel.periods()),
      convention_(kernel.convention()),
      linear_(kernel.linear()) {
  TDP_OBS_SPAN("kernel.plan_build");
  {
    static obs::Counter& builds =
        obs::Registry::global().counter("kernel.plan_builds_total");
    builds.add(1);
  }
  static std::atomic<std::uint64_t> next_serial{1};
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = periods_;
  TDP_REQUIRE(n >= 2, "need at least two periods");

  // Flatten the class lists, registering each distinct waiting function
  // once. Term order within a period matches class order — the reference
  // path's accumulation order.
  std::unordered_map<const WaitingFunction*, std::uint32_t> ids;
  period_begin_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    period_begin_[i] = term_wf_.size();
    for (const SessionClass& sc : kernel.classes(i)) {
      const WaitingFunction* raw = sc.waiting.get();
      auto [it, inserted] = ids.emplace(
          raw, static_cast<std::uint32_t>(functions_.size()));
      if (inserted) {
        WfEntry entry;
        entry.wf = sc.waiting;
        if (const auto* power =
                dynamic_cast<const PowerLawWaitingFunction*>(raw)) {
          entry.kind = convention_ == LagConvention::kPeriodStart
                           ? WfKind::kPowerStart
                           : WfKind::kPowerUniform;
          entry.norm = power->normalization();
          entry.gamma = power->gamma();
          entry.norm_gamma = power->normalization() * power->gamma();
        }
        functions_.push_back(std::move(entry));
      }
      term_wf_.push_back(it->second);
      term_volume_.push_back(sc.volume);
    }
  }
  period_begin_[n] = term_wf_.size();

  lag_.assign(n * n, 0);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (to == from) continue;
      lag_[from * n + to] = static_cast<std::uint32_t>(cyclic_lag(from, to, n));
    }
  }

  if (linear_) {
    // Linear kernels evaluate through the unit-reward tables; no per-lag
    // power tables are needed. unit_ doubles as the dV rows
    // (derivative_rows); its transpose feeds the column-wise outflow sums.
    unit_ = kernel.unit_table();
    unit_inflow_ = kernel.unit_inflow_table();
    unit_t_.assign(n * n, 0.0);
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        unit_t_[to * n + from] = unit_[from * n + to];
      }
    }
    return;
  }

  // Per-(function, lag) weight tables for the power-law family. The same
  // pow(..., -beta) values serve both the value and the derivative — the
  // power law shares its lag factor between them.
  const std::size_t nwf = functions_.size();
  if (convention_ == LagConvention::kPeriodStart) {
    lag_pow_.assign(nwf * n, 0.0);
  } else {
    node_pow_.assign(nwf * n * kGaussN, 0.0);
    lag_half_.assign(n, 0.0);
  }
  for (std::size_t w = 0; w < nwf; ++w) {
    if (functions_[w].kind == WfKind::kGeneric) continue;
    const auto* power =
        dynamic_cast<const PowerLawWaitingFunction*>(functions_[w].wf.get());
    const double beta = power->beta();
    for (std::size_t lag = 1; lag < n; ++lag) {
      if (convention_ == LagConvention::kPeriodStart) {
        const double t = static_cast<double>(lag);
        lag_pow_[w * n + lag] = std::pow(t + 1.0, -beta);
      } else {
        for (std::size_t k = 0; k < kGaussN; ++k) {
          double half = 0.0;
          const double u = gauss_abscissa(lag, k, half);
          node_pow_[(w * n + lag) * kGaussN + k] = std::pow(u + 1.0, -beta);
          lag_half_[lag] = half;
        }
      }
    }
  }
}

void KernelPlan::fill_column(std::size_t to, double reward,
                             bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;

  // Reward factors shared by every slot in this column: one pow per
  // distinct power-law function instead of one per (class, pair).
  const bool positive = reward > 0.0;
  double* factor = s.wf_factor.data();
  double* dfactor = s.wf_factor_derivative.data();
  for (std::size_t w = 0; w < functions_.size(); ++w) {
    const WfEntry& e = functions_[w];
    if (e.kind == WfKind::kGeneric) continue;
    if (positive) factor[w] = e.norm * std::pow(reward, e.gamma);
    if (with_derivatives) {
      double r = reward < 0.0 ? 0.0 : reward;
      if (e.gamma == 1.0) {
        dfactor[w] = e.norm;
      } else {
        if (r == 0.0) r = 1e-12;
        dfactor[w] = e.norm_gamma * std::pow(r, e.gamma - 1.0);
      }
    }
  }

  for (std::size_t from = 0; from < n; ++from) {
    if (from == to) continue;
    fill_cell(from, to, lag_[from * n + to], reward, positive,
              with_derivatives, s);
  }
}

void KernelPlan::fill_cell(std::size_t from, std::size_t to, std::size_t lag,
                           double reward, bool positive,
                           bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  double* V = s.pair.data();
  double* dV = s.pair_derivative.data();
  const double* factor = s.wf_factor.data();
  const double* dfactor = s.wf_factor_derivative.data();
  double vol = 0.0;
  double dvol = 0.0;
  const std::size_t end = period_begin_[from + 1];
  for (std::size_t t = period_begin_[from]; t < end; ++t) {
    const std::uint32_t w = term_wf_[t];
    const double v = term_volume_[t];
    switch (functions_[w].kind) {
      case WfKind::kPowerStart: {
        const double lp = lag_pow_[w * n + lag];
        if (positive) vol += v * (factor[w] * lp);
        if (with_derivatives) dvol += v * (dfactor[w] * lp);
        break;
      }
      case WfKind::kPowerUniform: {
        const double* np = &node_pow_[(w * n + lag) * kGaussN];
        const double half = lag_half_[lag];
        if (positive) {
          double acc = 0.0;
          for (std::size_t k = 0; k < kGaussN; ++k) {
            acc += math::kGauss8Weights[k] * (factor[w] * np[k]);
          }
          vol += v * (acc * half);
        }
        if (with_derivatives) {
          double acc = 0.0;
          for (std::size_t k = 0; k < kGaussN; ++k) {
            acc += math::kGauss8Weights[k] * (dfactor[w] * np[k]);
          }
          dvol += v * (acc * half);
        }
        break;
      }
      case WfKind::kGeneric: {
        const WaitingFunction& wf = *functions_[w].wf;
        if (positive && with_derivatives) {
          double wv = 0.0;
          double wd = 0.0;
          lag_weight_pair(wf, reward, lag, convention_, wv, wd);
          vol += v * wv;
          dvol += v * wd;
        } else if (positive) {
          vol += v * lag_weight(wf, reward, lag, convention_);
        } else if (with_derivatives) {
          dvol += v * lag_weight_derivative(wf, reward, lag, convention_);
        }
        break;
      }
    }
  }
  // pair_volume returns 0 outright for nonpositive rewards; the
  // derivative has no such early exit.
  V[from * n + to] = positive ? vol : 0.0;
  if (with_derivatives) dV[from * n + to] = dvol;
}

void KernelPlan::reduce_inflow(std::size_t into, bool with_derivatives,
                               FlowState& s) const {
  const std::size_t n = periods_;
  const double reward = s.rewards[into];
  if (linear_) {
    s.inflow[into] = reward <= 0.0 ? 0.0 : unit_inflow_[into] * reward;
    if (with_derivatives) s.inflow_derivative[into] = unit_inflow_[into];
    return;
  }
  double total = 0.0;
  for (std::size_t from = 0; from < n; ++from) {
    if (from == into) continue;
    total += s.pair[from * n + into];
  }
  s.inflow[into] = reward <= 0.0 ? 0.0 : total;
  if (with_derivatives) {
    double dtotal = 0.0;
    for (std::size_t from = 0; from < n; ++from) {
      if (from == into) continue;
      dtotal += s.pair_derivative[from * n + into];
    }
    s.inflow_derivative[into] = dtotal;
  }
}

void KernelPlan::reduce_outflow(std::size_t from, FlowState& s) const {
  const std::size_t n = periods_;
  double total = 0.0;
  for (std::size_t to = 0; to < n; ++to) {
    if (to == from) continue;
    total += s.pair[from * n + to];
  }
  s.outflow[from] = total;
}

void KernelPlan::reduce_outflow4(std::size_t from0, FlowState& s) const {
  const std::size_t n = periods_;
  const double* r0 = &s.pair[from0 * n];
  const double* r1 = r0 + n;
  const double* r2 = r1 + n;
  const double* r3 = r2 + n;
  double a0 = 0.0;
  double a1 = 0.0;
  double a2 = 0.0;
  double a3 = 0.0;
  const auto add_column = [&](std::size_t to) {
    a0 += r0[to];
    a1 += r1[to];
    a2 += r2[to];
    a3 += r3[to];
  };
  for (std::size_t to = 0; to < from0; ++to) add_column(to);
  // The 4x4 diagonal block: each row skips its own column.
  const std::size_t d = from0;
  a1 += r1[d];
  a2 += r2[d];
  a3 += r3[d];
  a0 += r0[d + 1];
  a2 += r2[d + 1];
  a3 += r3[d + 1];
  a0 += r0[d + 2];
  a1 += r1[d + 2];
  a3 += r3[d + 2];
  a0 += r0[d + 3];
  a1 += r1[d + 3];
  a2 += r2[d + 3];
  for (std::size_t to = from0 + 4; to < n; ++to) add_column(to);
  s.outflow[from0] = a0;
  s.outflow[from0 + 1] = a1;
  s.outflow[from0 + 2] = a2;
  s.outflow[from0 + 3] = a3;
}

void KernelPlan::linear_outflow(FlowState& s) const {
  const std::size_t n = periods_;
  double* out = s.outflow.data();
  std::fill(out, out + n, 0.0);
  // DeferralKernel::outflow's linear sum for every row at once: ascending
  // `to`, columns with p <= 0 skipped, each row's own column left out by
  // restoring that row's partial sum after the column update.
  for (std::size_t to = 0; to < n; ++to) {
    const double reward = s.rewards[to];
    if (!(reward > 0.0)) continue;
    const double diagonal = out[to];
    add_unit_column(out, &unit_t_[to * n], reward, n);
    out[to] = diagonal;
  }
}

void KernelPlan::reduce_outflow_rows(std::size_t begin, std::size_t end,
                                     FlowState& s) const {
  std::size_t from = begin;
  for (; from + 4 <= end; from += 4) reduce_outflow4(from, s);
  for (; from < end; ++from) reduce_outflow(from, s);
}

void KernelPlan::evaluate(const std::vector<double>& rewards,
                          bool with_derivatives, FlowState& s) const {
  const std::size_t n = periods_;
  TDP_REQUIRE(rewards.size() == n, "reward vector size mismatch");
  s.plan = this;
  s.plan_serial = serial_;
  s.has_derivatives = with_derivatives;
  s.rewards = rewards;
  s.inflow.assign(n, 0.0);
  s.outflow.assign(n, 0.0);
  if (with_derivatives) s.inflow_derivative.assign(n, 0.0);
  if (linear_) {
    // No pair matrices: inflow is a table lookup, outflow a column sweep
    // over the unit table, and dV is unit_ itself (derivative_rows).
    s.pair.clear();
    s.pair_derivative.clear();
    for (std::size_t i = 0; i < n; ++i) reduce_inflow(i, with_derivatives, s);
    linear_outflow(s);
    return;
  }
  s.pair.assign(n * n, 0.0);
  if (with_derivatives) s.pair_derivative.assign(n * n, 0.0);
  s.wf_factor.resize(functions_.size());
  s.wf_factor_derivative.resize(functions_.size());
  for (std::size_t to = 0; to < n; ++to) {
    fill_column(to, rewards[to], with_derivatives, s);
  }
  std::size_t i = 0;
#if defined(TDP_HAVE_AVX2)
  // Four column sums at a time over the freshly filled pair matrix; each
  // lane keeps the scalar reduction order.
  if (simd::mode() == simd::Mode::kAvx2) {
    for (; i + 4 <= n; i += 4) reduce_inflow4_avx2(i, with_derivatives, s);
  }
#endif
  for (; i < n; ++i) reduce_inflow(i, with_derivatives, s);
  reduce_outflow_rows(0, n, s);
}

void KernelPlan::update_coordinate(std::size_t m, double reward,
                                   bool with_derivatives,
                                   FlowState& s) const {
  TDP_REQUIRE(s.plan == this && s.plan_serial == serial_,
              "FlowState not primed for this plan (call evaluate first)");
  TDP_REQUIRE(m < periods_, "period out of range");
  TDP_REQUIRE(!with_derivatives || s.has_derivatives,
              "state was primed without derivatives");
  // Keep every cached array coherent: refresh derivatives whenever the
  // priming evaluate computed them, so the postcondition (bitwise equal to
  // a full evaluate) holds for the whole state.
  const bool wd = s.has_derivatives;
  s.rewards[m] = reward;
  if (linear_) {
    // Without a cached matrix every row's sum is re-swept; the sweep is
    // the same O(n^2) adds the re-reduction of cached rows would be.
    reduce_inflow(m, wd, s);
    linear_outflow(s);
    return;
  }
  fill_column(m, reward, wd, s);
  reduce_inflow(m, wd, s);
  // inflow for i != m depends only on column i — unchanged. outflow(from)
  // sums row `from` across columns including m, so every row containing
  // the refreshed column is re-reduced over cached values in the reference
  // order; outflow(m) itself excludes column m and is untouched.
  reduce_outflow_rows(0, m, s);
  reduce_outflow_rows(m + 1, periods_, s);
}

UniformLagWeightTable::UniformLagWeightTable(WaitingFunctionPtr wf,
                                             std::size_t periods)
    : wf_(std::move(wf)), periods_(periods) {
  TDP_REQUIRE(wf_ != nullptr, "waiting function must be set");
  TDP_REQUIRE(periods_ >= 2, "need at least two periods");
  const auto* power =
      dynamic_cast<const PowerLawWaitingFunction*>(wf_.get());
  if (power == nullptr) return;
  power_ = true;
  norm_ = power->normalization();
  gamma_ = power->gamma();
  const double beta = power->beta();
  node_pow_.assign(periods_ * kGaussN, 0.0);
  half_.assign(periods_, 0.0);
  for (std::size_t lag = 1; lag < periods_; ++lag) {
    for (std::size_t k = 0; k < kGaussN; ++k) {
      double half = 0.0;
      const double u = gauss_abscissa(lag, k, half);
      node_pow_[lag * kGaussN + k] = std::pow(u + 1.0, -beta);
      half_[lag] = half;
    }
  }
}

double UniformLagWeightTable::weight(double reward, std::size_t lag) const {
  TDP_REQUIRE(lag >= 1 && lag < periods_, "lag out of range");
  if (!power_) {
    return lag_weight(*wf_, reward, lag, LagConvention::kUniformArrival);
  }
  if (reward <= 0.0) return 0.0;
  const double factor = norm_ * std::pow(reward, gamma_);
  const double* np = &node_pow_[lag * kGaussN];
  double acc = 0.0;
  for (std::size_t k = 0; k < kGaussN; ++k) {
    acc += math::kGauss8Weights[k] * (factor * np[k]);
  }
  return acc * half_[lag];
}

}  // namespace tdp

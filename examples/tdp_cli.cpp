// tdp_cli — price a day from a CSV demand file.
//
// Input format (header required), one row per session class:
//
//     # period is 1-based and every period 1..n appears; beta is the
//     # patience index; volume in demand units
//     period,beta,volume
//     1,0.5,4
//     1,2.0,3
//     2,1.5,2
//     ...
//
// Usage:
//   tdp_cli <demand.csv> <capacity> <cost-slope> [--dynamic] [--out <file>]
//
// Solves the static (default) or dynamic (carry-over) price optimization
// and prints — or writes as CSV — the optimal reward schedule and the
// resulting traffic profile. Demonstrates how a downstream ISP would feed
// its own measured demand into the library.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "core/static_model.hpp"
#include "core/static_optimizer.hpp"
#include "dynamic/dynamic_model.hpp"
#include "dynamic/dynamic_optimizer.hpp"

namespace {

constexpr const char* kSynopsis =
    "<demand.csv> <capacity> <cost-slope> [--dynamic] [--out <file>]\n"
    "  demand.csv columns: period,beta,volume (period 1..n, no gaps)";

/// A whole command-line number: strtod must consume all of `text` and the
/// value must be finite.
bool parse_number(const char* text, double& value) {
  char* end = nullptr;
  value = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(value);
}

/// The period count n, after checking that every period cell is a finite
/// integer >= 1 and that together they cover 1..n with no gap. Runs before
/// anything is sized by a period number, so a hostile cell cannot size an
/// allocation.
std::size_t period_count(const tdp::CsvTable& csv, std::size_t column) {
  std::set<double> seen;
  for (std::size_t r = 0; r < csv.row_count(); ++r) {
    const double period = csv.number(r, column);
    TDP_REQUIRE(std::isfinite(period) && period >= 1.0 &&
                    period == std::floor(period),
                "period must be an integer >= 1, got '" +
                    csv.cell(r, column) + "'");
    seen.insert(period);
  }
  // Distinct integers >= 1 cover 1..n exactly when the largest is n.
  TDP_REQUIRE(!seen.empty() &&
                  *seen.rbegin() == static_cast<double>(seen.size()),
              "periods must cover 1..n with no gap");
  return seen.size();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdp;
  if (argc < 4) cli::exit_with_usage(argv[0], kSynopsis);

  const std::string demand_path = argv[1];
  double capacity = 0.0;
  double slope = 0.0;
  if (!parse_number(argv[2], capacity)) {
    std::fprintf(stderr, "error: capacity is not a finite number: '%s'\n",
                 argv[2]);
    return 1;
  }
  if (!parse_number(argv[3], slope)) {
    std::fprintf(stderr, "error: cost slope is not a finite number: '%s'\n",
                 argv[3]);
    return 1;
  }
  bool dynamic = false;
  std::string out_path;
  for (int a = 4; a < argc; ++a) {
    if (std::strcmp(argv[a], "--dynamic") == 0) {
      dynamic = true;
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else {
      cli::exit_with_usage(argv[0], kSynopsis);
    }
  }

  try {
    const CsvTable csv = load_csv(demand_path, /*has_header=*/true);
    const std::size_t period_col = csv.column_index("period");
    const std::size_t beta_col = csv.column_index("beta");
    const std::size_t volume_col = csv.column_index("volume");

    const std::size_t periods = period_count(csv, period_col);
    TDP_REQUIRE(periods >= 2, "need at least two periods in the CSV");

    // Normalization at the rational cap slope/2 (the calibrated convention).
    const double normalization = 0.5 * slope;
    const LagNormalization lag_norm = dynamic
                                          ? LagNormalization::kContinuous
                                          : LagNormalization::kDiscrete;
    std::map<double, WaitingFunctionPtr> waiting_cache;
    DemandProfile demand(periods);
    for (std::size_t r = 0; r < csv.row_count(); ++r) {
      const auto period =
          static_cast<std::size_t>(csv.number(r, period_col)) - 1;
      const double beta = csv.number(r, beta_col);
      const double volume = csv.number(r, volume_col);
      auto& waiting = waiting_cache[beta];
      if (!waiting) {
        waiting = std::make_shared<PowerLawWaitingFunction>(
            beta, periods, normalization, 1.0, lag_norm);
      }
      demand.add_class(period, {waiting, volume});
    }

    math::Vector rewards;
    math::Vector profile;
    double tip_cost = 0.0;
    double tdp_cost = 0.0;
    if (dynamic) {
      DynamicModel model(std::move(demand), capacity,
                         math::PiecewiseLinearCost::hinge(slope));
      const DynamicPricingSolution sol = optimize_dynamic_prices(model);
      rewards = sol.rewards;
      profile = sol.evaluation.arrivals;
      tip_cost = sol.tip_cost;
      tdp_cost = sol.evaluation.total_cost;
    } else {
      StaticModel model(std::move(demand), capacity,
                        math::PiecewiseLinearCost::hinge(slope));
      const PricingSolution sol = optimize_static_prices(model);
      rewards = sol.rewards;
      profile = sol.usage;
      tip_cost = sol.tip_cost;
      tdp_cost = sol.total_cost;
    }

    std::printf("# model: %s, capacity %.3f, cost slope %.3f\n",
                dynamic ? "dynamic (carry-over)" : "static", capacity, slope);
    std::printf("# cost: %.4f flat -> %.4f TDP (%.1f%% savings)\n", tip_cost,
                tdp_cost,
                tip_cost > 0.0 ? 100.0 * (tip_cost - tdp_cost) / tip_cost
                               : 0.0);

    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < rewards.size(); ++i) {
      char reward_text[32];
      char usage_text[32];
      std::snprintf(reward_text, sizeof reward_text, "%.6f", rewards[i]);
      std::snprintf(usage_text, sizeof usage_text, "%.4f", profile[i]);
      rows.push_back({std::to_string(i + 1), reward_text, usage_text});
    }
    const std::vector<std::string> header = {"period", "reward", "usage"};
    if (out_path.empty()) {
      std::fputs(to_csv(header, rows).c_str(), stdout);
    } else {
      save_csv(out_path, header, rows);
      std::printf("# schedule written to %s\n", out_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

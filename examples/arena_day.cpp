// Arena day: every pricing mechanism on the SAME seeded 100,000-user day.
//
// Four FleetDrivers run identical populations (same seed, same shard/slice
// layout, same warmup) differing only in the configured mechanism:
// flat-TIP (the do-nothing control), the paper's TUBE online pricer, a
// fixed-budget rebate with a pacing controller, and the exact day-ahead
// oracle solve. The closing table compares them on peak-to-average
// reduction, ISP cost (backlog cost of the realized profile plus rewards
// paid, judged on the shared baseline fluid model), rebate budget spent,
// and user welfare — the comparison the mechanism arena exists to make
// (DESIGN.md §13). The enforced version is bench/mechanism_arena + the CI
// ordering gate.
//
//   ./examples/arena_day [users]
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fleet/fleet_driver.hpp"
#include "fleet/fleet_metrics.hpp"
#include "mech/mechanism.hpp"

int main(int argc, char** argv) {
  using namespace tdp;

  const std::uint64_t users =
      cli::users_arg(argc, argv, 100000, 1, "[users]");

  std::printf("arena day: %llu users, one fleet per mechanism\n\n",
              static_cast<unsigned long long>(users));

  const mech::MechanismKind kinds[] = {
      mech::MechanismKind::kFlatTip,
      mech::MechanismKind::kTubeOnline,
      mech::MechanismKind::kFixedBudgetRebate,
      mech::MechanismKind::kDayAheadOracle,
  };

  TextTable table({"mechanism", "P2A tip", "P2A tdp", "reduction",
                   "ISP cost", "rebate spent", "welfare"});
  for (const mech::MechanismKind kind : kinds) {
    fleet::FleetDriverConfig config;
    config.population.users = users;
    config.population.periods = 48;
    config.population.seed = 20110611;
    config.shards = 64;
    config.warmup_days = 3;  // let every settle loop reach steady state
    config.online_pricing = true;
    config.mechanism.kind = kind;

    std::printf("running %s...\n", mech::to_string(kind));
    fleet::FleetDriver driver(config);
    const DynamicModel judge =
        fleet::baseline_fluid_model(driver.population());
    const fleet::FleetMetrics m = driver.run_day();

    const double reduction =
        m.peak_to_average_tip > 0.0
            ? (m.peak_to_average_tip - m.peak_to_average_tdp) /
                  m.peak_to_average_tip
            : 0.0;
    const double isp_cost =
        mech::profile_backlog_cost(m.realized_units, judge.capacity(),
                                   judge.backlog_cost(),
                                   judge.warmup_days()) +
        m.reward_paid_units;
    std::string spent = TextTable::num(m.reward_paid_units);
    if (m.rebate_budget_pool > 0.0) {
      spent += " / " + TextTable::num(m.rebate_budget_pool);
    }
    table.add_row({mech::to_string(kind),
                   TextTable::num(m.peak_to_average_tip),
                   TextTable::num(m.peak_to_average_tdp),
                   TextTable::num(reduction), TextTable::num(isp_cost),
                   spent, TextTable::num(0.5 * m.reward_paid_units)});
  }

  std::printf("\n%s", table.to_string().c_str());
  std::printf(
      "\nreduction: fraction of the TIP peak-to-average ratio removed\n"
      "ISP cost:  backlog cost of the realized profile + rewards paid\n"
      "rebate:    'spent / pool' for the fixed-budget mechanism\n"
      "welfare:   0.5 x rewards paid (uniform-rent approximation)\n");
  return 0;
}

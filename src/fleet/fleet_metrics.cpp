#include "fleet/fleet_metrics.hpp"

#include <algorithm>
#include <numeric>

namespace tdp::fleet {

double peak_to_average(const std::vector<double>& profile) {
  if (profile.empty()) return 0.0;
  const double total =
      std::accumulate(profile.begin(), profile.end(), 0.0);
  if (total <= 0.0) return 0.0;
  const double peak = *std::max_element(profile.begin(), profile.end());
  return peak * static_cast<double>(profile.size()) / total;
}

}  // namespace tdp::fleet

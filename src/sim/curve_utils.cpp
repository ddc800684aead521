#include "sim/curve_utils.hpp"

#include "common/check.hpp"

namespace fedtune::sim {

double curve_value_at(std::span<const core::CurvePoint> curve,
                      std::size_t rounds, double initial) {
  double value = initial;
  for (const core::CurvePoint& p : curve) {
    if (p.rounds > rounds) break;
    value = p.full_error;
  }
  return value;
}

std::vector<std::size_t> budget_grid(std::size_t max_rounds,
                                     std::size_t num_points) {
  FEDTUNE_CHECK(num_points > 0 && max_rounds > 0);
  std::vector<std::size_t> grid(num_points);
  for (std::size_t i = 0; i < num_points; ++i) {
    grid[i] = max_rounds * (i + 1) / num_points;
  }
  return grid;
}

AggregatedCurve aggregate_curves(
    std::span<const std::vector<core::CurvePoint>> trial_curves,
    std::span<const std::size_t> grid, double initial) {
  FEDTUNE_CHECK(!trial_curves.empty());
  AggregatedCurve out;
  out.grid.assign(grid.begin(), grid.end());
  out.summary.reserve(grid.size());
  std::vector<double> values(trial_curves.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    for (std::size_t t = 0; t < trial_curves.size(); ++t) {
      values[t] = curve_value_at(trial_curves[t], grid[g], initial);
    }
    out.summary.push_back(stats::quartiles(values));
  }
  return out;
}

}  // namespace fedtune::sim

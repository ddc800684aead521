// Helpers for budget-resolved curves: resampling irregular incumbent curves
// onto a common grid and aggregating medians/quartiles across trials.
#pragma once

#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/tuning_driver.hpp"

namespace fedtune::sim {

// Value of a step curve at budget `rounds`: the last point at or before it.
// Returns `initial` when the curve has no point yet (nothing selected).
double curve_value_at(std::span<const core::CurvePoint> curve,
                      std::size_t rounds, double initial = 1.0);

// Evenly spaced budget grid: num_points values ending at max_rounds.
std::vector<std::size_t> budget_grid(std::size_t max_rounds,
                                     std::size_t num_points);

// Median (and quartiles) across trials of step curves sampled on a grid.
struct AggregatedCurve {
  std::vector<std::size_t> grid;
  std::vector<stats::QuartileSummary> summary;  // one per grid point
};

AggregatedCurve aggregate_curves(
    std::span<const std::vector<core::CurvePoint>> trial_curves,
    std::span<const std::size_t> grid, double initial = 1.0);

}  // namespace fedtune::sim

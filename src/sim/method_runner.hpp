// Internal helper shared by experiment implementations: constructs one of
// the four tuning methods in candidate-pool mode and runs it through the
// TuningDriver against a pool view.
#pragma once

#include <memory>

#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "hpo/tuner.hpp"
#include "sim/experiments.hpp"

namespace fedtune::sim {

// Budget conventions matching the paper (scaled): RS/TPE train K configs to
// the fidelity ceiling; HB/BOHB sweep all eta=3 brackets over the pool's
// checkpoint grid. The tuner borrows `configs` (hpo::CandidatePool): they
// must outlive it.
std::unique_ptr<hpo::Tuner> make_pool_tuner(
    Method method, const std::vector<hpo::Config>& configs,
    const core::PoolEvalView& view, std::size_t rs_configs, Rng rng);

// Single SHA bracket over the pool's checkpoint grid (n0 entrants at the
// grid's first rung, eta=3 eliminations up to its ceiling) — the fifth
// method the StudyService offers (service/study.hpp). Owns the trial-id
// counter Hyperband normally shares across brackets; borrows `configs`.
std::unique_ptr<hpo::Tuner> make_pool_sha_tuner(
    const std::vector<hpo::Config>& configs, const core::PoolEvalView& view,
    std::size_t n0, Rng rng);

// DP style for the method (per-eval Laplace vs one-shot top-k).
core::DpStyle dp_style_for(Method method);

// One tuning run on the pool under the noise model.
core::TuneResult run_pool_method(Method method,
                                 const std::vector<hpo::Config>& configs,
                                 const core::PoolEvalView& view,
                                 const core::NoiseModel& noise,
                                 std::size_t rs_configs, std::uint64_t seed);

// Total training rounds the method consumes (for budget grids).
std::size_t method_total_rounds(Method method, const core::PoolEvalView& view,
                                std::size_t rs_configs);

}  // namespace fedtune::sim

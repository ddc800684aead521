// Finite-difference gradient checking for Model implementations.
//
// Used by the test suite to validate every hand-derived backward pass
// (Linear/Embedding/softmax-CE) end to end through real models.
#pragma once

#include <cstddef>

#include "nn/model.hpp"

namespace fedtune::nn {

struct GradCheckResult {
  double max_rel_error = 0.0;   // max_i |analytic - numeric| / (|a|+|n|+eps)
  double mean_rel_error = 0.0;
  std::size_t checked = 0;
};

// Compares analytic gradients against central finite differences on up to
// `max_params` randomly chosen parameters (all params if 0). The model is
// restored to its original parameter values afterwards.
GradCheckResult gradient_check(Model& model, const data::ClientData& client,
                               std::span<const std::size_t> idx, Rng& rng,
                               std::size_t max_params = 0,
                               double step = 1e-3);

}  // namespace fedtune::nn

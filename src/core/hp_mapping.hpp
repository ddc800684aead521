// Bridges the generic hpo::Config (named doubles) and the typed federated
// hyperparameters consumed by fl::FedTrainer. Uses the Appendix-B parameter
// names produced by hpo::appendix_b_space().
#pragma once

#include <cstdint>
#include <string>

#include "core/noise_model.hpp"
#include "fl/hyperparams.hpp"
#include "hpo/search_space.hpp"

namespace fedtune::core {

// Missing keys keep their FedHyperParams defaults, so partial configs (e.g.
// server-side-only sweeps) remain valid.
fl::FedHyperParams to_fed_hyperparams(const hpo::Config& config);

hpo::Config from_fed_hyperparams(const fl::FedHyperParams& hps);

// Noise-namespace signature for evaluation-cache keys: a stable hash of
// every NoiseModel knob the stored noisy objective depends on. Two studies
// share cached outcomes iff their signatures match, so:
//   - every distributional knob (eval_clients, bias, epsilon, dropout,
//     weighting) is hashed in;
//   - `planned_evals` (the Laplace split M) is hashed in only under DP —
//     the per-eval noise scale depends on M, so studies with different
//     plans must not share draws; it is ignored when epsilon is infinite;
//   - `scope` is normally empty (cross-tenant sharing is the point); a
//     study that opts out of warm starts passes its own name, placing its
//     entries in a private namespace.
// The study seed is deliberately NOT hashed: per-eval noise streams are
// drawn from the evaluator, and a cached entry replays the first writer's
// draw for every later reader by design.
std::uint64_t noise_signature(const NoiseModel& noise,
                              std::size_t planned_evals,
                              const std::string& scope = {});

}  // namespace fedtune::core

// Federated evaluation — Eq. 2 of the paper.
//
// The full-evaluation path (all N_val clients) is the "ground truth" every
// figure reports on the y-axis; the subsampled path is what tuners actually
// see. Client weights are either uniform (p_k = 1, required for the DP
// sensitivity bound) or proportional to client example counts.
#pragma once

#include <span>
#include <vector>

#include "data/client_data.hpp"
#include "nn/model.hpp"

namespace fedtune::fl {

enum class Weighting { kUniform, kByExampleCount };

// Error rate of `model` on each of the selected clients (client order
// matches `which`). Clients with zero examples report error 1.0. Both paths
// evaluate through nn::Model::error_rates.
//
// num_threads: 1 = serial (default), any other value = parallelize over
// batches of clients on the shared global pool using per-worker model
// replicas. The
// parallel path degrades to serial inside an enclosing parallel region and
// produces identical results either way.
std::vector<double> client_errors(const nn::Model& model,
                                  std::span<const data::ClientData> clients,
                                  std::span<const std::size_t> which,
                                  std::size_t num_threads = 1);

// Error rate on every client in the pool.
std::vector<double> all_client_errors(const nn::Model& model,
                                      std::span<const data::ClientData> clients,
                                      std::size_t num_threads = 1);

// Aggregates per-client errors with the chosen weighting (Eq. 2). `which`
// selects which clients the errors correspond to (for example-count weights).
double aggregate_error(std::span<const double> errors,
                       std::span<const data::ClientData> clients,
                       std::span<const std::size_t> which, Weighting weighting);

// Full validation error: every eval client, aggregated (Eq. 2, S = [N_val]).
double full_validation_error(const nn::Model& model,
                             const data::FederatedDataset& dataset,
                             Weighting weighting = Weighting::kByExampleCount);

// Subsampled validation error over an explicit client subset.
double subsampled_validation_error(const nn::Model& model,
                                   const data::FederatedDataset& dataset,
                                   std::span<const std::size_t> which,
                                   Weighting weighting);

}  // namespace fedtune::fl

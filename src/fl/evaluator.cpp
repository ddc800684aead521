#include "fl/evaluator.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace fedtune::fl {

std::vector<double> client_errors(const nn::Model& model,
                                  std::span<const data::ClientData> clients,
                                  std::span<const std::size_t> which,
                                  std::size_t num_threads) {
  std::vector<double> errors(which.size());
  for (std::size_t k : which) FEDTUNE_CHECK(k < clients.size());

  const bool serial = num_threads == 1 || which.size() < 2 ||
                      ThreadPool::in_parallel_region();
  if (serial) {
    model.error_rates(clients, which, errors);
    return errors;
  }

  // Model scratch buffers are mutated during evaluation, so each worker slot
  // evaluates on its own replica. Each client's error is a pure function of
  // (params, client), so neither the schedule nor the split of `which` into
  // batches can affect results. The replica set is per-call on purpose:
  // `model` can be a different architecture on every call, so replicas
  // cannot be cached across calls — and the serial early returns above mean
  // clones are only ever paid on genuinely parallel runs.
  ThreadPool& pool = ThreadPool::global();
  nn::ReplicaSet replicas;
  replicas.reset(model, pool.max_slots(), /*copy_params=*/true);
  // A few contiguous batches per slot: each error_rates() call shares its
  // per-batch work (e.g. distinct-context rows) across its clients, and
  // several batches per slot keep uneven client sizes load-balanced.
  const std::size_t batches = std::min(which.size(), 4 * pool.max_slots());
  pool.parallel_for_slots(batches, [&](std::size_t slot, std::size_t b) {
    const std::size_t lo = b * which.size() / batches;
    const std::size_t hi = (b + 1) * which.size() / batches;
    replicas.at(slot).error_rates(
        clients, which.subspan(lo, hi - lo),
        std::span<double>(errors).subspan(lo, hi - lo));
  });
  return errors;
}

std::vector<double> all_client_errors(const nn::Model& model,
                                      std::span<const data::ClientData> clients,
                                      std::size_t num_threads) {
  std::vector<std::size_t> which(clients.size());
  std::iota(which.begin(), which.end(), std::size_t{0});
  return client_errors(model, clients, which, num_threads);
}

double aggregate_error(std::span<const double> errors,
                       std::span<const data::ClientData> clients,
                       std::span<const std::size_t> which,
                       Weighting weighting) {
  FEDTUNE_CHECK(errors.size() == which.size());
  FEDTUNE_CHECK(!errors.empty());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const double w =
        (weighting == Weighting::kUniform)
            ? 1.0
            : static_cast<double>(clients[which[i]].num_examples());
    num += w * errors[i];
    den += w;
  }
  FEDTUNE_CHECK_MSG(den > 0.0, "all sampled clients are empty");
  return num / den;
}

double full_validation_error(const nn::Model& model,
                             const data::FederatedDataset& dataset,
                             Weighting weighting) {
  std::vector<std::size_t> which(dataset.eval_clients.size());
  std::iota(which.begin(), which.end(), std::size_t{0});
  const std::vector<double> errors =
      client_errors(model, dataset.eval_clients, which);
  return aggregate_error(errors, dataset.eval_clients, which, weighting);
}

double subsampled_validation_error(const nn::Model& model,
                                   const data::FederatedDataset& dataset,
                                   std::span<const std::size_t> which,
                                   Weighting weighting) {
  const std::vector<double> errors =
      client_errors(model, dataset.eval_clients, which);
  return aggregate_error(errors, dataset.eval_clients, which, weighting);
}

}  // namespace fedtune::fl

// Model interface used by the federated training loop.
//
// A Model owns its ParamStore; the optimizer and server aggregation code see
// only flat spans. forward_backward() accumulates gradients (callers
// zero_grad() between minibatches); errors() and the batched error_rates()
// evaluate prediction error for federated evaluation (Eq. 2 of the paper).
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/client_data.hpp"

namespace fedtune::nn {

class Model {
 public:
  virtual ~Model() = default;

  virtual std::size_t num_params() const = 0;
  virtual std::span<float> params() = 0;
  virtual std::span<const float> params() const = 0;
  virtual std::span<float> grads() = 0;
  virtual void zero_grad() = 0;

  // Random (re-)initialization of all parameters.
  virtual void init(Rng& rng) = 0;

  // Mean loss over the examples of `client` selected by `idx`; accumulates
  // parameter gradients of the mean loss.
  virtual double forward_backward(const data::ClientData& client,
                                  std::span<const std::size_t> idx) = 0;

  // (wrong predictions, total predictions) over ALL examples of `client`.
  // For next-token models every predicted position counts as a prediction.
  virtual std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const = 0;

  // Fresh model of identical architecture with uninitialized parameters.
  // Used to give each thread / HP configuration its own instance.
  virtual std::unique_ptr<Model> clone_architecture() const = 0;

  // Error rate helper: wrong / total over a client (1.0 if no examples).
  double error_rate(const data::ClientData& client) const {
    return rate(errors(client));
  }

  // Batched evaluation: out[i] = error_rate(clients[which[i]]). This is the
  // entry point of fl::client_errors. Models whose prediction cost can be
  // shared across clients override it; an override must return exactly the
  // values of the default loop below.
  virtual void error_rates(std::span<const data::ClientData> clients,
                           std::span<const std::size_t> which,
                           std::span<double> out) const {
    FEDTUNE_CHECK(out.size() == which.size());
    for (std::size_t i = 0; i < which.size(); ++i) {
      out[i] = error_rate(clients[which[i]]);
    }
  }

 protected:
  // wrong / total of an errors() count; 1.0 when nothing was predicted.
  static double rate(std::pair<std::size_t, std::size_t> count) {
    if (count.second == 0) return 1.0;
    return static_cast<double>(count.first) /
           static_cast<double>(count.second);
  }
};

// Factory: builds a fresh, unseeded model for a task. Implementations live
// with the dataset definitions (data/benchmarks.hpp) and in user code.
using ModelFactory = std::unique_ptr<Model> (*)();

// One lazily cloned model replica per worker slot, for parallel loops whose
// bodies mutate model scratch (ThreadPool::parallel_for_slots). Distinct
// slots are touched by distinct threads, so at() needs no locking. reset()
// re-targets the prototype but keeps already-cloned replicas (reuse across
// rounds); replicas are only cloned when their slot first executes.
class ReplicaSet {
 public:
  // copy_params: initialize each replica with the prototype's current
  // parameters (for evaluation); otherwise callers load params per task.
  // Already-cloned replicas are refreshed here so a reused set never
  // evaluates on a previous reset's weights.
  void reset(const Model& prototype, std::size_t slots, bool copy_params) {
    prototype_ = &prototype;
    copy_params_ = copy_params;
    if (replicas_.size() < slots) replicas_.resize(slots);
    if (copy_params_) {
      const auto src = prototype.params();
      for (auto& replica : replicas_) {
        if (replica) {
          std::copy(src.begin(), src.end(), replica->params().begin());
        }
      }
    }
  }

  Model& at(std::size_t slot) {
    auto& replica = replicas_.at(slot);
    if (!replica) {
      replica = prototype_->clone_architecture();
      if (copy_params_) {
        const auto src = prototype_->params();
        std::copy(src.begin(), src.end(), replica->params().begin());
      }
    }
    return *replica;
  }

 private:
  const Model* prototype_ = nullptr;
  bool copy_params_ = false;
  std::vector<std::unique_ptr<Model>> replicas_;
};

}  // namespace fedtune::nn

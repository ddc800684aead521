// NoisyEvaluator — the heart of the study.
//
// Composes the noise sources of §2.2 over a vector of per-client error
// rates: subsamples |S| clients (uniformly or with accuracy bias), computes
// the weighted/uniform aggregate (Eq. 2), and optionally privatizes it with
// per-evaluation Laplace noise Lap(M / (epsilon |S|)). Works identically for
// live federated evaluation and for cached config-pool errors, since both
// reduce to a per-client error vector.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/noise_model.hpp"
#include "privacy/accountant.hpp"

namespace fedtune::obs {
class Counter;
}

namespace fedtune::core {

// Human-readable summary of the active noise sources ("clean",
// "subsample+dp", ...) — the bounded `source` label on the evaluator's
// fedtune_evals_total counters.
std::string noise_source_label(const NoiseModel& noise);

class NoisyEvaluator {
 public:
  // `client_weights` are the eval pool's example counts (p_k of Eq. 2);
  // `planned_evals` is M, the number of evaluation calls the tuning run will
  // make (per-eval budget = epsilon / M).
  //
  // Evaluation i draws from its own stream rng.split(salts::kEvalCall + i),
  // so each evaluation is a pure function of (rng seed, eval index). Journal
  // replay can therefore skip_evaluation() past already-recorded evaluations
  // and the next live evaluation still draws the exact stream an
  // uninterrupted run would have; paper figures and service studies draw
  // the same streams.
  NoisyEvaluator(const NoiseModel& noise, std::vector<double> client_weights,
                 std::size_t planned_evals, Rng rng);

  // One noisy evaluation of a model whose per-client errors are given over
  // the FULL eval pool (the evaluator does the subsampling).
  double evaluate(std::span<const double> all_client_errors);

  // Journal replay: advances the evaluation counter and privacy accounting
  // past one already-recorded evaluation without consuming its stream.
  // last_sample() is unspecified afterwards.
  void skip_evaluation();

  // Evaluation-cache accounting. A cache hit is a real evaluation for budget
  // purposes — it advances the eval counter and charges the privacy accountant
  // exactly like skip_evaluation() (the cached value was privatized by its
  // first writer; serving it re-uses that one release, but this study's plan M
  // already paid for the slot) — it just never computes anything. A recorded
  // miss only bumps the counter pair used for hit-rate reporting.
  void serve_cached();
  void record_cache_miss() { ++cache_misses_; }
  std::size_t cache_hits() const { return cache_hits_; }
  std::size_t cache_misses() const { return cache_misses_; }

  // Ground truth: full-pool aggregate under the noise model's weighting
  // (no subsampling, no DP noise).
  double full_error(std::span<const double> all_client_errors) const;

  // The clients selected by the most recent evaluate() call.
  const std::vector<std::size_t>& last_sample() const { return last_sample_; }

  std::size_t evals_performed() const { return evals_; }
  // Evaluations actually computed by this instance — excludes
  // skip_evaluation() fast-forwards. Recovery tests use this to prove a
  // resumed study replays its history without re-running a single
  // evaluation.
  std::size_t live_evals_performed() const { return live_evals_; }
  const privacy::BasicCompositionAccountant& accountant() const {
    return accountant_;
  }

 private:
  NoiseModel noise_;
  std::vector<double> client_weights_;
  std::size_t planned_evals_;
  Rng rng_;
  privacy::BasicCompositionAccountant accountant_;
  std::vector<std::size_t> last_sample_;
  std::size_t evals_ = 0;
  std::size_t live_evals_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
  // fedtune_evals_total{kind=live|replayed|cached, source=...} — shared
  // registry counters (bounded label set), resolved once per evaluator.
  obs::Counter* live_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Counter* cached_counter_ = nullptr;
};

}  // namespace fedtune::core

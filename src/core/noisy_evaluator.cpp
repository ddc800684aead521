#include "core/noisy_evaluator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng_salts.hpp"
#include "obs/metrics.hpp"
#include "privacy/laplace.hpp"
#include "sampling/client_sampler.hpp"

namespace fedtune::core {

std::string noise_source_label(const NoiseModel& noise) {
  std::string label;
  const auto append = [&label](const char* source) {
    if (!label.empty()) label += "+";
    label += source;
  };
  if (!noise.is_full_eval()) append("subsample");
  if (noise.bias_b > 0.0) append("bias");
  if (noise.eval_dropout > 0.0) append("dropout");
  if (noise.is_private()) append("dp");
  return label.empty() ? "clean" : label;
}

NoisyEvaluator::NoisyEvaluator(const NoiseModel& noise,
                               std::vector<double> client_weights,
                               std::size_t planned_evals, Rng rng)
    : noise_(noise), client_weights_(std::move(client_weights)),
      planned_evals_(planned_evals), rng_(rng), accountant_(noise.epsilon) {
  FEDTUNE_CHECK(!client_weights_.empty());
  FEDTUNE_CHECK(planned_evals_ > 0);
  FEDTUNE_CHECK(noise_.is_full_eval() ||
                noise_.eval_clients <= client_weights_.size());
  FEDTUNE_CHECK(noise_.eval_clients > 0);
  FEDTUNE_CHECK(noise_.eval_dropout >= 0.0 && noise_.eval_dropout < 1.0);
  // The `source` label is a bounded set (2^4 combinations), so evaluator
  // instances across studies and experiments share these series.
  const std::string source = noise_source_label(noise_);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  live_counter_ = &reg.counter("fedtune_evals_total",
                               {{"kind", "live"}, {"source", source}});
  replayed_counter_ = &reg.counter("fedtune_evals_total",
                                   {{"kind", "replayed"}, {"source", source}});
  cached_counter_ = &reg.counter("fedtune_evals_total",
                                 {{"kind", "cached"}, {"source", source}});
}

double NoisyEvaluator::full_error(
    std::span<const double> all_client_errors) const {
  FEDTUNE_CHECK(all_client_errors.size() == client_weights_.size());
  double num = 0.0, den = 0.0;
  const bool uniform =
      noise_.effective_weighting() == fl::Weighting::kUniform;
  for (std::size_t k = 0; k < all_client_errors.size(); ++k) {
    const double w = uniform ? 1.0 : client_weights_[k];
    num += w * all_client_errors[k];
    den += w;
  }
  return num / den;
}

void NoisyEvaluator::skip_evaluation() {
  if (noise_.is_private()) {
    accountant_.charge(noise_.epsilon / static_cast<double>(planned_evals_));
  }
  ++evals_;
  replayed_counter_->add(1);
}

void NoisyEvaluator::serve_cached() {
  if (noise_.is_private()) {
    accountant_.charge(noise_.epsilon / static_cast<double>(planned_evals_));
  }
  ++evals_;
  ++cache_hits_;
  cached_counter_->add(1);
}

double NoisyEvaluator::evaluate(std::span<const double> all_client_errors) {
  FEDTUNE_CHECK(all_client_errors.size() == client_weights_.size());
  Rng rng = rng_.split(salts::kEvalCall + evals_);
  const std::size_t n = all_client_errors.size();
  const std::size_t s = noise_.is_full_eval()
                            ? n
                            : std::min(noise_.eval_clients, n);

  // 1. Subsampling, possibly participation-biased (systems heterogeneity).
  if (noise_.bias_b > 0.0) {
    std::vector<double> accuracies(n);
    for (std::size_t k = 0; k < n; ++k) {
      accuracies[k] = std::clamp(1.0 - all_client_errors[k], 0.0, 1.0);
    }
    last_sample_ = sampling::sample_biased(
        accuracies, s, {noise_.bias_b, noise_.bias_delta}, rng);
  } else {
    last_sample_ = sampling::sample_uniform(n, s, rng);
  }

  // 2. Systems heterogeneity: stragglers cut at the evaluation deadline —
  //    each sampled client independently fails to report. The fastest
  //    reporter (first surviving draw, or the first sampled client when
  //    every coin fails) is always kept so the aggregate is defined.
  if (noise_.eval_dropout > 0.0) {
    std::vector<std::size_t> reported;
    reported.reserve(last_sample_.size());
    for (const std::size_t k : last_sample_) {
      if (rng.uniform() >= noise_.eval_dropout) reported.push_back(k);
    }
    if (reported.empty()) reported.push_back(last_sample_.front());
    last_sample_ = std::move(reported);
  }

  // 3. Aggregate (Eq. 2) — uniform weighting whenever DP is on.
  const bool uniform =
      noise_.effective_weighting() == fl::Weighting::kUniform;
  double num = 0.0, den = 0.0;
  for (std::size_t k : last_sample_) {
    const double w = uniform ? 1.0 : client_weights_[k];
    num += w * all_client_errors[k];
    den += w;
  }
  double value = num / den;

  // 4. Privacy: Lap(M / (epsilon * |S|)) on the aggregate, charging the
  //    accountant epsilon / M per evaluation (basic composition). The
  //    sensitivity bound uses the clients that actually reported.
  if (noise_.is_private()) {
    const double sensitivity = 1.0 / static_cast<double>(last_sample_.size());
    value = privacy::privatize(value, sensitivity, noise_.epsilon,
                               planned_evals_, rng);
    accountant_.charge(noise_.epsilon / static_cast<double>(planned_evals_));
  }
  ++evals_;
  ++live_evals_;
  live_counter_->add(1);
  return value;
}

}  // namespace fedtune::core

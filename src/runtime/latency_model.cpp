#include "runtime/latency_model.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng_salts.hpp"

namespace fedtune::runtime {

LatencyModel::LatencyModel(LatencyConfig cfg, Rng rng)
    : cfg_(std::move(cfg)), rng_(rng) {
  FEDTUNE_CHECK(!cfg_.tier_slowdowns.empty());
  FEDTUNE_CHECK(cfg_.tier_weights.size() == cfg_.tier_slowdowns.size());
  FEDTUNE_CHECK(cfg_.lognormal_sigma >= 0.0);
  FEDTUNE_CHECK(cfg_.shifted_exp_rate > 0.0);
  FEDTUNE_CHECK(cfg_.network_base >= 0.0 && cfg_.network_jitter >= 0.0);
  FEDTUNE_CHECK(cfg_.dropout_prob >= 0.0 && cfg_.dropout_prob < 1.0);
  for (double s : cfg_.tier_slowdowns) FEDTUNE_CHECK(s > 0.0);
}

std::size_t LatencyModel::tier_of(std::size_t client_id) const {
  if (cfg_.tier_slowdowns.size() == 1) return 0;
  Rng tier_rng = rng_.split(salts::kLatencyTier).split(client_id);
  return tier_rng.categorical(cfg_.tier_weights);
}

LatencyDraw LatencyModel::draw(std::size_t client_id, std::uint64_t work_key,
                               std::size_t num_examples) const {
  Rng r = rng_.split(salts::kLatencyDraw).split(client_id).split(work_key);
  LatencyDraw d;
  // Fixed draw order (dropout, compute, network) so every field is
  // reproducible even if callers only consume some of them.
  d.dropped = cfg_.dropout_prob > 0.0 && r.uniform() < cfg_.dropout_prob;
  double compute = 0.0;
  switch (cfg_.kind) {
    case LatencyKind::kLognormal:
      // A standard normal scaled by hand: std::normal_distribution requires
      // sigma > 0, and sigma = 0 (no compute spread) is a valid config. It
      // consumes the same engine draws and yields the same values as
      // normal(mean, sigma) for sigma > 0.
      compute = std::exp(r.normal() * cfg_.lognormal_sigma +
                         cfg_.lognormal_log_mean);
      break;
    case LatencyKind::kShiftedExponential:
      compute = cfg_.shifted_exp_shift +
                r.exponential(cfg_.shifted_exp_rate);
      break;
  }
  compute *= cfg_.tier_slowdowns[tier_of(client_id)];
  if (cfg_.examples_per_unit > 0.0) {
    compute *= static_cast<double>(num_examples) / cfg_.examples_per_unit;
  }
  d.compute_seconds = compute;
  d.network_seconds = cfg_.network_base;
  if (cfg_.network_jitter > 0.0) {
    d.network_seconds += r.uniform(0.0, cfg_.network_jitter);
  }
  return d;
}

}  // namespace fedtune::runtime

#include "core/rank_fidelity.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/noisy_evaluator.hpp"

namespace fedtune::core {

RankFidelity measure_rank_fidelity(const PoolEvalView& view,
                                   const NoiseModel& noise,
                                   std::size_t trials, Rng& rng) {
  FEDTUNE_CHECK(trials > 0);
  const std::size_t n = view.num_configs();
  const std::size_t ck = view.final_checkpoint();

  std::vector<double> full(n);
  for (std::size_t c = 0; c < n; ++c) {
    full[c] = view.full_error(c, ck, noise.effective_weighting());
  }
  const std::size_t true_best = static_cast<std::size_t>(
      std::min_element(full.begin(), full.end()) - full.begin());

  // Trials fan out over the global pool; each keeps its own values and the
  // sums run afterwards in trial order, so the means are bitwise serial.
  const std::vector<RankFidelity> per_trial =
      parallel_map(trials, [&](std::size_t t) {
        NoisyEvaluator evaluator(noise, view.client_weights(), n, rng.split(t));
        std::vector<double> noisy(n);
        for (std::size_t c = 0; c < n; ++c) {
          noisy[c] = evaluator.evaluate(view.errors_f64(c, ck));
        }
        const std::size_t picked = static_cast<std::size_t>(
            std::min_element(noisy.begin(), noisy.end()) - noisy.begin());
        return RankFidelity{stats::spearman(noisy, full),
                            stats::kendall_tau(noisy, full),
                            picked == true_best ? 1.0 : 0.0};
      });
  double spearman_sum = 0.0, kendall_sum = 0.0, hits = 0.0;
  for (const RankFidelity& r : per_trial) {
    spearman_sum += r.spearman;
    kendall_sum += r.kendall;
    hits += r.top1_hit_rate;
  }

  RankFidelity result;
  result.spearman = spearman_sum / static_cast<double>(trials);
  result.kendall = kendall_sum / static_cast<double>(trials);
  result.top1_hit_rate = hits / static_cast<double>(trials);
  return result;
}

}  // namespace fedtune::core

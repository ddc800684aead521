// Implementations of the subsampling / heterogeneity / privacy sweeps
// (Figures 3, 4, 5, 6, 9) and the noise-centric extension ablations.
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/rank_fidelity.hpp"
#include "hpo/random_search.hpp"
#include "sim/curve_utils.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"

namespace fedtune::sim {

namespace {

std::string pct_label(std::size_t count, std::size_t total) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(2)
      << 100.0 * static_cast<double>(count) / static_cast<double>(total) << "%";
  return oss.str();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string eps_label(double eps) {
  if (eps == kInf) return "inf";
  std::ostringstream oss;
  oss << eps;
  return oss.str();
}

}  // namespace

double repeated_evaluation_trial(const core::PoolEvalView& view,
                                 const core::NoiseModel& noise,
                                 std::size_t rs_configs, std::size_t reevals,
                                 Rng trial_rng) {
  // Manual RS loop: each config is evaluated `reevals` times and the noisy
  // scores averaged; under DP the per-eval budget shrinks to
  // eps / (K * reevals), so averaging fights a losing battle against the
  // growing noise scale — the point of this ablation.
  core::NoisyEvaluator evaluator(noise, view.client_weights(),
                                 rs_configs * reevals, trial_rng.split(1));
  const std::size_t ck = view.final_checkpoint();
  double best_noisy = std::numeric_limits<double>::infinity();
  double best_full = 1.0;
  for (std::size_t j = 0; j < rs_configs; ++j) {
    const auto c = static_cast<std::size_t>(trial_rng.uniform_int(
        0, static_cast<std::int64_t>(view.num_configs()) - 1));
    const std::vector<double> errors = view.errors_f64(c, ck);
    double score = 0.0;
    for (std::size_t r = 0; r < reevals; ++r) {
      score += evaluator.evaluate(errors);
    }
    score /= static_cast<double>(reevals);
    if (score < best_noisy) {
      best_noisy = score;
      best_full = evaluator.full_error(errors);
    }
  }
  return best_full;
}

stats::QuartileSummary bootstrap_random_search(
    const std::vector<hpo::Config>& configs, const core::PoolEvalView& view,
    const core::NoiseModel& noise, const BootstrapOptions& opts) {
  FEDTUNE_CHECK(opts.trials > 0);
  const Rng rng(opts.seed);
  const std::vector<double> best_errors =
      parallel_map(opts.trials, [&](std::size_t t) {
        return run_pool_method(Method::kRandomSearch, configs, view, noise,
                               opts.rs_configs, rng.split(t).seed())
            .best_full_error;
      });
  return stats::quartiles(best_errors);
}

Table fig3_subsampling(data::BenchmarkId id, const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  const std::size_t n = view.num_clients();

  Table table({"dataset", "eval_clients", "pct", "err_q25", "err_median",
               "err_q75"});
  for (std::size_t s : data::subsample_grid(id)) {
    core::NoiseModel noise;
    noise.eval_clients = s;
    const stats::QuartileSummary q =
        bootstrap_random_search(pool.configs(), view, noise, opts);
    table.add_row({data::benchmark_name(id), std::to_string(s),
                   pct_label(s, n), Table::format(100.0 * q.q25),
                   Table::format(100.0 * q.median),
                   Table::format(100.0 * q.q75)});
  }
  // "Best HPs": the best achievable full-eval error in the pool.
  const double best =
      view.best_full_error(fl::Weighting::kByExampleCount);
  table.add_row({data::benchmark_name(id), "best_hps", "-",
                 Table::format(100.0 * best), Table::format(100.0 * best),
                 Table::format(100.0 * best)});
  return table;
}

Table fig4_data_heterogeneity(data::BenchmarkId id,
                              const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);

  Table table({"dataset", "iid_fraction_p", "eval_clients", "err_q25",
               "err_median", "err_q75"});
  for (double p : {0.0, 0.5, 1.0}) {
    const core::PoolEvalView& view = hub.iid_view(id, p);
    for (std::size_t s : data::subsample_grid(id)) {
      core::NoiseModel noise;
      noise.eval_clients = s;
      const stats::QuartileSummary q =
          bootstrap_random_search(pool.configs(), view, noise, opts);
      table.add_row({data::benchmark_name(id), Table::format(p, 1),
                     std::to_string(s), Table::format(100.0 * q.q25),
                     Table::format(100.0 * q.median),
                     Table::format(100.0 * q.q75)});
    }
  }
  return table;
}

Table fig5_budget_tradeoff(data::BenchmarkId id, const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  const std::size_t rounds_per_config = view.checkpoints().back();
  const std::size_t total = opts.rs_configs * rounds_per_config;

  // Three subsampling levels: 1 client, a small handful, full evaluation.
  const std::vector<std::size_t> grid_counts = data::subsample_grid(id);
  const std::vector<std::size_t> levels = {grid_counts.front(), grid_counts[1],
                                           view.num_clients()};

  Table table({"dataset", "eval_clients", "rounds", "err_q25", "err_median",
               "err_q75"});
  const Rng rng(opts.seed);
  for (std::size_t s : levels) {
    core::NoiseModel noise;
    noise.eval_clients = s;
    const std::vector<std::vector<core::CurvePoint>> curves =
        parallel_map(opts.trials, [&](std::size_t t) {
          return run_pool_method(Method::kRandomSearch, pool.configs(), view,
                                 noise, opts.rs_configs, rng.split(t).seed())
              .incumbent_curve;
        });
    const AggregatedCurve agg = aggregate_curves(
        curves, budget_grid(total, opts.rs_configs));
    for (std::size_t g = 0; g < agg.grid.size(); ++g) {
      table.add_row({data::benchmark_name(id), std::to_string(s),
                     std::to_string(agg.grid[g]),
                     Table::format(100.0 * agg.summary[g].q25),
                     Table::format(100.0 * agg.summary[g].median),
                     Table::format(100.0 * agg.summary[g].q75)});
    }
  }
  return table;
}

Table fig6_systems_heterogeneity(data::BenchmarkId id,
                                 const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();

  Table table({"dataset", "bias_b", "eval_clients", "err_q25", "err_median",
               "err_q75"});
  for (double b : {0.0, 1.0, 1.5, 3.0}) {
    for (std::size_t s : data::subsample_grid(id)) {
      core::NoiseModel noise;
      noise.eval_clients = s;
      noise.bias_b = b;
      const stats::QuartileSummary q =
          bootstrap_random_search(pool.configs(), view, noise, opts);
      table.add_row({data::benchmark_name(id), Table::format(b, 1),
                     std::to_string(s), Table::format(100.0 * q.q25),
                     Table::format(100.0 * q.median),
                     Table::format(100.0 * q.q75)});
    }
  }
  return table;
}

Table fig9_privacy(data::BenchmarkId id, const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();

  Table table({"dataset", "epsilon", "eval_clients", "err_q25", "err_median",
               "err_q75"});
  for (double eps : {0.1, 1.0, 10.0, 100.0, kInf}) {
    for (std::size_t s : data::subsample_grid(id)) {
      core::NoiseModel noise;
      noise.eval_clients = s;
      noise.epsilon = eps;
      // Uniform weighting throughout (the DP sensitivity bound; footnote 1).
      noise.weighting = fl::Weighting::kUniform;
      const stats::QuartileSummary q =
          bootstrap_random_search(pool.configs(), view, noise, opts);
      table.add_row({data::benchmark_name(id), eps_label(eps),
                     std::to_string(s), Table::format(100.0 * q.q25),
                     Table::format(100.0 * q.median),
                     Table::format(100.0 * q.q75)});
    }
  }
  return table;
}

Table ablation_rank_fidelity(data::BenchmarkId id, std::size_t trials,
                             std::uint64_t seed) {
  PoolHub& hub = PoolHub::instance();
  const core::PoolEvalView& view = hub.view(id);
  Rng rng(seed);

  Table table({"dataset", "eval_clients", "epsilon", "spearman", "kendall",
               "top1_hit_rate"});
  for (std::size_t s : data::subsample_grid(id)) {
    for (double eps : {kInf, 10.0, 1.0}) {
      core::NoiseModel noise;
      noise.eval_clients = s;
      noise.epsilon = eps;
      if (noise.is_private()) noise.weighting = fl::Weighting::kUniform;
      Rng trial_rng = rng.split(s * 1000 + static_cast<std::uint64_t>(
          eps == kInf ? 0 : eps));
      const core::RankFidelity rf =
          core::measure_rank_fidelity(view, noise, trials, trial_rng);
      table.add_row({data::benchmark_name(id), std::to_string(s),
                     eps_label(eps), Table::format(rf.spearman),
                     Table::format(rf.kendall),
                     Table::format(rf.top1_hit_rate)});
    }
  }
  return table;
}

Table ablation_repeated_evaluation(data::BenchmarkId id,
                                   const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  const std::size_t one_client = 1;

  Table table({"dataset", "epsilon", "reevals", "err_q25", "err_median",
               "err_q75"});
  const Rng rng(opts.seed);
  for (double eps : {kInf, 10.0}) {
    for (std::size_t reevals : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
      core::NoiseModel noise;
      noise.eval_clients = one_client;
      noise.epsilon = eps;
      if (noise.is_private()) noise.weighting = fl::Weighting::kUniform;
      const std::vector<double> best_errors =
          parallel_map(opts.trials, [&](std::size_t t) {
            return repeated_evaluation_trial(
                view, noise, opts.rs_configs, reevals,
                rng.split(t * 100 + reevals + (eps == kInf ? 0 : 7777)));
          });
      const stats::QuartileSummary q = stats::quartiles(best_errors);
      table.add_row({data::benchmark_name(id), eps_label(eps),
                     std::to_string(reevals), Table::format(100.0 * q.q25),
                     Table::format(100.0 * q.median),
                     Table::format(100.0 * q.q75)});
    }
  }
  return table;
}

}  // namespace fedtune::sim

// Method-comparison experiments: Fig. 8 (online curves) and the bar figures
// (Fig. 1 at 1/3 budget on CIFAR10-like, Figs. 15/16 across datasets).
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/proxy.hpp"
#include "sim/curve_utils.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"

namespace fedtune::sim {

namespace {

// The paper's "noisy" setting for method comparisons: 1% of eval clients
// subsampled, eps = 100 evaluation privacy.
core::NoiseModel noisy_setting(const core::PoolEvalView& view) {
  core::NoiseModel noise;
  noise.eval_clients = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(0.01 * static_cast<double>(view.num_clients()))));
  noise.epsilon = 100.0;
  noise.weighting = fl::Weighting::kUniform;
  return noise;
}

core::NoiseModel noiseless_setting() {
  core::NoiseModel noise;  // full eval, no DP
  return noise;
}

}  // namespace

Table fig8_methods_online(data::BenchmarkId id, std::size_t trials,
                          std::uint64_t seed) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  constexpr std::size_t kRsConfigs = 16;
  const std::vector<Method> methods = all_methods();
  const core::NoiseModel settings[2] = {noiseless_setting(),
                                        noisy_setting(view)};
  const Rng rng(seed);

  // One work item per (method, setting, trial), in row order. Paired
  // trials: the noiseless and noisy runs of trial t share a seed (same
  // configuration draws; only the evaluation noise differs).
  const std::vector<std::vector<core::CurvePoint>> curves =
      parallel_map(methods.size() * 2 * trials, [&](std::size_t i) {
        const Method method = methods[i / (2 * trials)];
        const std::size_t t = i % trials;
        return run_pool_method(
                   method, pool.configs(), view, settings[i / trials % 2],
                   kRsConfigs,
                   rng.split(t * 31 + static_cast<std::size_t>(method) * 7)
                       .seed())
            .incumbent_curve;
      });

  Table table({"dataset", "method", "setting", "rounds", "err_q25",
               "err_median", "err_q75"});
  for (std::size_t m = 0; m < methods.size(); ++m) {
    const std::size_t total = method_total_rounds(methods[m], view, kRsConfigs);
    for (std::size_t noisy = 0; noisy < 2; ++noisy) {
      const AggregatedCurve agg = aggregate_curves(
          std::span(curves).subspan((2 * m + noisy) * trials, trials),
          budget_grid(total, 16));
      for (std::size_t g = 0; g < agg.grid.size(); ++g) {
        table.add_row({data::benchmark_name(id), method_name(methods[m]),
                       noisy ? "noisy" : "noiseless",
                       std::to_string(agg.grid[g]),
                       Table::format(100.0 * agg.summary[g].q25),
                       Table::format(100.0 * agg.summary[g].median),
                       Table::format(100.0 * agg.summary[g].q75)});
      }
    }
  }
  return table;
}

Table fig_method_bars(double budget_fraction, std::size_t trials,
                      std::uint64_t seed) {
  FEDTUNE_CHECK(budget_fraction > 0.0 && budget_fraction <= 1.0);
  constexpr std::size_t kRsConfigs = 16;
  const std::vector<data::BenchmarkId> ids = data::all_benchmarks();
  const std::vector<Method> methods = all_methods();
  const Rng rng(seed);

  // Every pool is resolved before the fan-out (PoolHub may load or build).
  PoolHub& hub = PoolHub::instance();
  std::vector<const core::ConfigPool*> pools;
  for (data::BenchmarkId id : ids) pools.push_back(&hub.pool(id));

  // One work item per (dataset, method, setting, trial), in row order.
  // Paired seeds across the noiseless/noisy settings (see Fig. 8).
  const std::size_t per_dataset = methods.size() * 2 * trials;
  const std::vector<double> errors =
      parallel_map(ids.size() * per_dataset, [&](std::size_t i) {
        const std::size_t d = i / per_dataset;
        const Method method = methods[i % per_dataset / (2 * trials)];
        const bool noisy = i / trials % 2 == 1;
        const std::size_t t = i % trials;
        const core::PoolEvalView& view = pools[d]->view();
        const std::size_t total = method_total_rounds(method, view, kRsConfigs);
        const auto cut = static_cast<std::size_t>(
            std::llround(budget_fraction * static_cast<double>(total)));
        const core::TuneResult result = run_pool_method(
            method, pools[d]->configs(), view,
            noisy ? noisy_setting(view) : noiseless_setting(), kRsConfigs,
            rng.split(t * 53 + static_cast<std::size_t>(method) * 11 +
                      static_cast<std::size_t>(ids[d]) * 101)
                .seed());
        return curve_value_at(result.incumbent_curve, cut);
      });

  // Fig. 1 adds a proxy-RS reference bar: immune to evaluation noise.
  // Proxy = the other dataset of the same task family.
  const auto proxy_of = [](data::BenchmarkId id) {
    return (id == data::BenchmarkId::kCifar10Like)
               ? data::BenchmarkId::kFemnistLike
           : (id == data::BenchmarkId::kFemnistLike)
               ? data::BenchmarkId::kCifar10Like
           : (id == data::BenchmarkId::kStackOverflowLike)
               ? data::BenchmarkId::kRedditLike
               : data::BenchmarkId::kStackOverflowLike;
  };
  std::vector<const core::PoolEvalView*> proxy_views;
  for (data::BenchmarkId id : ids) proxy_views.push_back(&hub.view(proxy_of(id)));
  const std::vector<double> proxy_errors =
      parallel_map(ids.size() * trials, [&](std::size_t i) {
        const std::size_t d = i / trials;
        Rng trial_rng =
            rng.split(static_cast<std::size_t>(ids[d]) * 997 + 13).split(i % trials);
        return core::one_shot_proxy_rs(*proxy_views[d], pools[d]->view(),
                                       kRsConfigs, trial_rng)
            .client_full_error;
      });

  Table table({"dataset", "method", "setting", "err_q25", "err_median",
               "err_q75"});
  const auto add_row = [&](data::BenchmarkId id, const std::string& method,
                           const char* setting, std::span<const double> bar) {
    const stats::QuartileSummary q = stats::quartiles(bar);
    table.add_row({data::benchmark_name(id), method, setting,
                   Table::format(100.0 * q.q25),
                   Table::format(100.0 * q.median),
                   Table::format(100.0 * q.q75)});
  };
  for (std::size_t d = 0; d < ids.size(); ++d) {
    for (std::size_t m = 0; m < methods.size(); ++m) {
      for (std::size_t noisy = 0; noisy < 2; ++noisy) {
        add_row(ids[d], method_name(methods[m]),
                noisy ? "noisy" : "noiseless",
                std::span(errors).subspan(
                    d * per_dataset + (2 * m + noisy) * trials, trials));
      }
    }
    add_row(ids[d], "RS(proxy)", "noisy-immune",
            std::span(proxy_errors).subspan(d * trials, trials));
  }
  return table;
}

}  // namespace fedtune::sim

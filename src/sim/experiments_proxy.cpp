// Proxy-data experiments (§4): Fig. 7 (per-client pathology scatter),
// Fig. 10/14 (HP transfer), Fig. 11 (one-shot proxy grid), Fig. 12 (proxy vs
// private evaluation curves).
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "common/stats.hpp"
#include "core/proxy.hpp"
#include "sim/curve_utils.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"

namespace fedtune::sim {

Table fig7_min_client_error(data::BenchmarkId id) {
  PoolHub& hub = PoolHub::instance();
  const core::PoolEvalView& view = hub.view(id);
  const std::size_t ck = view.final_checkpoint();

  Table table({"dataset", "config", "full_error", "min_client_error"});
  for (std::size_t c = 0; c < view.num_configs(); ++c) {
    table.add_row(
        {data::benchmark_name(id), std::to_string(c),
         Table::format(100.0 * view.full_error(
                                   c, ck, fl::Weighting::kByExampleCount)),
         Table::format(100.0 * view.min_client_error(c, ck))});
  }
  return table;
}

Table fig10_transfer_scatter(data::BenchmarkId a, data::BenchmarkId b) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool_a = hub.pool(a);
  const core::ConfigPool& pool_b = hub.pool(b);
  FEDTUNE_CHECK_MSG(pool_a.configs().size() == pool_b.configs().size(),
                    "pools must share the config list");
  const core::PoolEvalView& va = pool_a.view();
  const core::PoolEvalView& vb = pool_b.view();

  Table table({"config", "err_" + data::benchmark_name(a),
               "err_" + data::benchmark_name(b)});
  std::vector<double> xs, ys;
  for (std::size_t c = 0; c < va.num_configs(); ++c) {
    const double ea = va.full_error(c, va.final_checkpoint(),
                                    fl::Weighting::kByExampleCount);
    const double eb = vb.full_error(c, vb.final_checkpoint(),
                                    fl::Weighting::kByExampleCount);
    xs.push_back(ea);
    ys.push_back(eb);
    table.add_row({std::to_string(c), Table::format(100.0 * ea),
                   Table::format(100.0 * eb)});
  }
  table.add_row({"pearson", Table::format(stats::pearson(xs, ys)),
                 Table::format(stats::spearman(xs, ys))});
  return table;
}

Table fig11_proxy_grid(const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();

  Table table({"proxy", "client", "err_q25", "err_median", "err_q75"});
  const Rng rng(opts.seed);
  for (data::BenchmarkId proxy : data::all_benchmarks()) {
    const core::PoolEvalView& proxy_view = hub.view(proxy);
    for (data::BenchmarkId client : data::all_benchmarks()) {
      const core::PoolEvalView& client_view = hub.view(client);
      const std::vector<double> errors =
          parallel_map(opts.trials, [&](std::size_t t) {
            Rng trial_rng =
                rng.split(t * 17 + static_cast<std::size_t>(proxy) * 3 +
                          static_cast<std::size_t>(client) * 29);
            return core::one_shot_proxy_rs(proxy_view, client_view,
                                           opts.rs_configs, trial_rng)
                .client_full_error;
          });
      const stats::QuartileSummary q = stats::quartiles(errors);
      table.add_row({data::benchmark_name(proxy), data::benchmark_name(client),
                     Table::format(100.0 * q.q25),
                     Table::format(100.0 * q.median),
                     Table::format(100.0 * q.q75)});
    }
  }
  return table;
}

Table fig12_proxy_vs_private(data::BenchmarkId id,
                             const BootstrapOptions& opts) {
  PoolHub& hub = PoolHub::instance();
  const core::ConfigPool& pool = hub.pool(id);
  const core::PoolEvalView& view = pool.view();
  const std::size_t rounds_per_config = view.checkpoints().back();
  const std::size_t total = opts.rs_configs * rounds_per_config;
  const std::vector<std::size_t> grid = budget_grid(total, opts.rs_configs);

  Table table({"dataset", "series", "rounds", "err_q25", "err_median",
               "err_q75"});
  const Rng rng(opts.seed);

  // Noisy-evaluation RS: 1% subsample, eps in {1, 10, inf}.
  const std::size_t one_pct = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(0.01 * static_cast<double>(view.num_clients()))));
  for (double eps : {1.0, 10.0, std::numeric_limits<double>::infinity()}) {
    core::NoiseModel noise;
    noise.eval_clients = one_pct;
    noise.epsilon = eps;
    noise.weighting = fl::Weighting::kUniform;
    const std::size_t salt =
        (std::isinf(eps) ? 0 : static_cast<std::size_t>(eps)) * 131;
    const std::vector<std::vector<core::CurvePoint>> curves =
        parallel_map(opts.trials, [&](std::size_t t) {
          return run_pool_method(Method::kRandomSearch, pool.configs(), view,
                                 noise, opts.rs_configs,
                                 rng.split(t + salt).seed())
              .incumbent_curve;
        });
    const AggregatedCurve agg = aggregate_curves(curves, grid);
    std::string label = std::isinf(eps)
                            ? std::string("rs_eps=inf")
                            : "rs_eps=" + Table::format(eps, 0);
    for (std::size_t g = 0; g < agg.grid.size(); ++g) {
      table.add_row({data::benchmark_name(id), label,
                     std::to_string(agg.grid[g]),
                     Table::format(100.0 * agg.summary[g].q25),
                     Table::format(100.0 * agg.summary[g].median),
                     Table::format(100.0 * agg.summary[g].q75)});
    }
  }

  // One-shot proxy RS from every proxy dataset (including the client itself,
  // the paper's upper-bound reference).
  for (data::BenchmarkId proxy : data::all_benchmarks()) {
    const core::PoolEvalView& proxy_view = hub.view(proxy);
    const std::vector<std::vector<core::CurvePoint>> curves =
        parallel_map(opts.trials, [&](std::size_t t) {
          Rng trial_rng =
              rng.split(9000 + t * 13 + static_cast<std::size_t>(proxy));
          return core::one_shot_proxy_rs_curve(
              proxy_view, view, opts.rs_configs, rounds_per_config, trial_rng);
        });
    const AggregatedCurve agg = aggregate_curves(curves, grid);
    for (std::size_t g = 0; g < agg.grid.size(); ++g) {
      table.add_row({data::benchmark_name(id),
                     "proxy=" + data::benchmark_name(proxy),
                     std::to_string(agg.grid[g]),
                     Table::format(100.0 * agg.summary[g].q25),
                     Table::format(100.0 * agg.summary[g].median),
                     Table::format(100.0 * agg.summary[g].q75)});
    }
  }
  return table;
}

}  // namespace fedtune::sim

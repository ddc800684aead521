// figure-cold / figure-warm: paper-figure reproduction driven through the
// library's public API, exactly as the bench_fig* binaries do it, with the
// pool cache at $FEDTUNE_CACHE_DIR (run.py points it inside the checkout).
//
// Untraced runs call only the figure functions and time them as one block.
// Traced runs (--trace) additionally time each layer from the outside:
// dataset generation, per-config training (ConfigPool::build_shard fanned
// out over the global pool, then merge — bitwise identical to
// ConfigPool::build by the determinism contract, and checked by digest),
// pool save/load, sampled FedTrainer rounds and client evaluation, GEMM at
// the default models' layer shapes, per-figure time, bootstrap RS, and
// TuningSession ask/run/tell.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/config_pool.hpp"
#include "core/hp_mapping.hpp"
#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "data/benchmarks.hpp"
#include "fl/evaluator.hpp"
#include "fl/trainer.hpp"
#include "hpo/search_space.hpp"
#include "nn/factory.hpp"
#include "obs/metrics.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util.hpp"

namespace perfbench {

using namespace fedtune;

namespace {

std::string results_path(const Args& a, const std::string& name) {
  const std::string dir = a.need("results");
  std::filesystem::create_directories(dir);
  return dir + "/" + name + ".csv";
}

// Sum of every fedtune_evals_total series in the process-wide registry.
double evals_total() {
  std::istringstream in(obs::MetricsRegistry::global().prometheus_text());
  std::string line;
  double total = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("fedtune_evals_total", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp != std::string::npos) total += std::stod(line.substr(sp + 1));
  }
  return total;
}

// --- traced layers ---------------------------------------------------------

// GEMM throughput at the default models' dense-layer shapes (forward,
// weight-gradient and input-gradient products) for every batch size in the
// search space. Returns GFLOP/s over all shapes.
double gemm_gflops(const std::vector<const data::FederatedDataset*>& sets) {
  std::vector<std::pair<std::size_t, std::size_t>> layers;  // (in, out)
  for (const data::FederatedDataset* ds : sets) {
    if (ds->task == data::TaskKind::kClassification) {
      layers.push_back({ds->input_dim, 32});
      layers.push_back({32, 32});
      layers.push_back({32, ds->num_classes});
    } else {
      layers.push_back({16, 24});  // context 2 x embed 8 -> hidden 24
      layers.push_back({24, ds->vocab_size()});
    }
  }
  double flops = 0.0, secs = 0.0;
  for (const auto& [in, out] : layers) {
    for (const std::size_t batch : {32u, 64u, 128u}) {
      Matrix x(batch, in, 0.5f), w(in, out, 0.25f), y(batch, out);
      Matrix gy(batch, out, 0.1f), gw(in, out), gx(batch, in);
      const double per_iter = 3.0 * 2.0 * double(batch) * double(in) * double(out);
      std::size_t iters = 0;
      const double t0 = now_s();
      double t = t0;
      while (t - t0 < 0.02) {
        for (int r = 0; r < 16; ++r) {
          ops::gemm(x, w, y);
          ops::gemm_tn(x, gy, gw);
          ops::gemm_nt(gy, w, gx);
        }
        iters += 16;
        t = now_s();
      }
      flops += per_iter * double(iters);
      secs += t - t0;
    }
  }
  return flops / secs / 1e9;
}

struct ColdLayers {
  Json json;
  std::vector<double> config_train_s;
  std::vector<double> round_ms, eval_ms;
  double make_benchmark_s = 0, save_s = 0, build_cpu_s = 0, build_wall_s = 0;
  double rounds = 0;
};

// Builds one dataset's shared pool the way PoolHub does, one config per
// build_shard call so each config's training is timed, then saves it where
// PoolHub will load it.
void traced_build(data::BenchmarkId id, ColdLayers& L) {
  const std::string name = data::benchmark_name(id);
  double t = now_s();
  const data::FederatedDataset ds = data::make_benchmark(id);
  L.make_benchmark_s += now_s() - t;

  const std::unique_ptr<nn::Model> arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = sim::PoolHub::kPoolConfigs;
  opts.checkpoints = sim::PoolHub::checkpoint_grid(id);
  const hpo::SearchSpace space = hpo::appendix_b_space();

  std::vector<std::unique_ptr<core::ConfigPool>> shards(opts.num_configs);
  std::vector<double> secs(opts.num_configs);
  const double cpu0 = process_cpu_s();
  t = now_s();
  ThreadPool::global().parallel_for(opts.num_configs, [&](std::size_t c) {
    const double c0 = now_s();
    shards[c] = std::make_unique<core::ConfigPool>(
        core::ConfigPool::build_shard(ds, *arch, space, opts, c, c + 1));
    secs[c] = now_s() - c0;
  });
  std::vector<core::ConfigPool> parts;
  parts.reserve(shards.size());
  for (auto& s : shards) parts.push_back(std::move(*s));
  const core::ConfigPool pool = core::ConfigPool::merge(parts);
  const double build_s = now_s() - t;
  L.build_wall_s += build_s;
  L.build_cpu_s += process_cpu_s() - cpu0;
  L.json.num("core.pool_build_s." + name, build_s);
  L.config_train_s.insert(L.config_train_s.end(), secs.begin(), secs.end());
  L.rounds += double(opts.num_configs * opts.checkpoints.back());

  t = now_s();
  pool.save(sim::PoolHub::instance().cache_dir() + "/" + name + ".pool");
  L.save_s += now_s() - t;

  // Sampled FL layer timings: two configs, serial, first grid rounds.
  for (const std::size_t c : {std::size_t{0}, opts.num_configs / 2}) {
    fl::TrainerConfig tc;
    tc.client_threads = 1;
    fl::FedTrainer trainer(ds, *arch, core::to_fed_hyperparams(pool.configs()[c]),
                           tc, Rng(opts.train_seed).split(c));
    for (int r = 0; r < 9; ++r) {
      const double r0 = now_s();
      trainer.run_round();
      L.round_ms.push_back(1e3 * (now_s() - r0));
    }
    for (int e = 0; e < 3; ++e) {
      const double e0 = now_s();
      fl::all_client_errors(trainer.model(), ds.eval_clients, 1);
      L.eval_ms.push_back(1e3 * (now_s() - e0));
    }
  }
}

}  // namespace

// Fig. 3 from an empty pool cache: four 128-config pool builds, then the
// subsampling bootstrap. Run again over the filled cache it is the warm
// rerun whose CSVs must match byte for byte.
int cmd_figure_cold(const Args& a) {
  sim::BootstrapOptions bopts;
  bopts.seed = a.u64("seed", 42);
  const bool trace = a.has("trace");
  sim::PoolHub::instance();
  ThreadPool::global();
  announce_ready();
  if (a.has("ready-only")) return 0;

  ColdLayers L;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  if (trace) {
    for (const data::BenchmarkId id : data::all_benchmarks()) traced_build(id, L);
  }
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    sim::fig3_subsampling(id, bopts)
        .write_csv(results_path(a, "fig3_subsampling_" + data::benchmark_name(id)));
  }
  Json out;
  out.num("wall_s", now_s() - t0).num("cpu_s", process_cpu_s() - cpu0);
  if (trace) {
    std::vector<const data::FederatedDataset*> sets;
    for (const data::BenchmarkId id : data::all_benchmarks()) {
      sets.push_back(&sim::PoolHub::instance().dataset(id));
    }
    L.json.num("data.make_benchmark_s", L.make_benchmark_s)
        .num("core.pool_save_s", L.save_s)
        .num("fl.rounds", L.rounds)
        .num("common.thread_busy_ratio",
             L.build_cpu_s / (L.build_wall_s * double(ThreadPool::global().size())))
        .num("tensor.gemm_gflops", gemm_gflops(sets));
    out.obj("layers", L.json);
    SampleMap s;
    s["core.config_train_s"] = L.config_train_s;
    s["fl.round_ms"] = L.round_ms;
    s["fl.eval_ms"] = L.eval_ms;
    out.obj("samples", samples_json(s));
  }
  out.write(a.need("out"));
  return 0;
}

// Figs. 1, 6, 8, 9 and 16 from cached pools. Set-up is loading the four
// pools; the figures are single-threaded simulation over them.
int cmd_figure_warm(const Args& a) {
  const std::uint64_t seed = a.u64("seed", 42);
  const bool trace = a.has("trace");
  sim::PoolHub& hub = sim::PoolHub::instance();
  for (const data::BenchmarkId id : data::all_benchmarks()) hub.pool(id);
  announce_ready();
  if (a.has("ready-only")) return 0;

  sim::BootstrapOptions bopts;
  bopts.seed = seed;
  Json layers;
  SampleMap samples;
  const double evals0 = evals_total();
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  double t = t0;
  auto lap = [&](const std::string& fig) {
    const double n = now_s();
    if (trace) layers.num("sim.fig_s." + fig, n - t);
    t = n;
  };
  sim::fig_method_bars(1.0 / 3.0, 16, seed)
      .write_csv(results_path(a, "fig1_fig15_method_bars_third_budget"));
  lap("fig1");
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    sim::fig6_systems_heterogeneity(id, bopts)
        .write_csv(results_path(a, "fig6_systems_het_" + data::benchmark_name(id)));
  }
  lap("fig6");
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    sim::fig8_methods_online(id, 8, seed)
        .write_csv(results_path(a, "fig8_methods_" + data::benchmark_name(id)));
  }
  lap("fig8");
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    sim::fig9_privacy(id, bopts)
        .write_csv(results_path(a, "fig9_privacy_" + data::benchmark_name(id)));
  }
  lap("fig9");
  sim::fig_method_bars(1.0, 16, seed)
      .write_csv(results_path(a, "fig16_method_bars_full_budget"));
  lap("fig16");
  Json out;
  out.num("wall_s", now_s() - t0).num("cpu_s", process_cpu_s() - cpu0);

  if (trace) {
    layers.num("core.evals", evals_total() - evals0);
    double load_s = 0.0, boot_s = 0.0;
    for (const data::BenchmarkId id : data::all_benchmarks()) {
      const std::string path =
          hub.cache_dir() + "/" + data::benchmark_name(id) + ".pool";
      double l0 = now_s();
      if (!core::ConfigPool::load(path)) throw std::runtime_error("load " + path);
      load_s += now_s() - l0;

      const core::ConfigPool& pool = hub.pool(id);
      const core::PoolEvalView& view = pool.view();
      core::NoiseModel noise;
      noise.eval_clients = std::max<std::size_t>(1, view.num_clients() / 100);
      l0 = now_s();
      sim::bootstrap_random_search(pool.configs(), view, noise, bopts);
      boot_s += now_s() - l0;

      // TuningSession steps, every method: managed ask + run_outstanding,
      // and external-mode tell with the trial's ground-truth error.
      for (const sim::Method m : sim::all_methods()) {
        auto tuner = sim::make_pool_tuner(m, pool.configs(), view, 16, Rng(seed));
        core::PoolTrialRunner runner(view);
        core::DriverOptions dopts;
        dopts.noise = noise;
        dopts.dp_style = sim::dp_style_for(m);
        dopts.seed = seed;
        core::TuningSession managed(*tuner, runner, dopts, true);
        while (true) {
          double s0 = now_s();
          const auto trial = managed.ask();
          samples["hpo.ask_us"].push_back(1e6 * (now_s() - s0));
          if (!trial) break;
          s0 = now_s();
          managed.run_outstanding();
          samples["core.run_trial_us"].push_back(1e6 * (now_s() - s0));
        }
        auto ext_tuner = sim::make_pool_tuner(m, pool.configs(), view, 16, Rng(seed));
        core::TuningSession external(*ext_tuner, dopts);
        while (const auto trial = external.ask()) {
          const double obj = view.full_error(
              trial->config_index, view.checkpoint_index(trial->target_rounds),
              noise.effective_weighting());
          const double s0 = now_s();
          external.tell_outstanding(obj);
          samples["hpo.tell_us"].push_back(1e6 * (now_s() - s0));
        }
      }
    }
    layers.num("core.pool_load_s", load_s).num("sim.bootstrap_s", boot_s);
    out.obj("layers", layers);
    out.obj("samples", samples_json(samples));
  }
  out.write(a.need("out"));
  return 0;
}

}  // namespace perfbench

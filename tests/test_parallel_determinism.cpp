// Determinism regression tests for the parallel training substrate and the
// pool-simulation layer.
//
// The contract (src/README.md): every (round, client) RNG stream is derived
// by splitting, all reductions run in a fixed order, and work-to-output
// mappings never depend on the schedule — so any thread count must produce
// bitwise-identical results, and PoolEvalView caches stay byte-compatible
// across machines with different core counts. Simulation trials fan out
// over the global pool under the same rules: trial i's stream is keyed by
// i and results are aggregated in index order.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "common/thread_pool.hpp"
#include "core/config_pool.hpp"
#include "core/rank_fidelity.hpp"
#include "fl/trainer.hpp"
#include "nn/factory.hpp"
#include "obs/metrics.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "test_util.hpp"

namespace fedtune {
namespace {

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ParallelDeterminism, SerialAndParallelTrainerBitwiseIdentical) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  hps.batch_size = 16;

  fl::TrainerConfig serial_cfg;
  serial_cfg.client_threads = 1;
  fl::TrainerConfig parallel_cfg;
  parallel_cfg.client_threads = 0;  // shared pool

  fl::FedTrainer serial(ds, *arch, hps, serial_cfg, Rng(77));
  fl::FedTrainer parallel(ds, *arch, hps, parallel_cfg, Rng(77));
  serial.run_rounds(6);
  parallel.run_rounds(6);

  const auto ps = serial.model().params();
  const auto pp = parallel.model().params();
  ASSERT_EQ(ps.size(), pp.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    // Bitwise: no tolerance.
    ASSERT_EQ(ps[i], pp[i]) << "param " << i;
  }
}

TEST(ParallelDeterminism, PoolBuildThreadCountInvariantBytes) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = 4;
  opts.checkpoints = {1, 3};
  opts.trainer.clients_per_round = 5;
  opts.store_params = false;

  opts.num_threads = 1;
  const core::ConfigPool one =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);
  opts.num_threads = 4;
  const core::ConfigPool four =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);

  const std::string path_one = "/tmp/fedtune_det_view_1.bin";
  const std::string path_four = "/tmp/fedtune_det_view_4.bin";
  one.view().save(path_one);
  four.view().save(path_four);
  EXPECT_EQ(read_bytes(path_one), read_bytes(path_four));
  std::filesystem::remove(path_one);
  std::filesystem::remove(path_four);
}

TEST(ParallelDeterminism, EvaluateOnThreadCountInvariant) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = 3;
  opts.checkpoints = {1, 3};
  opts.trainer.clients_per_round = 5;
  opts.num_threads = 2;
  const core::ConfigPool pool =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);

  const core::PoolEvalView a =
      pool.evaluate_on(*arch, ds.eval_clients, {}, /*num_threads=*/1);
  const core::PoolEvalView b =
      pool.evaluate_on(*arch, ds.eval_clients, {}, /*num_threads=*/4);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t ck = 0; ck < 2; ++ck) {
      const auto ea = a.errors(c, ck);
      const auto eb = b.errors(c, ck);
      for (std::size_t k = 0; k < ea.size(); ++k) {
        ASSERT_EQ(ea[k], eb[k]) << "config " << c << " ckpt " << ck;
      }
    }
  }
}

// --- pool simulation: serial == parallel ----------------------------------

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Sum of every fedtune_evals_total series in the process-wide registry.
double evals_total() {
  std::istringstream in(obs::MetricsRegistry::global().prometheus_text());
  std::string line;
  double total = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind("fedtune_evals_total", 0) != 0) continue;
    total += std::stod(line.substr(line.rfind(' ') + 1));
  }
  return total;
}

// Runs `fn` twice — once on the global pool, once with every fan-out below
// it inline (from inside a real batch of a private two-worker pool, where
// the nesting contract serializes nested parallel_for calls) — and checks
// the two hex-float renderings and evaluation-counter deltas are equal.
template <class Fn>
void expect_parallel_equals_serial(Fn fn) {
  double evals0 = evals_total();
  const std::string parallel = fn();
  const double parallel_evals = evals_total() - evals0;

  std::optional<std::string> serial;
  evals0 = evals_total();
  ThreadPool outer(2);
  outer.parallel_for(2, [&](std::size_t i) {
    if (i != 0) return;
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    serial = fn();
  });
  const double serial_evals = evals_total() - evals0;

  ASSERT_TRUE(serial.has_value());
  EXPECT_FALSE(parallel.empty());
  EXPECT_EQ(parallel, *serial);
  EXPECT_GT(parallel_evals, 0.0);
  EXPECT_EQ(parallel_evals, serial_evals);
}

// Synthetic pool: 24 configs on the rung grid {1, 3, 9}, 30 clients of
// unequal weight, per-client errors drawn around a per-config level that
// improves with rounds.
struct SimParallelFixture : public ::testing::Test {
  void SetUp() override {
    const hpo::SearchSpace space = hpo::appendix_b_space();
    Rng rng(3);
    for (int i = 0; i < 24; ++i) configs.push_back(space.sample(rng));
    std::vector<double> weights(30);
    for (std::size_t k = 0; k < weights.size(); ++k) {
      weights[k] = 5.0 + static_cast<double>(k % 7);
    }
    view = core::PoolEvalView({1, 3, 9}, weights, 24);
    for (std::size_t c = 0; c < 24; ++c) {
      const double level = rng.uniform(0.1, 0.7);
      for (std::size_t ck = 0; ck < 3; ++ck) {
        for (float& e : view.errors(c, ck)) {
          e = static_cast<float>(std::clamp(
              level + 0.1 * static_cast<double>(2 - ck) + rng.normal(0.0, 0.1),
              0.0, 1.0));
        }
      }
    }
  }

  std::vector<core::NoiseModel> noise_settings() const {
    core::NoiseModel subsample;
    subsample.eval_clients = 2;
    core::NoiseModel biased = subsample;
    biased.bias_b = 1.5;
    core::NoiseModel dp = subsample;
    dp.epsilon = 10.0;
    dp.weighting = fl::Weighting::kUniform;
    return {core::NoiseModel{}, subsample, biased, dp};
  }

  std::vector<hpo::Config> configs;
  core::PoolEvalView view;
};

TEST_F(SimParallelFixture, BootstrapRandomSearchSerialEqualsParallel) {
  expect_parallel_equals_serial([&] {
    sim::BootstrapOptions opts;
    opts.rs_configs = 8;
    opts.trials = 40;
    opts.seed = 5;
    std::string out;
    for (const core::NoiseModel& noise : noise_settings()) {
      const stats::QuartileSummary q =
          sim::bootstrap_random_search(configs, view, noise, opts);
      out += hex(q.q25) + " " + hex(q.median) + " " + hex(q.q75) + "\n";
    }
    return out;
  });
}

TEST_F(SimParallelFixture, MethodSweepSerialEqualsParallel) {
  // RS/TPE/HB/BOHB, noiseless and noisy + DP, fanned out over method x
  // setting x trial like Fig. 8; every record and incumbent point counts.
  core::NoiseModel noisy;
  noisy.eval_clients = 3;
  noisy.epsilon = 100.0;
  noisy.weighting = fl::Weighting::kUniform;
  const core::NoiseModel settings[2] = {core::NoiseModel{}, noisy};
  const std::vector<sim::Method> methods = sim::all_methods();
  constexpr std::size_t kTrials = 6;
  expect_parallel_equals_serial([&] {
    const std::vector<core::TuneResult> results =
        parallel_map(methods.size() * 2 * kTrials, [&](std::size_t i) {
          return sim::run_pool_method(methods[i / (2 * kTrials)], configs,
                                      view, settings[i / kTrials % 2], 8,
                                      Rng(9).split(i % kTrials).seed());
        });
    std::string out;
    for (const core::TuneResult& r : results) {
      for (const core::TrialRecord& rec : r.records) {
        out += std::to_string(rec.trial.config_index) + ":" +
               std::to_string(rec.trial.target_rounds) + " " +
               hex(rec.noisy_objective) + " " + hex(rec.full_error) + "\n";
      }
      for (const core::CurvePoint& p : r.incumbent_curve) {
        out += std::to_string(p.rounds) + " " + hex(p.full_error) + "\n";
      }
      out += "best " + hex(r.best_full_error) + "\n";
    }
    return out;
  });
}

TEST_F(SimParallelFixture, RankFidelitySerialEqualsParallel) {
  expect_parallel_equals_serial([&] {
    std::string out;
    for (const core::NoiseModel& noise : noise_settings()) {
      Rng rng(13);
      const core::RankFidelity rf =
          core::measure_rank_fidelity(view, noise, 17, rng);
      out += hex(rf.spearman) + " " + hex(rf.kendall) + " " +
             hex(rf.top1_hit_rate) + "\n";
    }
    return out;
  });
}

TEST_F(SimParallelFixture, RepeatedEvaluationTrialsSerialEqualsParallel) {
  core::NoiseModel noise;
  noise.eval_clients = 1;
  noise.epsilon = 10.0;
  noise.weighting = fl::Weighting::kUniform;
  expect_parallel_equals_serial([&] {
    const Rng rng(21);
    const std::vector<double> best =
        parallel_map(32, [&](std::size_t t) {
          return sim::repeated_evaluation_trial(view, noise, 8, 1 + t % 4,
                                                rng.split(t));
        });
    std::string out;
    for (const double b : best) out += hex(b) + "\n";
    return out;
  });
}

}  // namespace
}  // namespace fedtune

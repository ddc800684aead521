// sim::method_runner — tuner construction, budget arithmetic, and pool-mode
// wiring for the four compared methods, over a small synthetic view.
#include "sim/method_runner.hpp"

#include <gtest/gtest.h>

#include "hpo/hyperband.hpp"

namespace fedtune::sim {
namespace {

// Synthetic pool: 12 configs, rung grid {1,3,9}, 6 clients; config c has
// uniform client error c/12 at the last rung (earlier rungs worse).
struct MethodRunnerFixture : public ::testing::Test {
  void SetUp() override {
    space = hpo::appendix_b_space();
    Rng rng(1);
    for (int i = 0; i < 12; ++i) configs.push_back(space.sample(rng));
    view = core::PoolEvalView({1, 3, 9}, std::vector<double>(6, 1.0), 12);
    for (std::size_t c = 0; c < 12; ++c) {
      for (std::size_t ck = 0; ck < 3; ++ck) {
        auto e = view.errors(c, ck);
        const float base = static_cast<float>(c) / 12.0f;
        const float fade = static_cast<float>(2 - ck) * 0.2f;
        for (auto& v : e) v = std::min(1.0f, base + fade);
      }
    }
  }

  hpo::SearchSpace space;
  std::vector<hpo::Config> configs;
  core::PoolEvalView view;
};

TEST_F(MethodRunnerFixture, MethodNamesAndList) {
  EXPECT_EQ(method_name(Method::kRandomSearch), "RS");
  EXPECT_EQ(method_name(Method::kTpe), "TPE");
  EXPECT_EQ(method_name(Method::kHyperband), "HB");
  EXPECT_EQ(method_name(Method::kBohb), "BOHB");
  EXPECT_EQ(all_methods().size(), 4u);
}

TEST_F(MethodRunnerFixture, TotalRoundsArithmetic) {
  // RS/TPE: K * R.
  EXPECT_EQ(method_total_rounds(Method::kRandomSearch, view, 16), 16u * 9u);
  EXPECT_EQ(method_total_rounds(Method::kTpe, view, 16), 16u * 9u);
  // HB: sum of bracket training rounds for eta=3, r0=1, R=9.
  std::size_t expected = 0;
  for (const auto& b : hpo::hyperband_brackets({3, 1, 9})) {
    expected += hpo::sha_schedule(b).total_training_rounds;
  }
  EXPECT_EQ(method_total_rounds(Method::kHyperband, view, 16), expected);
  EXPECT_EQ(method_total_rounds(Method::kBohb, view, 16), expected);
}

TEST_F(MethodRunnerFixture, EveryMethodRunsCleanToCompletion) {
  for (Method m : all_methods()) {
    const core::TuneResult result =
        run_pool_method(m, configs, view, core::NoiseModel{}, 8, 42);
    EXPECT_FALSE(result.records.empty()) << method_name(m);
    ASSERT_TRUE(result.best.has_value()) << method_name(m);
    // Clean full evaluation must identify a config near the true best that
    // the run actually visited at full fidelity.
    EXPECT_LE(result.best_full_error, 0.5) << method_name(m);
  }
}

TEST_F(MethodRunnerFixture, RoundsUsedMatchPlan) {
  for (Method m : all_methods()) {
    const core::TuneResult result =
        run_pool_method(m, configs, view, core::NoiseModel{}, 8, 7);
    EXPECT_EQ(result.rounds_used, method_total_rounds(m, view, 8))
        << method_name(m);
  }
}

TEST_F(MethodRunnerFixture, DeterministicPerSeed) {
  for (Method m : all_methods()) {
    const core::TuneResult a =
        run_pool_method(m, configs, view, core::NoiseModel{}, 8, 99);
    const core::TuneResult b =
        run_pool_method(m, configs, view, core::NoiseModel{}, 8, 99);
    ASSERT_EQ(a.records.size(), b.records.size()) << method_name(m);
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      EXPECT_EQ(a.records[i].trial.config_index,
                b.records[i].trial.config_index);
      EXPECT_DOUBLE_EQ(a.records[i].noisy_objective,
                       b.records[i].noisy_objective);
    }
  }
}

TEST_F(MethodRunnerFixture, DpBudgetScalesWithMethodEvaluationCount) {
  // The mechanism behind the paper's Observation 6: at the same total
  // epsilon, HB/BOHB split the budget across many more evaluations than
  // RS/TPE, so their per-evaluation Laplace scale M/(eps|S|) is much larger.
  Rng rng(3);
  const std::size_t rs_evals =
      make_pool_tuner(Method::kRandomSearch, configs, view, 8, rng.split(1))
          ->planned_evaluations();
  const std::size_t hb_evals =
      make_pool_tuner(Method::kHyperband, configs, view, 8, rng.split(2))
          ->planned_evaluations();
  EXPECT_EQ(rs_evals, 8u);
  EXPECT_GT(hb_evals, 2 * rs_evals);

  // And the realized noise (mean |reported - truth|) reflects it, allowing
  // generous slack for Laplace sampling variation.
  core::NoiseModel noise;
  noise.epsilon = 100.0;
  noise.eval_clients = 1;
  auto mean_abs_noise = [&](Method m) {
    const core::TuneResult result =
        run_pool_method(m, configs, view, noise, 8, 3);
    double total = 0.0;
    for (const auto& r : result.records) {
      total += std::abs(r.noisy_objective - r.full_error);
    }
    return total / static_cast<double>(result.records.size());
  };
  EXPECT_GT(mean_abs_noise(Method::kHyperband),
            1.2 * mean_abs_noise(Method::kRandomSearch));
}

TEST_F(MethodRunnerFixture, BorrowedPoolTrialSequencesMatchRecorded) {
  // Pool tuners borrow the config list instead of copying it; the issued
  // trial sequence must be the one recorded when each tuner held its own
  // copy. TPE and BOHB sequences also pin the model-based proposals.
  const std::vector<std::vector<std::size_t>> recorded = {
      {9, 0, 9, 7, 10, 5, 9, 2, 10, 9},
      {9, 0, 9, 7, 2, 2, 0, 0, 0, 0},
      {0, 11, 4, 2, 2, 10, 2, 3, 5, 0, 2, 2, 0, 2, 10, 1, 2, 8, 1, 8, 10, 9},
      {0, 11, 4, 2, 2, 10, 2, 3, 5, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
  };
  const std::vector<Method> methods = all_methods();
  for (std::size_t m = 0; m < methods.size(); ++m) {
    auto tuner = make_pool_tuner(methods[m], configs, view, 10, Rng(21));
    std::vector<std::size_t> issued;
    while (auto t = tuner->ask()) {
      const double objective =
          view.full_error(t->config_index,
                          view.checkpoint_index(t->target_rounds),
                          fl::Weighting::kUniform) +
          0.013 * (t->id % 5);
      tuner->tell(*t, objective);
      issued.push_back(t->config_index);
    }
    EXPECT_EQ(issued, recorded[m]) << method_name(methods[m]);
  }
}

TEST_F(MethodRunnerFixture, BohbRequiresPoolIndices) {
  // make_pool_tuner always wires the candidate pool; every issued trial must
  // carry a valid pool index for the PoolTrialRunner.
  Rng rng(5);
  for (Method m : all_methods()) {
    auto tuner = make_pool_tuner(m, configs, view, 6, rng.split(
        static_cast<std::uint64_t>(m)));
    int checked = 0;
    while (auto t = tuner->ask()) {
      ASSERT_LT(t->config_index, configs.size()) << method_name(m);
      tuner->tell(*t, 0.5 - 0.01 * t->id);
      if (++checked > 500) break;  // safety
    }
  }
}

}  // namespace
}  // namespace fedtune::sim

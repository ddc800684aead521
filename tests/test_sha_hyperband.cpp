// Successive Halving / Hyperband / BOHB: rung arithmetic, promotion flow,
// checkpoint-resume lineage, selector injection, and end-to-end behavior on
// a synthetic multi-fidelity objective.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "hpo/bohb.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/successive_halving.hpp"

namespace fedtune::hpo {
namespace {

SearchSpace simple_space() {
  SearchSpace s;
  s.add_uniform("x", 0.0, 1.0);
  return s;
}

// Multi-fidelity objective: converges to |x - 0.4| as rounds -> R, noisier
// at low fidelity (deterministic in (config, rounds) for reproducibility).
double fidelity_objective(const Config& c, std::size_t rounds,
                          std::size_t max_rounds) {
  const double target = std::abs(c.at("x") - 0.4);
  const double progress =
      static_cast<double>(rounds) / static_cast<double>(max_rounds);
  return target * progress + (1.0 - progress) * 0.8;
}

ConfigProvider random_provider(const SearchSpace& space) {
  return [space](Rng& rng) {
    ConfigProposal p;
    p.config = space.sample(rng);
    return p;
  };
}

TEST(ShaSchedule, KnownArithmetic) {
  // n0 = 9, eta = 3, r0 = 1, R = 9: rungs (9 @ 1), (3 @ 3), (1 @ 9).
  const ShaSchedule s = sha_schedule({9, 3, 1, 9});
  ASSERT_EQ(s.rung_sizes.size(), 3u);
  EXPECT_EQ(s.rung_sizes[0], 9u);
  EXPECT_EQ(s.rung_sizes[1], 3u);
  EXPECT_EQ(s.rung_sizes[2], 1u);
  EXPECT_EQ(s.rung_rounds[0], 1u);
  EXPECT_EQ(s.rung_rounds[1], 3u);
  EXPECT_EQ(s.rung_rounds[2], 9u);
  EXPECT_EQ(s.total_evaluations, 13u);
  // 2 promotions + 1 final top-1.
  EXPECT_EQ(s.selection_events, 3u);
  // 9*1 + 3*(3-1) + 1*(9-3) = 21 fresh training rounds.
  EXPECT_EQ(s.total_training_rounds, 21u);
}

TEST(ShaSchedule, StopsAtResourceCeiling) {
  // n0 = 27 but R = 3 means only rungs at 1 and 3 rounds.
  const ShaSchedule s = sha_schedule({27, 3, 1, 3});
  ASSERT_EQ(s.rung_sizes.size(), 2u);
  EXPECT_EQ(s.rung_sizes[1], 9u);
}

TEST(ShaSchedule, SingleConfigDegenerates) {
  const ShaSchedule s = sha_schedule({1, 3, 1, 81});
  EXPECT_EQ(s.rung_sizes.size(), 1u);  // cannot promote 1/3 -> final only
  EXPECT_EQ(s.selection_events, 1u);
}

TEST(ShaSchedule, RejectsBadParams) {
  EXPECT_THROW(sha_schedule({0, 3, 1, 9}), std::invalid_argument);
  EXPECT_THROW(sha_schedule({9, 1, 1, 9}), std::invalid_argument);
  EXPECT_THROW(sha_schedule({9, 3, 10, 9}), std::invalid_argument);
}

TEST(SuccessiveHalving, PromotionFlowKeepsBestConfig) {
  Rng rng(1);
  SuccessiveHalving sha({9, 3, 1, 9}, random_provider(simple_space()), rng);
  std::map<int, Trial> by_id;
  while (!sha.done()) {
    const auto t = sha.ask();
    ASSERT_TRUE(t.has_value());
    by_id[t->id] = *t;
    sha.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
  }
  const Trial winner = sha.best_trial().value();
  EXPECT_EQ(winner.target_rounds, 9u);
  // The winner's lineage must chain back through rungs 3 and 1.
  const Trial& parent = by_id.at(winner.parent_id);
  EXPECT_EQ(parent.target_rounds, 3u);
  EXPECT_DOUBLE_EQ(parent.config.at("x"), winner.config.at("x"));
  const Trial& grandparent = by_id.at(parent.parent_id);
  EXPECT_EQ(grandparent.target_rounds, 1u);
  EXPECT_EQ(grandparent.parent_id, -1);

  // With this deterministic objective, the final-fidelity ranking equals the
  // rung-0 ranking, so the overall best x must have survived every rung.
  double best_x_dist = 1e9;
  for (const auto& [id, trial] : by_id) {
    if (trial.target_rounds == 1u) {
      best_x_dist = std::min(best_x_dist, std::abs(trial.config.at("x") - 0.4));
    }
  }
  EXPECT_NEAR(std::abs(winner.config.at("x") - 0.4), best_x_dist, 1e-12);
}

TEST(SuccessiveHalving, NumbersTrialsInIssueOrder) {
  for (const int first : {0, 7}) {
    Rng rng(13);
    SuccessiveHalving sha({9, 3, 1, 9}, random_provider(simple_space()), rng,
                          first);
    int expected = first;
    while (!sha.done()) {
      const auto t = sha.ask();
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(t->id, expected++);
      sha.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
    }
    EXPECT_EQ(static_cast<std::size_t>(expected - first),
              sha.planned_evaluations());
    EXPECT_EQ(sha.next_trial_id(), expected);
  }
}

TEST(SuccessiveHalving, TellUnknownTrialThrows) {
  Rng rng(2);
  SuccessiveHalving sha({3, 3, 1, 3}, random_provider(simple_space()), rng);
  Trial bogus;
  bogus.id = 999;
  EXPECT_THROW(sha.tell(bogus, 0.5), std::invalid_argument);
}

TEST(SuccessiveHalving, DoubleTellThrows) {
  Rng rng(3);
  SuccessiveHalving sha({3, 3, 1, 3}, random_provider(simple_space()), rng);
  const auto t = sha.ask();
  sha.tell(*t, 0.5);
  EXPECT_THROW(sha.tell(*t, 0.5), std::invalid_argument);
}

TEST(SuccessiveHalving, SelectorReceivesAccuracies) {
  Rng rng(4);
  SuccessiveHalving sha({9, 3, 1, 9}, random_provider(simple_space()), rng);
  std::vector<std::size_t> selector_ks;
  sha.set_selector([&](std::span<const double> accuracies, std::size_t k) {
    selector_ks.push_back(k);
    for (double a : accuracies) {
      EXPECT_GE(a, -0.01);
      EXPECT_LE(a, 1.01);
    }
    return exact_top_k_selector()(accuracies, k);
  });
  while (!sha.done()) {
    const auto t = sha.ask();
    sha.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
  }
  // Selections: top-3 of 9, top-1 of 3 (promotion), final top-1.
  ASSERT_EQ(selector_ks.size(), 3u);
  EXPECT_EQ(selector_ks[0], 3u);
}

TEST(Hyperband, BracketStructureMatchesPaper) {
  // R = 81, eta = 3, r0 = 1: the paper's 5 brackets of SHA.
  const auto brackets = hyperband_brackets({3, 1, 81});
  ASSERT_EQ(brackets.size(), 5u);
  EXPECT_EQ(brackets[0].n0, 81u);
  EXPECT_EQ(brackets[0].r0, 1u);
  EXPECT_EQ(brackets[1].n0, 34u);
  EXPECT_EQ(brackets[1].r0, 3u);
  EXPECT_EQ(brackets[2].n0, 15u);
  EXPECT_EQ(brackets[2].r0, 9u);
  EXPECT_EQ(brackets[3].n0, 8u);
  EXPECT_EQ(brackets[3].r0, 27u);
  EXPECT_EQ(brackets[4].n0, 5u);
  EXPECT_EQ(brackets[4].r0, 81u);
}

TEST(Hyperband, RunsAllBracketsToCompletion) {
  Hyperband hb(simple_space(), {3, 1, 27}, Rng(5));
  std::size_t evals = 0;
  while (!hb.done()) {
    const auto t = hb.ask();
    ASSERT_TRUE(t.has_value());
    hb.tell(*t, fidelity_objective(t->config, t->target_rounds, 27));
    ++evals;
  }
  EXPECT_EQ(evals, hb.planned_evaluations());
  const Trial best = hb.best_trial().value();
  EXPECT_LT(std::abs(best.config.at("x") - 0.4), 0.2);
}

TEST(Hyperband, TrialIdsGloballyUnique) {
  Hyperband hb(simple_space(), {3, 1, 9}, Rng(6));
  std::set<int> ids;
  while (!hb.done()) {
    const auto t = hb.ask();
    EXPECT_TRUE(ids.insert(t->id).second) << "duplicate id " << t->id;
    hb.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
  }
}

TEST(Hyperband, TrialIdsContiguousAcrossBrackets) {
  Hyperband hb(simple_space(), {3, 1, 27}, Rng(15));
  int expected = 0;
  while (!hb.done()) {
    const auto t = hb.ask();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->id, expected++);
    hb.tell(*t, fidelity_objective(t->config, t->target_rounds, 27));
  }
  EXPECT_EQ(static_cast<std::size_t>(expected), hb.planned_evaluations());
}

TEST(Hyperband, PoolModeDrawsFromPool) {
  Rng rng(7);
  std::vector<Config> configs;
  for (int i = 0; i < 16; ++i) configs.push_back(simple_space().sample(rng));
  const CandidatePool pool{configs};
  Hyperband hb(simple_space(), {3, 1, 9}, Rng(8));
  hb.set_candidate_pool(pool);
  while (!hb.done()) {
    const auto t = hb.ask();
    if (t->parent_id < 0) {
      ASSERT_LT(t->config_index, 16u);
    }
    hb.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
  }
}

TEST(Hyperband, SelectionEventCountMatchesSchedules) {
  const HyperbandOptions opts{3, 1, 27};
  Hyperband hb(simple_space(), opts, Rng(9));
  std::size_t expected = 0;
  for (const auto& b : hyperband_brackets(opts)) {
    expected += sha_schedule(b).selection_events;
  }
  EXPECT_EQ(hb.planned_selection_events(), expected);

  std::size_t observed = 0;
  hb.set_selector([&](std::span<const double> accuracies, std::size_t k) {
    ++observed;
    return exact_top_k_selector()(accuracies, k);
  });
  while (!hb.done()) {
    const auto t = hb.ask();
    hb.tell(*t, fidelity_objective(t->config, t->target_rounds, 27));
  }
  EXPECT_EQ(observed, expected);
}

TEST(Bohb, RunsAndFindsGoodConfig) {
  BohbOptions opts;
  opts.hyperband = {3, 1, 27};
  Bohb bohb(simple_space(), opts, Rng(10));
  std::size_t evals = 0;
  while (!bohb.done()) {
    const auto t = bohb.ask();
    ASSERT_TRUE(t.has_value());
    bohb.tell(*t, fidelity_objective(t->config, t->target_rounds, 27));
    ++evals;
  }
  EXPECT_EQ(evals, bohb.planned_evaluations());
  EXPECT_LT(std::abs(bohb.best_trial()->config.at("x") - 0.4), 0.2);
}

TEST(Bohb, LateProposalsConcentrateNearOptimum) {
  // Paired within-run comparison: BOHB's first bracket is all-random (no
  // model yet); its last bracket's fresh configs are model-proposed and
  // should sit much closer to the optimum, on average over seeds.
  double first_total = 0.0, last_total = 0.0;
  std::size_t first_n = 0, last_n = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    BohbOptions opts;
    opts.hyperband = {3, 1, 27};
    Bohb bohb(simple_space(), opts, Rng(seed));
    bool first_bracket = true;
    while (!bohb.done()) {
      const auto t = bohb.ask();
      bohb.tell(*t, fidelity_objective(t->config, t->target_rounds, 27));
      if (t->parent_id < 0) {
        if (t->target_rounds == 1) {
          // Fresh configs at r0 = 1 belong to the first (random) bracket.
          if (first_bracket) {
            first_total += std::abs(t->config.at("x") - 0.4);
            ++first_n;
          }
        } else if (t->target_rounds == 27) {
          first_bracket = false;
          last_total += std::abs(t->config.at("x") - 0.4);
          ++last_n;
        }
      }
    }
  }
  ASSERT_GT(first_n, 0u);
  ASSERT_GT(last_n, 0u);
  EXPECT_LT(last_total / static_cast<double>(last_n),
            first_total / static_cast<double>(first_n));
}

TEST(Bohb, PoolModeIndicesValid) {
  Rng rng(11);
  std::vector<Config> configs;
  for (int i = 0; i < 20; ++i) configs.push_back(simple_space().sample(rng));
  const CandidatePool pool{configs};
  BohbOptions opts;
  opts.hyperband = {3, 1, 9};
  Bohb bohb(simple_space(), opts, Rng(12));
  bohb.set_candidate_pool(pool);
  while (!bohb.done()) {
    const auto t = bohb.ask();
    if (t->parent_id < 0) {
      ASSERT_LT(t->config_index, 20u);
    }
    bohb.tell(*t, fidelity_objective(t->config, t->target_rounds, 9));
  }
}

}  // namespace
}  // namespace fedtune::hpo

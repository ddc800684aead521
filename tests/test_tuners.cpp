// RandomSearch and TPE lifecycle + behavior tests driven by a
// synthetic objective (no federated training involved).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hpo/random_search.hpp"
#include "hpo/tpe.hpp"

namespace fedtune::hpo {
namespace {

SearchSpace simple_space() {
  SearchSpace s;
  s.add_uniform("x", 0.0, 1.0).add_uniform("y", 0.0, 1.0);
  return s;
}

// Quadratic bowl: minimum at (0.3, 0.7).
double bowl(const Config& c) {
  const double dx = c.at("x") - 0.3;
  const double dy = c.at("y") - 0.7;
  return dx * dx + dy * dy;
}

template <typename Tuner>
double run_to_completion(Tuner& tuner) {
  while (auto t = tuner.ask()) {
    tuner.tell(*t, bowl(t->config));
  }
  return bowl(tuner.best_trial()->config);
}

TEST(RandomSearch, LifecycleAndCounts) {
  RandomSearch rs(simple_space(), 10, 5, Rng(1));
  EXPECT_EQ(rs.planned_evaluations(), 10u);
  int trials = 0;
  while (auto t = rs.ask()) {
    EXPECT_EQ(t->target_rounds, 5u);
    EXPECT_EQ(t->parent_id, -1);
    EXPECT_EQ(t->id, trials);
    rs.tell(*t, bowl(t->config));
    ++trials;
    EXPECT_EQ(rs.done(), trials == 10);
  }
  EXPECT_EQ(trials, 10);
}

TEST(RandomSearch, BestTrialIsArgmin) {
  RandomSearch rs(simple_space(), 20, 1, Rng(2));
  double best = 1e9;
  while (auto t = rs.ask()) {
    const double obj = bowl(t->config);
    best = std::min(best, obj);
    rs.tell(*t, obj);
  }
  EXPECT_DOUBLE_EQ(bowl(rs.best_trial()->config), best);
}

TEST(RandomSearch, BestTrialBeforeAnyTellIsEmpty) {
  RandomSearch rs(simple_space(), 3, 1, Rng(3));
  EXPECT_FALSE(rs.best_trial().has_value());
  const auto t = rs.ask();
  ASSERT_TRUE(t.has_value());
  // Still empty after an ask without a tell.
  EXPECT_FALSE(rs.best_trial().has_value());
  rs.tell(*t, 0.5);
  ASSERT_TRUE(rs.best_trial().has_value());
  EXPECT_EQ(rs.best_trial()->id, t->id);
}

TEST(RandomSearch, PoolModeSetsIndices) {
  Rng rng(4);
  std::vector<Config> configs;
  for (int i = 0; i < 7; ++i) configs.push_back(simple_space().sample(rng));
  const CandidatePool pool{configs};
  RandomSearch rs(simple_space(), 30, 1, Rng(5));
  rs.set_candidate_pool(pool);
  std::set<std::size_t> used;
  while (auto t = rs.ask()) {
    ASSERT_LT(t->config_index, 7u);
    // Config content must match the pool entry.
    EXPECT_DOUBLE_EQ(t->config.at("x"), pool.configs[t->config_index].at("x"));
    used.insert(t->config_index);
    rs.tell(*t, bowl(t->config));
  }
  EXPECT_GT(used.size(), 3u);  // bootstrap w/ replacement covers several
}

TEST(RandomSearch, DeterministicGivenSeed) {
  RandomSearch a(simple_space(), 5, 1, Rng(6));
  RandomSearch b(simple_space(), 5, 1, Rng(6));
  while (auto ta = a.ask()) {
    const auto tb = b.ask();
    ASSERT_TRUE(tb.has_value());
    EXPECT_DOUBLE_EQ(ta->config.at("x"), tb->config.at("x"));
    a.tell(*ta, 0.5);
    b.tell(*tb, 0.5);
  }
}

TEST(TpeDensityModel, SplitsAndScoresTowardGoodRegion) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    const Config c = space.sample(rng);
    model.add_observation(c, bowl(c));
  }
  ASSERT_TRUE(model.ready());
  // Acquisition at the optimum should beat a far corner.
  const double at_opt = model.acquisition({0.3, 0.7});
  const double at_corner = model.acquisition({0.99, 0.01});
  EXPECT_GT(at_opt, at_corner);
}

TEST(TpeDensityModel, ProposalsConcentrateNearOptimum) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(12);
  for (int i = 0; i < 60; ++i) {
    const Config c = space.sample(rng);
    model.add_observation(c, bowl(c));
  }
  double mean_obj = 0.0;
  for (int i = 0; i < 30; ++i) {
    mean_obj += bowl(model.propose(rng));
  }
  mean_obj /= 30;
  // Random samples average E[bowl] ~ 0.22; proposals should do much better.
  EXPECT_LT(mean_obj, 0.1);
}

TEST(TpeDensityModel, ScoresAndProposalPinnedBitwise) {
  // Scoring prepares the good/bad groups, bandwidths and category
  // frequencies once per proposal; the values must be the recorded ones of
  // the per-candidate computation, bit for bit. Mixed continuous, log and
  // choice dims.
  SearchSpace space;
  space.add_uniform("x", 0.0, 1.0)
      .add_log_uniform("lr", 1e-4, 1.0)
      .add_choice("b", {16.0, 32.0, 64.0});
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(31);
  for (int i = 0; i < 11; ++i) {
    model.add_observation(space.sample(rng), 0.1 + 0.05 * ((i * 7) % 11));
  }
  const double recorded[] = {0x1.ae060e5299d12p-2, -0x1.390d1ce614534p+1,
                             -0x1.4696871baea65p+1, 0x1.1854c0124cdd4p-2};
  Rng points(32);
  for (const double expected : recorded) {
    EXPECT_EQ(model.acquisition(space.encode(space.sample(points))), expected);
  }
  Rng propose_rng(33);
  const Config proposed = model.propose(propose_rng);
  EXPECT_EQ(proposed.at("x"), 0x1.c8eabff6a7da5p-3);
  EXPECT_EQ(proposed.at("lr"), 0x1.3a55d9fc268a7p-11);
  EXPECT_EQ(proposed.at("b"), 64.0);
}

TEST(TpeDensityModel, PoolProposalReturnsValidIndex) {
  const SearchSpace space = simple_space();
  TpeDensityModel model(space, TpeOptions{});
  Rng rng(13);
  std::vector<Config> pool;
  for (int i = 0; i < 50; ++i) pool.push_back(space.sample(rng));
  for (int i = 0; i < 20; ++i) {
    model.add_observation(pool[static_cast<std::size_t>(i)], bowl(pool[i]));
  }
  const std::size_t idx = model.propose_pool_index(rng, pool);
  ASSERT_LT(idx, pool.size());
  // The chosen pool config should be better than the pool median.
  std::vector<double> objs;
  for (const auto& c : pool) objs.push_back(bowl(c));
  std::sort(objs.begin(), objs.end());
  EXPECT_LT(bowl(pool[idx]), objs[25]);
}

TEST(Tpe, BeatsRandomSearchOnSmoothObjective) {
  // Paired comparison over several seeds; TPE should usually win.
  int tpe_wins = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    RandomSearch rs(simple_space(), 24, 1, Rng(seed));
    Tpe tpe(simple_space(), 24, 1, TpeOptions{}, Rng(seed + 100));
    const double rs_best = run_to_completion(rs);
    const double tpe_best = run_to_completion(tpe);
    if (tpe_best <= rs_best) ++tpe_wins;
  }
  EXPECT_GE(tpe_wins, 6);
}

TEST(Tpe, StartupPhaseIsRandom) {
  TpeOptions opts;
  opts.n_startup = 5;
  Tpe tpe(simple_space(), 10, 1, opts, Rng(14));
  // Must be able to issue startup trials without any observations.
  for (int i = 0; i < 5; ++i) {
    const auto t = tpe.ask();
    ASSERT_TRUE(t.has_value());
    tpe.tell(*t, bowl(t->config));
  }
}

TEST(Tpe, PlannedEvaluations) {
  Tpe tpe(simple_space(), 16, 81, TpeOptions{}, Rng(15));
  EXPECT_EQ(tpe.planned_evaluations(), 16u);
}

TEST(Tpe, PoolModeProposalsComeFromPool) {
  const SearchSpace space = simple_space();
  Rng rng(16);
  std::vector<Config> configs;
  for (int i = 0; i < 12; ++i) configs.push_back(space.sample(rng));
  const CandidatePool pool{configs};
  Tpe tpe(space, 10, 1, TpeOptions{}, Rng(17));
  tpe.set_candidate_pool(pool);
  while (auto t = tpe.ask()) {
    ASSERT_LT(t->config_index, 12u);
    tpe.tell(*t, bowl(t->config));
  }
  EXPECT_TRUE(tpe.done());
}

}  // namespace
}  // namespace fedtune::hpo

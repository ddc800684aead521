// Tuner-middleware tests: the forwarding contract (set_selector reaches the
// innermost tuner, planned_evaluations stays correct under CachingTuner),
// CachingTuner absorb/surface modes, LimitTuner caps (trials, parent-aware
// rounds, injected wall clock), LocalSearchTuner refinement in pool and
// continuous modes, the persistent EvalCache (reopen, torn tails, degraded
// best-effort appends, compaction), and the service-level shared-cache
// behavior: warm tenants served without live evaluations, noise-signature
// namespacing, and kill/resume bitwise identity on cold AND warm caches.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "core/config_pool.hpp"
#include "core/eval_cache.hpp"
#include "core/hp_mapping.hpp"
#include "hpo/middleware.hpp"
#include "hpo/random_search.hpp"
#include "nn/factory.hpp"
#include "service/study.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::hpo {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

SearchSpace simple_space() {
  SearchSpace s;
  s.add_uniform("x", 0.0, 1.0).add_uniform("y", 0.0, 1.0);
  return s;
}

double bowl(const Config& c) {
  const double dx = c.at("x") - 0.3;
  const double dy = c.at("y") - 0.7;
  return dx * dx + dy * dy;
}

// A scripted inner tuner that records what reaches it: the middleware
// forwarding regression probe.
class ScriptTuner : public Tuner {
 public:
  explicit ScriptTuner(std::vector<Trial> trials)
      : trials_(std::move(trials)) {}

  std::optional<Trial> ask() override {
    if (next_ >= trials_.size()) return std::nullopt;
    return trials_[next_++];
  }
  void tell(const Trial& trial, double objective) override {
    told_.emplace_back(trial, objective);
  }
  bool done() const override { return told_.size() >= trials_.size(); }
  std::optional<Trial> best_trial() const override {
    const std::pair<Trial, double>* best = nullptr;
    for (const auto& t : told_) {
      if (best == nullptr || t.second < best->second) best = &t;
    }
    if (best == nullptr) return std::nullopt;
    return best->first;
  }
  std::size_t planned_evaluations() const override { return trials_.size(); }
  void set_selector(TopKSelector selector) override {
    ++selector_sets;
    Tuner::set_selector(std::move(selector));
  }

  const TopKSelector& current_selector() const { return selector_; }
  const std::vector<std::pair<Trial, double>>& told() const { return told_; }
  int selector_sets = 0;

 private:
  std::vector<Trial> trials_;
  std::size_t next_ = 0;
  std::vector<std::pair<Trial, double>> told_;
};

std::vector<Trial> script_of(std::size_t n, std::size_t rounds) {
  std::vector<Trial> trials;
  Rng rng(41);
  const SearchSpace space = simple_space();
  for (std::size_t i = 0; i < n; ++i) {
    Trial t;
    t.id = static_cast<int>(i);
    t.config = space.sample(rng);
    t.target_rounds = rounds;
    trials.push_back(std::move(t));
  }
  return trials;
}

TEST(ConfigFingerprint, BitwiseCanonicalAndOrdered) {
  const Config a = {{"x", 0.1}, {"y", 0.25}};
  EXPECT_EQ(config_fingerprint(a), "x=0.10000000000000001;y=0.25;");
  // Insertion order is irrelevant: Config is an ordered map.
  const Config b = {{"y", 0.25}, {"x", 0.1}};
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  // One-ulp differences produce distinct fingerprints (%.17g round-trips).
  Config c = a;
  c["x"] = std::nextafter(0.1, 1.0);
  EXPECT_NE(config_fingerprint(a), config_fingerprint(c));
}

// --- forwarding contract (the wrapper hazards the header calls out) ---------

TEST(TunerMiddleware, SetSelectorReachesInnermostThroughTwoLayers) {
  auto script = std::make_unique<ScriptTuner>(script_of(4, 5));
  ScriptTuner* probe = script.get();
  MemoryEvalStore store;
  auto limited = std::make_unique<LimitTuner>(std::move(script), LimitOptions{});
  CachingTuner stack(std::move(limited), &store, /*noise_signature=*/7);

  // A recognizable selector: always "selects" index 42.
  stack.set_selector([](std::span<const double>, std::size_t) {
    return std::vector<std::size_t>{42};
  });
  EXPECT_EQ(probe->selector_sets, 1);
  const std::vector<double> accs = {0.1, 0.9};
  EXPECT_EQ(probe->current_selector()(accs, 1), std::vector<std::size_t>{42});
}

TEST(TunerMiddleware, PlannedEvaluationsUnchangedByCachingTuner) {
  // A cached tell still counts toward the Laplace M: serving hits must not
  // shrink the planned-evaluation count the privacy budget was split over.
  MemoryEvalStore store;
  const std::vector<Trial> trials = script_of(6, 5);
  for (const Trial& t : trials) {
    store.insert(EvalKey{config_fingerprint(t.config), 5, 7},
                 EvalOutcome{0.5, 0.5});
  }
  CachingTuner surface(std::make_unique<ScriptTuner>(trials), &store, 7,
                       CachingTuner::Mode::kSurface);
  EXPECT_EQ(surface.planned_evaluations(), 6u);
  CachingTuner absorb(std::make_unique<ScriptTuner>(trials), &store, 7,
                      CachingTuner::Mode::kAbsorb);
  EXPECT_EQ(absorb.planned_evaluations(), 6u);
}

// --- CachingTuner -----------------------------------------------------------

TEST(CachingTuner, SurfaceModeIsTransparent) {
  MemoryEvalStore store;
  const std::vector<Trial> trials = script_of(3, 5);
  store.insert(EvalKey{config_fingerprint(trials[0].config), 5, 7},
               EvalOutcome{0.25, 0.25});
  CachingTuner tuner(std::make_unique<ScriptTuner>(trials), &store, 7,
                     CachingTuner::Mode::kSurface);
  // Every trial surfaces (hits included: the session resolves them), and
  // tell performs no store I/O — insertion is the session's job, after the
  // tell is durable.
  int surfaced = 0;
  while (auto t = tuner.ask()) {
    ++surfaced;
    tuner.tell(*t, bowl(t->config));
  }
  EXPECT_EQ(surfaced, 3);
  EXPECT_EQ(store.entries(), 1u);
  EXPECT_EQ(tuner.cache_hits(), 0u);
  EXPECT_EQ(tuner.cache_misses(), 0u);
}

TEST(CachingTuner, AbsorbModeServesSecondRunEntirelyFromCache) {
  MemoryEvalStore store;
  const auto run = [&store] {
    CachingTuner tuner(
        std::make_unique<RandomSearch>(simple_space(), 8, 5, Rng(3)), &store,
        /*noise_signature=*/0, CachingTuner::Mode::kAbsorb);
    int surfaced = 0;
    while (auto t = tuner.ask()) {
      ++surfaced;
      tuner.tell(*t, bowl(t->config));
    }
    return std::make_tuple(surfaced, tuner.cache_hits(), tuner.cache_misses(),
                           tuner.best_trial());
  };

  const auto [cold_surfaced, cold_hits, cold_misses, cold_best] = run();
  EXPECT_EQ(cold_surfaced, 8);
  EXPECT_EQ(cold_hits, 0u);
  EXPECT_EQ(cold_misses, 8u);
  ASSERT_LE(store.entries(), 8u);  // duplicate samples collapse
  ASSERT_GE(store.entries(), 1u);

  // Identical run against the warm store: nothing surfaces to the driver,
  // and the inner tuner converges to the same best via cached tells.
  const auto [warm_surfaced, warm_hits, warm_misses, warm_best] = run();
  EXPECT_EQ(warm_surfaced, 0);
  EXPECT_EQ(warm_hits, 8u);
  EXPECT_EQ(warm_misses, 0u);
  ASSERT_TRUE(cold_best.has_value());
  ASSERT_TRUE(warm_best.has_value());
  EXPECT_EQ(warm_best->id, cold_best->id);
  EXPECT_EQ(warm_best->config, cold_best->config);
}

TEST(CachingTuner, EntriesServeOnlyAtMatchingFidelityAndSignature) {
  MemoryEvalStore store;
  const std::vector<Trial> trials = script_of(1, 9);
  CachingTuner tuner(std::make_unique<ScriptTuner>(trials), &store, 7,
                     CachingTuner::Mode::kAbsorb);
  const EvalKey key = tuner.key_for(trials[0]);
  EXPECT_EQ(key.fidelity, 9u);
  EXPECT_EQ(key.noise_signature, 7u);
  // Same config at a different fidelity / in a different noise namespace:
  // both must miss.
  store.insert(EvalKey{key.fingerprint, 5, 7}, EvalOutcome{0.25, 0.25});
  store.insert(EvalKey{key.fingerprint, 9, 8}, EvalOutcome{0.25, 0.25});
  const auto t = tuner.ask();
  ASSERT_TRUE(t.has_value());  // surfaced = miss
  EXPECT_EQ(tuner.cache_misses(), 1u);
}

// --- LimitTuner -------------------------------------------------------------

TEST(LimitTuner, CapsTrialsIssued) {
  LimitOptions opts;
  opts.max_trials = 3;
  LimitTuner tuner(std::make_unique<ScriptTuner>(script_of(10, 5)), opts);
  EXPECT_EQ(tuner.planned_evaluations(), 3u);
  int issued = 0;
  while (auto t = tuner.ask()) {
    ++issued;
    tuner.tell(*t, 0.5);
  }
  EXPECT_EQ(issued, 3);
  EXPECT_TRUE(tuner.done());
  EXPECT_EQ(tuner.trials_issued(), 3u);
}

TEST(LimitTuner, ChargesPromotionsTheirFidelityDelta) {
  // SHA-style promotions: the promoted trial resumes its parent's
  // checkpoint, so only the delta counts against max_rounds.
  std::vector<Trial> trials(4);
  trials[0].id = 0;
  trials[0].target_rounds = 3;
  trials[1].id = 1;
  trials[1].target_rounds = 3;
  trials[2].id = 2;
  trials[2].target_rounds = 9;
  trials[2].parent_id = 0;  // 3 -> 9: costs 6
  trials[3].id = 3;
  trials[3].target_rounds = 9;
  trials[3].parent_id = 1;
  for (auto& t : trials) t.config = {{"x", 0.5}, {"y", 0.5}};

  LimitOptions opts;
  opts.max_rounds = 10;
  LimitTuner tuner(std::make_unique<ScriptTuner>(trials), opts);
  int issued = 0;
  while (auto t = tuner.ask()) {
    ++issued;
    tuner.tell(*t, 0.5);
  }
  // 3 + 3 + (9-3) = 12 >= 10 after the third tell; the fourth never issues.
  EXPECT_EQ(issued, 3);
  EXPECT_EQ(tuner.rounds_consumed(), 12u);
  EXPECT_TRUE(tuner.done());
}

TEST(LimitTuner, WallBudgetUsesInjectedClockAndLatches) {
  double now = 100.0;
  LimitOptions opts;
  opts.max_wall_seconds = 10.0;
  opts.clock = [&now] { return now; };
  LimitTuner tuner(std::make_unique<ScriptTuner>(script_of(10, 5)), opts);

  auto t = tuner.ask();
  ASSERT_TRUE(t.has_value());
  tuner.tell(*t, 0.5);
  now = 111.0;  // deadline blown
  EXPECT_FALSE(tuner.ask().has_value());
  EXPECT_TRUE(tuner.done());
  now = 101.0;  // a cap, once tripped, stays tripped
  EXPECT_FALSE(tuner.ask().has_value());
  EXPECT_TRUE(tuner.done());
}

// --- LocalSearchTuner -------------------------------------------------------

TEST(LocalSearchTuner, ContinuousRefinementImprovesDeterministically) {
  LocalSearchOptions opts;
  opts.max_steps = 6;
  opts.step_scale = 0.2;

  const auto run = [&opts] {
    LocalSearchTuner tuner(
        std::make_unique<RandomSearch>(simple_space(), 5, 1, Rng(4)),
        simple_space(), opts, Rng(5));
    EXPECT_EQ(tuner.planned_evaluations(), 5u + 6u);
    std::vector<Trial> seen;
    while (auto t = tuner.ask()) {
      seen.push_back(*t);
      tuner.tell(*t, bowl(t->config));
    }
    EXPECT_TRUE(tuner.done());
    return std::make_pair(seen, tuner.best_trial());
  };

  const auto [seen_a, best_a] = run();
  ASSERT_EQ(seen_a.size(), 5u + 6u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_LT(seen_a[i].id, kMiddlewareIdBase);
  for (std::size_t i = 5; i < seen_a.size(); ++i) {
    EXPECT_GE(seen_a[i].id, kMiddlewareIdBase) << "trial " << i;
  }

  // Refinement can only improve on the inner tuner's best.
  RandomSearch plain(simple_space(), 5, 1, Rng(4));
  double inner_best = std::numeric_limits<double>::infinity();
  while (auto t = plain.ask()) {
    inner_best = std::min(inner_best, bowl(t->config));
    plain.tell(*t, bowl(t->config));
  }
  ASSERT_TRUE(best_a.has_value());
  EXPECT_LE(bowl(best_a->config), inner_best);

  // Bitwise deterministic: the replay contract applies to wrappers too.
  const auto [seen_b, best_b] = run();
  ASSERT_EQ(seen_a.size(), seen_b.size());
  for (std::size_t i = 0; i < seen_a.size(); ++i) {
    EXPECT_EQ(seen_a[i].id, seen_b[i].id);
    ASSERT_EQ(seen_a[i].config.size(), seen_b[i].config.size());
    for (const auto& [name, value] : seen_a[i].config) {
      EXPECT_EQ(bits(value), bits(seen_b[i].config.at(name))) << name;
    }
  }
}

TEST(LocalSearchTuner, PoolModeVisitsNearestUnvisitedUntilExhausted) {
  const SearchSpace space = simple_space();
  Rng pool_rng(6);
  std::vector<Config> configs;
  for (int i = 0; i < 5; ++i) configs.push_back(space.sample(pool_rng));
  const CandidatePool pool{configs};

  auto inner = std::make_unique<RandomSearch>(space, 3, 1, Rng(7));
  inner->set_candidate_pool(pool);
  LocalSearchOptions opts;
  opts.max_steps = 10;  // more than the pool can supply
  LocalSearchTuner tuner(std::move(inner), space, opts, Rng(8));
  tuner.set_candidate_pool(pool);

  std::set<std::string> told_fingerprints;
  std::size_t refinements = 0;
  while (auto t = tuner.ask()) {
    if (t->id >= kMiddlewareIdBase) {
      ++refinements;
      // Refinement trials come from the pool and never repeat a config.
      ASSERT_LT(t->config_index, pool.configs.size());
      EXPECT_EQ(t->config, pool.configs[t->config_index]);
      EXPECT_EQ(told_fingerprints.count(config_fingerprint(t->config)), 0u);
    }
    told_fingerprints.insert(config_fingerprint(t->config));
    tuner.tell(*t, bowl(t->config));
  }
  EXPECT_TRUE(tuner.done());
  // Every distinct pool config was eventually visited; refinement stopped at
  // exhaustion, not at max_steps.
  EXPECT_EQ(told_fingerprints.size(), 5u);
  EXPECT_LT(refinements, opts.max_steps);
}

}  // namespace
}  // namespace fedtune::hpo

// --- persistent EvalCache ---------------------------------------------------

namespace fedtune::core {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

class EvalCacheTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }
  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_evalcache_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }
  static hpo::EvalKey key(const std::string& fp, std::uint64_t fidelity) {
    return hpo::EvalKey{fp, fidelity, /*noise_signature=*/99};
  }
  std::vector<std::string> dirs_;
};

TEST_F(EvalCacheTest, PersistsAcrossReopenFirstWriteWins) {
  const std::string path = fresh_dir() + "/pool.evalcache";
  {
    auto cache = EvalCache::open(path);
    EXPECT_TRUE(cache->insert(key("a=1;", 9), {0.25, 0.5}));
    EXPECT_TRUE(cache->insert(key("b=2;", 9), {0.125, 0.25}));
    EXPECT_TRUE(cache->insert(key("a=1;", 3), {0.75, 0.75}));
    // First write wins: the duplicate is refused and the value kept.
    EXPECT_FALSE(cache->insert(key("a=1;", 9), {0.99, 0.99}));
    EXPECT_EQ(cache->entries(), 3u);
    EXPECT_FALSE(cache->degraded());
  }
  auto cache = EvalCache::open(path);
  EXPECT_EQ(cache->entries(), 3u);
  const auto hit = cache->lookup(key("a=1;", 9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(bits(hit->noisy_objective), bits(0.25));
  EXPECT_EQ(bits(hit->full_error), bits(0.5));
  EXPECT_FALSE(cache->lookup(key("c=3;", 9)).has_value());
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->misses(), 1u);
  // A different noise signature is a different namespace.
  EXPECT_FALSE(cache->lookup(hpo::EvalKey{"a=1;", 9, 100}).has_value());
}

TEST_F(EvalCacheTest, HealsTornTailAndBitRot) {
  const std::string path = fresh_dir() + "/pool.evalcache";
  {
    auto cache = EvalCache::open(path);
    cache->insert(key("a=1;", 9), {0.25, 0.5});
    cache->insert(key("b=2;", 9), {0.125, 0.25});
  }
  Env& env = Env::real();
  const std::string pristine = env.read_file(path);

  // Torn tail: every cut inside the last frame recovers the first entry and
  // heals the file to a clean boundary.
  const std::string scratch = fresh_dir() + "/torn.evalcache";
  for (std::size_t cut = pristine.size() - 1; cut > pristine.size() - 8;
       --cut) {
    auto f = env.open_writable(scratch, Env::WriteMode::kTruncate);
    f->append(std::string_view(pristine).substr(0, cut));
    f->close();
    auto cache = EvalCache::open(scratch);
    EXPECT_EQ(cache->entries(), 1u) << "cut=" << cut;
    EXPECT_TRUE(cache->lookup(key("a=1;", 9)).has_value());
    // Healed: appends land on a frame boundary and survive the next open.
    cache->insert(key("c=3;", 9), {0.5, 0.5});
    cache.reset();
    EXPECT_EQ(EvalCache::open(scratch)->entries(), 2u) << "cut=" << cut;
    env.remove_file(scratch);
  }

  // Bit rot mid-file: the corrupt frame and everything after it drop.
  std::string rotted = pristine;
  rotted[pristine.size() / 2] ^= 0x10;
  auto f = env.open_writable(scratch, Env::WriteMode::kTruncate);
  f->append(rotted);
  f->close();
  EXPECT_LE(EvalCache::open(scratch)->entries(), 1u);

  // Not a cache file at all: refused, not misread.
  auto g = env.open_writable(scratch, Env::WriteMode::kTruncate);
  g->append("junk bytes, definitely not a cache");
  g->close();
  EXPECT_THROW(EvalCache::open(scratch), std::exception);
}

TEST_F(EvalCacheTest, DegradedAppendKeepsServingAndCompactHeals) {
  const std::string path = fresh_dir() + "/pool.evalcache";
  FaultPlan plan;
  plan.seed = 5;
  plan.fail_from_op = 3;  // op 1 = magic, op 2 = first insert's append
  plan.fail_count = 1;
  FaultInjectingEnv env(Env::real(), plan);

  auto cache = EvalCache::open(path, &env);
  EXPECT_TRUE(cache->insert(key("a=1;", 9), {0.25, 0.5}));
  EXPECT_FALSE(cache->degraded());
  // The append behind this insert fails: the insert still succeeds (the
  // in-memory map is the logical store) and the cache marks itself degraded.
  EXPECT_TRUE(cache->insert(key("b=2;", 9), {0.125, 0.25}));
  EXPECT_TRUE(cache->degraded());
  EXPECT_TRUE(cache->lookup(key("b=2;", 9)).has_value());
  EXPECT_TRUE(cache->insert(key("c=3;", 9), {0.5, 0.5}));
  EXPECT_EQ(cache->entries(), 3u);

  // compact() rewrites the file from the map and clears the degradation;
  // a reopen on the clean Env sees every entry, including the one whose
  // original append was lost.
  cache->compact();
  EXPECT_FALSE(cache->degraded());
  cache.reset();
  auto reopened = EvalCache::open(path);
  EXPECT_EQ(reopened->entries(), 3u);
  const auto hit = reopened->lookup(key("b=2;", 9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(bits(hit->noisy_objective), bits(0.125));
}

TEST_F(EvalCacheTest, NoiseSignatureHashesEveryNoiseKnob) {
  NoiseModel base;
  base.eval_clients = 4;
  base.epsilon = 25.0;
  const std::uint64_t sig = noise_signature(base, 10);
  // Stable for identical inputs.
  EXPECT_EQ(noise_signature(base, 10), sig);
  // Every knob the stored outcome depends on separates the namespace.
  NoiseModel m = base;
  m.eval_clients = 8;
  EXPECT_NE(noise_signature(m, 10), sig);
  m = base;
  m.epsilon = 1.0;
  EXPECT_NE(noise_signature(m, 10), sig);
  m = base;
  m.bias_b = 2.0;
  EXPECT_NE(noise_signature(m, 10), sig);
  m = base;
  m.eval_dropout = 0.5;
  EXPECT_NE(noise_signature(m, 10), sig);
  // Under DP the planned-evaluation count M shapes the per-eval budget, so
  // it namespaces too; without DP it must not.
  EXPECT_NE(noise_signature(base, 20), sig);
  NoiseModel open_model;
  open_model.eval_clients = 4;
  EXPECT_EQ(noise_signature(open_model, 10), noise_signature(open_model, 20));
  // The scope string isolates warm_start=false studies.
  EXPECT_NE(noise_signature(base, 10, "solo"), sig);
}

}  // namespace
}  // namespace fedtune::core

// --- service-level shared cache ---------------------------------------------

namespace fedtune::service {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_bitwise_equal(const core::TuneResult& a,
                          const core::TuneResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::TrialRecord& ra = a.records[i];
    const core::TrialRecord& rb = b.records[i];
    ASSERT_EQ(ra.trial.id, rb.trial.id) << "step " << i;
    ASSERT_EQ(ra.trial.config_index, rb.trial.config_index) << "step " << i;
    ASSERT_EQ(ra.trial.config, rb.trial.config) << "step " << i;
    ASSERT_EQ(bits(ra.noisy_objective), bits(rb.noisy_objective))
        << "step " << i;
    ASSERT_EQ(bits(ra.full_error), bits(rb.full_error)) << "step " << i;
    ASSERT_EQ(ra.cumulative_rounds, rb.cumulative_rounds) << "step " << i;
  }
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best.has_value()) {
    ASSERT_EQ(a.best->id, b.best->id);
  }
  ASSERT_EQ(bits(a.best_full_error), bits(b.best_full_error));
  ASSERT_EQ(a.rounds_used, b.rounds_used);
}

// Cache hits a study generates against its OWN earlier inserts: random
// search samples the pool with replacement, so a repeated (config, fidelity)
// pair is served from the cache even with no other tenant around.
std::size_t self_hits(const core::TuneResult& result) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::size_t hits = 0;
  for (const core::TrialRecord& rec : result.records) {
    if (!seen.insert({rec.trial.config_index, rec.trial.target_rounds})
             .second) {
      ++hits;
    }
  }
  return hits;
}

class SharedCacheFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::FederatedDataset dataset = testutil::small_image_dataset();
    const auto arch = nn::make_default_model(dataset);
    core::PoolBuildOptions opts;
    opts.num_configs = 8;
    opts.checkpoints = {1, 3, 9};
    opts.trainer.clients_per_round = 5;
    opts.store_params = false;
    opts.num_threads = 2;
    const core::ConfigPool built = core::ConfigPool::build(
        dataset, *arch, hpo::appendix_b_space(), opts);
    auto resources = std::make_shared<PoolResources>();
    resources->configs = built.configs();
    resources->view = built.view();
    pool_ = std::move(resources);
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_sharedcache_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  // Copies every cache file so two runs can start from identical warm state.
  std::string clone_cache_dir(const std::string& from) {
    const std::string to = fresh_dir();
    std::filesystem::create_directories(to);
    for (const auto& entry : std::filesystem::directory_iterator(from)) {
      std::filesystem::copy_file(entry.path(),
                                 to + "/" + entry.path().filename().string());
    }
    return to;
  }

  static StudySpec managed_spec(const std::string& name, StudyMethod method,
                                std::size_t num_configs) {
    StudySpec spec;
    spec.name = name;
    spec.method = method;
    spec.num_configs = num_configs;
    spec.seed = 17;
    spec.pool = "p";
    spec.noise.eval_clients = 4;
    spec.noise.epsilon = 25.0;
    return spec;
  }

  ManagerOptions cached_options(const std::string& journal_dir,
                                const std::string& cache_dir) {
    ManagerOptions opts;
    opts.journal_dir = journal_dir;
    opts.rounds_per_slice = 9;
    opts.eval_cache_dir = cache_dir;
    return opts;
  }

  core::TuneResult run_study(StudyManager& mgr, const StudySpec& spec) {
    StudySession& s = mgr.create_study(spec);
    while (s.run_one_step()) {
    }
    EXPECT_TRUE(s.finished());
    return s.result();
  }

  static std::shared_ptr<const PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const PoolResources> SharedCacheFixture::pool_;

TEST_F(SharedCacheFixture, WarmTenantIsServedWithoutLiveEvaluations) {
  const std::string cache_dir = fresh_dir();
  StudyManager mgr(cached_options(fresh_dir(), cache_dir));
  mgr.register_pool("p", pool_);
  ASSERT_NE(mgr.eval_cache("p"), nullptr);

  // Cold producer: every distinct config misses and evaluates live; a
  // config re-sampled within the study hits its own earlier insert.
  StudySpec prod = managed_spec("prod", StudyMethod::kRandomSearch, 6);
  const core::TuneResult reference = run_study(mgr, prod);
  StudySession* p = mgr.find("prod");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->cache_active());
  EXPECT_EQ(p->cache_hits(), self_hits(reference));
  EXPECT_EQ(p->cache_misses(), p->steps() - self_hits(reference));
  EXPECT_EQ(p->live_evaluations(), p->cache_misses());
  EXPECT_GE(mgr.eval_cache("p")->entries(), 1u);

  // Warm tenant, identical spec under a new name: admission IS the warm
  // start — every outcome is served, zero rounds and zero live evals spent.
  StudySpec cons = managed_spec("cons", StudyMethod::kRandomSearch, 6);
  const core::TuneResult warmed = run_study(mgr, cons);
  StudySession* c = mgr.find("cons");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->live_evaluations(), 0u);
  EXPECT_EQ(c->cache_hits(), c->steps());
  EXPECT_EQ(c->cache_misses(), 0u);
  EXPECT_EQ(c->rounds_used(), 0u);
  // Served objectives are bitwise the producer's recorded outcomes.
  ASSERT_EQ(warmed.records.size(), reference.records.size());
  for (std::size_t i = 0; i < warmed.records.size(); ++i) {
    EXPECT_EQ(warmed.records[i].trial.config_index,
              reference.records[i].trial.config_index);
    EXPECT_EQ(bits(warmed.records[i].noisy_objective),
              bits(reference.records[i].noisy_objective));
    EXPECT_EQ(bits(warmed.records[i].full_error),
              bits(reference.records[i].full_error));
  }
}

TEST_F(SharedCacheFixture, NoiseSignatureAndScopeIsolateNamespaces) {
  const std::string cache_dir = fresh_dir();
  StudyManager mgr(cached_options(fresh_dir(), cache_dir));
  mgr.register_pool("p", pool_);
  run_study(mgr, managed_spec("seed", StudyMethod::kRandomSearch, 6));

  // Same trials, different epsilon: a different noise namespace, so the
  // warm cache serves no cross-study hit — only the study's own re-sampled
  // configs count.
  StudySpec other_eps = managed_spec("eps", StudyMethod::kRandomSearch, 6);
  other_eps.noise.epsilon = 50.0;
  const core::TuneResult eps_result = run_study(mgr, other_eps);
  const StudySession* e = mgr.find("eps");
  EXPECT_EQ(e->cache_hits(), self_hits(eps_result));
  EXPECT_EQ(e->live_evaluations(), e->steps() - self_hits(eps_result));

  // warm_start=false scopes entries to the study itself: a second opted-out
  // study with the identical spec shares nothing beyond its own re-samples.
  StudySpec solo1 = managed_spec("solo1", StudyMethod::kRandomSearch, 6);
  solo1.warm_start = false;
  run_study(mgr, solo1);
  StudySpec solo2 = managed_spec("solo2", StudyMethod::kRandomSearch, 6);
  solo2.warm_start = false;
  const core::TuneResult solo2_result = run_study(mgr, solo2);
  EXPECT_EQ(mgr.find("solo2")->cache_hits(), self_hits(solo2_result));
  EXPECT_EQ(mgr.find("solo2")->live_evaluations(),
            solo2_result.records.size() - self_hits(solo2_result));

  // use_eval_cache=false opts out entirely.
  StudySpec off = managed_spec("off", StudyMethod::kRandomSearch, 4);
  off.use_eval_cache = false;
  run_study(mgr, off);
  const StudySession* o = mgr.find("off");
  EXPECT_FALSE(o->cache_active());
  EXPECT_EQ(o->cache_hits(), 0u);
  EXPECT_EQ(o->cache_misses(), 0u);
}

TEST_F(SharedCacheFixture, KillResumeBitwiseOnColdCache) {
  const StudySpec spec = managed_spec("cold", StudyMethod::kSha, 9);
  core::TuneResult reference;
  {
    StudyManager mgr(cached_options(fresh_dir(), fresh_dir()));
    mgr.register_pool("p", pool_);
    reference = run_study(mgr, spec);
  }
  for (const std::size_t k : {1u, 4u, 9u}) {
    SCOPED_TRACE("interrupted after " + std::to_string(k) + " tells");
    const std::string journal_dir = fresh_dir();
    const std::string cache_dir = fresh_dir();
    {
      StudyManager mgr(cached_options(journal_dir, cache_dir));
      mgr.register_pool("p", pool_);
      StudySession& s = mgr.create_study(spec);
      for (std::size_t i = 0; i < k; ++i) {
        if (!s.run_one_step()) break;
      }
    }  // killed
    StudyManager mgr(cached_options(journal_dir, cache_dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.resume_study(spec.name);
    EXPECT_EQ(s.live_evaluations(), 0u);  // replay re-ran nothing
    while (s.run_one_step()) {
    }
    ASSERT_TRUE(s.finished());
    expect_bitwise_equal(s.result(), reference);
  }
}

TEST_F(SharedCacheFixture, KillResumeBitwiseOnWarmSharedCache) {
  // Warm the cache with a producer whose trial set overlaps the consumer's
  // (same noise namespace, different seed), so the consumer's run mixes
  // hits and misses — the hardest replay case.
  const std::string warm_dir = fresh_dir();
  {
    StudyManager mgr(cached_options(fresh_dir(), warm_dir));
    mgr.register_pool("p", pool_);
    run_study(mgr, managed_spec("wp", StudyMethod::kRandomSearch, 8));
  }
  StudySpec cons = managed_spec("wc", StudyMethod::kRandomSearch, 8);
  cons.seed = 18;

  core::TuneResult reference;
  std::size_t reference_hits = 0;
  {
    StudyManager mgr(cached_options(fresh_dir(), clone_cache_dir(warm_dir)));
    mgr.register_pool("p", pool_);
    reference = run_study(mgr, cons);
    reference_hits = mgr.find("wc")->cache_hits();
  }
  // The producer overlap actually produced hits (deterministic given the
  // seeds; guards the test against silently degenerating to all-miss).
  EXPECT_GE(reference_hits, 1u);

  for (const std::size_t k : {2u, 5u}) {
    SCOPED_TRACE("interrupted after " + std::to_string(k) + " tells");
    const std::string journal_dir = fresh_dir();
    const std::string cache_dir = clone_cache_dir(warm_dir);
    {
      StudyManager mgr(cached_options(journal_dir, cache_dir));
      mgr.register_pool("p", pool_);
      StudySession& s = mgr.create_study(cons);
      for (std::size_t i = 0; i < k; ++i) {
        if (!s.run_one_step()) break;
      }
    }  // killed
    StudyManager mgr(cached_options(journal_dir, cache_dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.resume_study("wc");
    EXPECT_EQ(s.live_evaluations(), 0u);
    while (s.run_one_step()) {
    }
    ASSERT_TRUE(s.finished());
    expect_bitwise_equal(s.result(), reference);
  }
}

TEST_F(SharedCacheFixture, SpecKnobsPersistInJournalAndCapTrials) {
  StudySpec spec = managed_spec("capped", StudyMethod::kRandomSearch, 10);
  spec.max_trials = 3;
  spec.warm_start = false;
  spec.use_eval_cache = false;

  const std::string journal_dir = fresh_dir();
  {
    StudyManager mgr(cached_options(journal_dir, fresh_dir()));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    s.run_one_step();
  }  // killed after one step
  StudyManager mgr(cached_options(journal_dir, fresh_dir()));
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.resume_study("capped");
  // The v2 journal create record round-trips the new spec fields.
  EXPECT_EQ(s.spec().max_trials, 3u);
  EXPECT_FALSE(s.spec().warm_start);
  EXPECT_FALSE(s.spec().use_eval_cache);
  while (s.run_one_step()) {
  }
  ASSERT_TRUE(s.finished());
  // The LimitTuner cap held across the kill/resume.
  EXPECT_EQ(s.result().records.size(), 3u);
}

}  // namespace
}  // namespace fedtune::service

// Evaluation-cache and trial-cap tests: the canonical config fingerprint,
// TuningSession's cache path (entries keyed by fidelity and noise
// signature), DriverOptions::max_trials (trials stop at the cap; a private
// session splits epsilon over min(plan, cap), cached tells included), the
// persistent EvalCache (reopen, torn tails, degraded best-effort appends,
// compaction), and the service-level shared-cache behavior: warm tenants
// served without live evaluations, noise-signature namespacing,
// kill/resume bitwise identity on cold AND warm caches, and capped studies
// finishing on the tell that reaches the cap.
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
#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "nn/factory.hpp"
#include "service/study.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::core {
namespace {

using hpo::Config;
using hpo::Trial;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
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

// --- session cache path and trial cap ---------------------------------------

// A scripted pool-mode tuner: trial i evaluates pool config i at `rounds`.
// It counts its asks, so a test can see that a capped session never asks
// past the cap.
class ScriptTuner : public hpo::Tuner {
 public:
  ScriptTuner(std::size_t n, std::size_t rounds) {
    for (std::size_t i = 0; i < n; ++i) {
      Trial t;
      t.id = static_cast<int>(i);
      t.config = {{"x", 0.125 * static_cast<double>(i)}};
      t.config_index = i;
      t.target_rounds = rounds;
      trials_.push_back(std::move(t));
    }
  }

  std::optional<Trial> ask() override {
    if (asks_ >= trials_.size()) return std::nullopt;
    return trials_[asks_++];
  }
  void tell(const Trial&, double) override { ++tells_; }
  bool done() const override { return tells_ >= trials_.size(); }
  std::optional<Trial> best_trial() const override { return std::nullopt; }
  std::size_t planned_evaluations() const override { return trials_.size(); }

  const std::vector<Trial>& trials() const { return trials_; }
  std::size_t asks() const { return asks_; }

 private:
  std::vector<Trial> trials_;
  std::size_t asks_ = 0;
  std::size_t tells_ = 0;
};

// A 10-config view on checkpoints {3, 9} over 8 equally weighted clients.
PoolEvalView small_view() {
  constexpr std::size_t kConfigs = 10;
  constexpr std::size_t kClients = 8;
  PoolEvalView view({3, 9}, std::vector<double>(kClients, 1.0), kConfigs);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    for (std::size_t ck = 0; ck < 2; ++ck) {
      const std::span<float> e = view.errors(c, ck);
      for (std::size_t k = 0; k < kClients; ++k) {
        e[k] = static_cast<float>(0.1 + 0.05 * static_cast<double>(c) +
                                  0.01 * static_cast<double>(k + ck));
      }
    }
  }
  return view;
}

TEST(SessionEvalCache, EntriesServeOnlyAtMatchingFidelityAndSignature) {
  const PoolEvalView view = small_view();
  MemoryEvalStore store;
  const std::string fp =
      config_fingerprint(ScriptTuner(1, 9).trials()[0].config);
  // The same config at another fidelity, and in another noise namespace:
  // neither may serve the session's (fidelity 9, signature 7) lookup.
  store.insert(EvalKey{fp, 3, 7}, EvalOutcome{0.25, 0.25});
  store.insert(EvalKey{fp, 9, 8}, EvalOutcome{0.25, 0.25});

  struct Run {
    TrialRecord record;
    std::size_t hits, misses, live;
  };
  const auto run = [&] {
    ScriptTuner tuner(1, 9);
    PoolTrialRunner runner(view);
    TuningSession session(tuner, runner, DriverOptions{});
    session.set_eval_cache(&store, /*noise_signature=*/7);
    const TrialRecord record = session.step().value();
    session.commit_cache_insert();
    const NoisyEvaluator& e = *session.evaluator();
    return Run{record, e.cache_hits(), e.cache_misses(),
               e.live_evals_performed()};
  };

  const Run cold_run = run();
  EXPECT_EQ(cold_run.misses, 1u);
  EXPECT_EQ(cold_run.hits, 0u);
  EXPECT_EQ(cold_run.live, 1u);
  const TrialRecord& cold = cold_run.record;
  EXPECT_NE(bits(cold.noisy_objective), bits(0.25));
  EXPECT_EQ(store.entries(), 3u);

  // The committed entry does match: a second session is served from it.
  const Run warm_run = run();
  EXPECT_EQ(warm_run.hits, 1u);
  EXPECT_EQ(warm_run.live, 0u);
  const TrialRecord& warm = warm_run.record;
  EXPECT_EQ(bits(warm.noisy_objective), bits(cold.noisy_objective));
  EXPECT_EQ(bits(warm.full_error), bits(cold.full_error));
  EXPECT_EQ(warm.cumulative_rounds, 0u);
}

TEST(SessionTrialCap, StopsAtCapAndSplitsEpsilonOverCappedPlan) {
  const PoolEvalView view = small_view();
  DriverOptions opts;
  opts.noise.epsilon = 6.0;
  opts.max_trials = 3;

  // The cap bounds M only from above: a smaller plan is kept as is.
  {
    ScriptTuner tuner(2, 9);
    PoolTrialRunner runner(view);
    EXPECT_EQ(TuningSession(tuner, runner, opts).planned_evaluations(),
              2u);
  }

  ScriptTuner tuner(10, 9);
  PoolTrialRunner runner(view);
  // A cached tell still counts as one of the M evaluations: serving the
  // first trial from the store must charge the same epsilon / M.
  MemoryEvalStore store;
  store.insert(EvalKey{config_fingerprint(tuner.trials()[0].config), 9, 1},
               EvalOutcome{0.5, 0.5});
  TuningSession session(tuner, runner, opts);
  session.set_eval_cache(&store, /*noise_signature=*/1);
  EXPECT_EQ(session.planned_evaluations(), 3u);

  std::size_t steps = 0;
  while (session.step().has_value()) {
    ++steps;
    session.commit_cache_insert();
    // epsilon / min(plan, cap) = 6 / 3 per evaluation, hit or live.
    EXPECT_DOUBLE_EQ(session.evaluator()->accountant().spent(),
                     2.0 * static_cast<double>(steps));
  }
  EXPECT_EQ(steps, 3u);
  EXPECT_EQ(session.evaluator()->cache_hits(), 1u);
  EXPECT_TRUE(session.done());
  EXPECT_FALSE(session.budget_exhausted());
  // The cap is checked before the tuner is asked: it never issued trial 3.
  EXPECT_EQ(tuner.asks(), 3u);
}

// --- persistent EvalCache ---------------------------------------------------

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
  static EvalKey key(const std::string& fp, std::uint64_t fidelity) {
    return EvalKey{fp, fidelity, /*noise_signature=*/99};
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
  EXPECT_FALSE(cache->lookup(EvalKey{"a=1;", 9, 100}).has_value());
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
  // The trial cap held across the kill/resume.
  EXPECT_EQ(s.result().records.size(), 3u);
}

TEST_F(SharedCacheFixture, CappedStudyFinishesOnTheTellThatReachesTheCap) {
  const std::string journal_dir = fresh_dir();
  StudyManager mgr(cached_options(journal_dir, fresh_dir()));
  mgr.register_pool("p", pool_);

  // Managed: the step whose tell reaches the cap also finishes the study.
  StudySpec managed = managed_spec("mcap", StudyMethod::kRandomSearch, 10);
  managed.max_trials = 3;
  StudySession& m = mgr.create_study(managed);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(m.finished()) << "step " << i;
    EXPECT_TRUE(m.run_one_step()) << "step " << i;
  }
  EXPECT_TRUE(m.finished());

  // External: the selection record is durable right after the capping tell,
  // before any further ask.
  StudySpec external = managed_spec("xcap", StudyMethod::kRandomSearch, 10);
  external.external = true;
  external.max_trials = 2;
  StudySession& x = mgr.create_study(external);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(x.finished()) << "tell " << i;
    const std::optional<hpo::Trial> t = x.ask();
    ASSERT_TRUE(t.has_value()) << "tell " << i;
    x.tell(t->id, 0.5);
  }
  EXPECT_TRUE(x.finished());
  const RecoveredStudy journaled =
      StudyJournal::recover(journal_dir + "/xcap.journal");
  EXPECT_TRUE(journaled.finished);
  EXPECT_EQ(journaled.steps.size(), 2u);
}

}  // namespace
}  // namespace fedtune::service

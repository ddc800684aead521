// Figure 10 (and Figure 14): hyperparameter-transfer scatter — each shared
// configuration's full error on two datasets, for four dataset pairs.
//
// Expected shape: strong positive correlation within a task family
// (cifar10<->femnist, stackoverflow<->reddit); weak across families.
//
// Warm-start arm (the operational version of the same question): phase A
// tunes dataset A through the evaluation-cache path the service uses — a
// core::TuningSession with pure per-eval streams and a MemoryEvalStore
// installed via set_eval_cache, each miss committed after its step — so
// every outcome lands in the store keyed by config fingerprint. The arm then
// compares, at equal trial budget on dataset B:
//   tune_b_cold       fresh random search on B, and
//   tune_b_warmstart  evaluate the store's best-on-A fingerprints first.
// A second pass on A (new seed, same store) is also reported: its
// surfaced/hit counts show the store serving repeat asks without a live
// evaluation.
//
// Modes:
//   bench_fig10_transfer            full run on the shared PoolHub pools
//   bench_fig10_transfer --smoke    synthetic correlated views only — no
//       pool builds, a few seconds; CI's check that the warm-start path
//       stays wired end to end.
#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/config_pool.hpp"
#include "core/eval_cache.hpp"
#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "hpo/search_space.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"
#include "sim/pool_hub.hpp"

namespace {

using namespace fedtune;

double full_error_at(const core::PoolEvalView& view, const hpo::Trial& t) {
  return view.full_error(t.config_index,
                         view.checkpoint_index(t.target_rounds),
                         fl::Weighting::kByExampleCount);
}

// One arm's outcome: live evaluations, cache hits, and the final
// selection's noiseless full error.
struct ArmResult {
  std::size_t surfaced = 0;
  std::size_t cache_hits = 0;
  double err = std::numeric_limits<double>::infinity();
};

// Random search on `view` through the service's session path: a full,
// noiseless evaluation (the transfer question is about the surface, not the
// noise), the store consulted before every evaluation when given, and each
// miss committed once its step completes.
ArmResult tune_arm(const std::vector<hpo::Config>& configs,
                   const core::PoolEvalView& view, std::size_t trials,
                   std::uint64_t seed, core::EvalStore* store) {
  // One constant namespace keeps both A passes sharing entries while the
  // fidelity key still separates checkpoints.
  constexpr std::uint64_t kSignature = 0xf16'10;
  auto tuner = sim::make_pool_tuner(sim::Method::kRandomSearch, configs, view,
                                    trials, Rng(seed));
  core::PoolTrialRunner runner(view);
  core::TuningSession session(*tuner, runner, core::DriverOptions{},
                              /*pure_eval_streams=*/true);
  if (store != nullptr) session.set_eval_cache(store, kSignature);
  while (session.step().has_value()) session.commit_cache_insert();
  const core::TuneResult result = session.finalize();
  ArmResult arm;
  arm.surfaced = session.evaluator()->live_evals_performed();
  arm.cache_hits = session.evaluator()->cache_hits();
  if (result.best.has_value()) arm.err = full_error_at(view, *result.best);
  return arm;
}

// The warm-start transfer arm for one (A, B) pair sharing a config list.
Table warm_start_transfer(const std::string& name_a, const std::string& name_b,
                          const std::vector<hpo::Config>& configs,
                          const core::PoolEvalView& view_a,
                          const core::PoolEvalView& view_b,
                          std::size_t trials, std::uint64_t seed) {
  core::MemoryEvalStore store;

  Table table({"pair", "arm", "trials", "surfaced", "cache_hits", "err_pct"});
  const std::string pair = name_a + "->" + name_b;
  const auto add = [&](const std::string& arm, const ArmResult& r) {
    table.add_row({pair, arm, std::to_string(trials),
                   std::to_string(r.surfaced), std::to_string(r.cache_hits),
                   Table::format(100.0 * r.err)});
  };

  // Phase A, cold: fills the store.
  add("tune_a_cold", tune_arm(configs, view_a, trials, seed, &store));
  // Phase A, warm (new seed, same store): repeat asks are served from the
  // store — only fingerprints the first pass never evaluated run live.
  add("tune_a_warm", tune_arm(configs, view_a, trials, seed + 1, &store));
  // Phase B, cold: fresh random search on B at the same budget.
  add("tune_b_cold", tune_arm(configs, view_b, trials, seed + 2, nullptr));

  // Phase B, warm-started: rank the cached A outcomes (best first) and
  // spend the B budget on those fingerprints. Every trial here is a cache
  // read on the ranking side — the transfer value of A's evaluations.
  {
    std::map<std::string, std::size_t> index_of;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      index_of[core::config_fingerprint(configs[c])] = c;
    }
    std::vector<std::pair<double, std::size_t>> ranked;
    for (const auto& [key, outcome] : store.snapshot()) {
      const auto it = index_of.find(key.fingerprint);
      if (it != index_of.end()) ranked.push_back({outcome.noisy_objective, it->second});
    }
    std::sort(ranked.begin(), ranked.end());
    ArmResult warm;
    warm.surfaced = warm.cache_hits = std::min(trials, ranked.size());
    const std::size_t ck = view_b.final_checkpoint();
    for (std::size_t i = 0; i < warm.surfaced; ++i) {
      warm.err = std::min(warm.err,
                          view_b.full_error(ranked[i].second, ck,
                                            fl::Weighting::kByExampleCount));
    }
    add("tune_b_warmstart", warm);
  }
  return table;
}

// --smoke substrate: two synthetic views over one config list, B's error
// surface a deterministic monotone distortion of A's, so warm-starting B
// from A's cache must beat cold RS on B in expectation.
struct SmokePair {
  std::vector<hpo::Config> configs;
  core::PoolEvalView view_a;
  core::PoolEvalView view_b;
};

SmokePair make_smoke_pair() {
  constexpr std::size_t kConfigs = 24;
  constexpr std::size_t kClients = 64;
  SmokePair pair;
  hpo::SearchSpace space = hpo::appendix_b_space();
  Rng rng(5);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    pair.configs.push_back(space.sample(rng));
  }
  const std::vector<std::size_t> checkpoints = {1, 3, 9};
  pair.view_a = core::PoolEvalView(
      checkpoints, std::vector<double>(kClients, 1.0), kConfigs);
  pair.view_b = core::PoolEvalView(
      checkpoints, std::vector<double>(kClients, 1.0), kConfigs);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    // Per-config base error, improving with checkpoint depth; B correlates
    // with A through the shared base with a config-dependent distortion.
    const double base =
        0.15 + 0.7 * static_cast<double>((c * 131) % 97) / 97.0;
    for (std::size_t ck = 0; ck < checkpoints.size(); ++ck) {
      const double depth = 1.0 / static_cast<double>(ck + 1);
      const std::span<float> ea = pair.view_a.errors(c, ck);
      const std::span<float> eb = pair.view_b.errors(c, ck);
      for (std::size_t kk = 0; kk < kClients; ++kk) {
        const double jitter =
            0.02 * static_cast<double>((c * 31 + kk * 7) % 13) / 13.0;
        ea[kk] = static_cast<float>(base * (0.6 + 0.4 * depth) + jitter);
        eb[kk] = static_cast<float>(0.1 + 0.8 * base * (0.6 + 0.4 * depth) +
                                    jitter);
      }
    }
  }
  return pair;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedtune;
  using data::BenchmarkId;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  if (smoke) {
    const SmokePair pair = make_smoke_pair();
    bench::emit("fig10_warmstart_smoke",
                warm_start_transfer("synth_a", "synth_b", pair.configs,
                                    pair.view_a, pair.view_b,
                                    /*trials=*/8, /*seed=*/7));
    return 0;
  }

  sim::PoolHub& hub = sim::PoolHub::instance();
  const std::pair<BenchmarkId, BenchmarkId> pairs[] = {
      {BenchmarkId::kCifar10Like, BenchmarkId::kFemnistLike},
      {BenchmarkId::kStackOverflowLike, BenchmarkId::kRedditLike},
      {BenchmarkId::kCifar10Like, BenchmarkId::kRedditLike},
      {BenchmarkId::kFemnistLike, BenchmarkId::kStackOverflowLike},
  };
  for (const auto& [a, b] : pairs) {
    const std::string stem =
        data::benchmark_name(a) + "_vs_" + data::benchmark_name(b);
    bench::emit("fig10_transfer_" + stem, sim::fig10_transfer_scatter(a, b));
    bench::emit("fig10_warmstart_" + stem,
                warm_start_transfer(data::benchmark_name(a),
                                    data::benchmark_name(b),
                                    hub.pool(a).configs(), hub.view(a),
                                    hub.view(b), /*trials=*/16,
                                    /*seed=*/10));
  }
  return 0;
}

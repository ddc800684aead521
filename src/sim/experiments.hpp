// Experiment definitions — one function per table/figure of the paper
// (per-experiment index in DESIGN.md §4). Each returns a Table whose rows
// are the series the paper plots; bench binaries print them and optionally
// write CSVs.
//
// All experiments follow the paper's protocol: a shared 128-configuration
// pool per dataset (PoolHub), 100 bootstrap trials of K = 16 random-search
// configs (medians and quartiles reported), 8 trials for the method
// comparisons, and live federated training where the protocol requires it
// (Fig. 13).
//
// Pool-simulation trials are independent, so every trial loop fans out over
// ThreadPool::global() through parallel_map. Trial i draws only from its own
// stream (a split of the experiment seed keyed by the trial's index), and
// results are aggregated in index order, so every table is bitwise the
// serial one at any thread count. Small loops are flattened — e.g. Fig. 8
// and the bar figures fan out over method x setting x trial — so each
// fan-out has enough items to fill the pool. PoolHub lookups happen before
// a fan-out, never inside one.
#pragma once

#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/config_pool.hpp"
#include "core/noise_model.hpp"
#include "data/benchmarks.hpp"

namespace fedtune::sim {

struct BootstrapOptions {
  std::size_t rs_configs = 16;  // K
  std::size_t trials = 100;     // bootstrap repetitions
  std::uint64_t seed = 42;
};

// Bootstrap RS under a noise model: quartiles of the selected config's full
// validation error. The building block of Figures 3, 4, 6, 9.
stats::QuartileSummary bootstrap_random_search(
    const std::vector<hpo::Config>& configs, const core::PoolEvalView& view,
    const core::NoiseModel& noise, const BootstrapOptions& opts);

// HP tuning methods compared in Figures 1, 8, 15, 16.
enum class Method { kRandomSearch, kTpe, kHyperband, kBohb };
std::string method_name(Method m);
std::vector<Method> all_methods();

// --- Tables and figures ---------------------------------------------------

// Table 1 / Table 2: dataset statistics.
Table table1_dataset_stats();

// Fig. 3: RS vs eval-client subsampling rate (+ "Best HPs" reference rows).
Table fig3_subsampling(data::BenchmarkId id, const BootstrapOptions& opts = {});

// Fig. 4: subsampling at IID fractions p in {0, 0.5, 1}.
Table fig4_data_heterogeneity(data::BenchmarkId id,
                              const BootstrapOptions& opts = {});

// Fig. 5: RS error vs training budget at several subsampling rates.
Table fig5_budget_tradeoff(data::BenchmarkId id,
                           const BootstrapOptions& opts = {});

// Fig. 6: systems heterogeneity — participation bias b in {0, 1, 1.5, 3}.
Table fig6_systems_heterogeneity(data::BenchmarkId id,
                                 const BootstrapOptions& opts = {});

// Fig. 7: per-config (full error, min client error) scatter.
Table fig7_min_client_error(data::BenchmarkId id);

// Fig. 8: online curves of RS/TPE/HB/BOHB, noiseless vs noisy (1% clients,
// eps = 100). `trials` defaults to the paper's 8.
Table fig8_methods_online(data::BenchmarkId id, std::size_t trials = 8,
                          std::uint64_t seed = 42);

// Fig. 9: RS under privacy budgets eps in {0.1, 1, 10, 100, inf}.
Table fig9_privacy(data::BenchmarkId id, const BootstrapOptions& opts = {});

// Fig. 10 / Fig. 14: HP transfer scatter for a dataset pair (one row per
// shared config: error on a, error on b; plus a Pearson summary row).
Table fig10_transfer_scatter(data::BenchmarkId a, data::BenchmarkId b);

// Fig. 11: one-shot proxy RS over all 4x4 (proxy, client) pairs.
Table fig11_proxy_grid(const BootstrapOptions& opts = {});

// Fig. 12: noisy-RS budget curves at eps in {1, 10, inf} (1% subsample) vs
// one-shot proxy RS curves from every proxy dataset.
Table fig12_proxy_vs_private(data::BenchmarkId id,
                             const BootstrapOptions& opts = {});

// Fig. 13: nested server-lr ranges, noiseless vs noisy (1 client, eps = 10).
// Runs live federated training on freshly built per-range pools (cached).
Table fig13_search_space(const BootstrapOptions& opts = {});

// Fig. 1 (headline) and Figs. 15/16: method bars noiseless vs noisy at a
// fraction of the budget (1/3 for Fig. 1/15, 1.0 for Fig. 16).
Table fig_method_bars(double budget_fraction, std::size_t trials = 8,
                      std::uint64_t seed = 42);

// --- Extensions (DESIGN.md §6) --------------------------------------------

// Server-optimizer ablation: live RS with FedAvg/FedAdam/FedAdagrad/FedYogi.
Table ablation_server_optimizers(std::uint64_t seed = 42);

// Rank-fidelity of noisy evaluation (Spearman/Kendall/top-1 hit rate).
Table ablation_rank_fidelity(data::BenchmarkId id, std::size_t trials = 20,
                             std::uint64_t seed = 42);

// Repeated-evaluation averaging under subsampling and DP.
Table ablation_repeated_evaluation(data::BenchmarkId id,
                                   const BootstrapOptions& opts = {});

// One trial of ablation_repeated_evaluation: RS over `rs_configs` uniform
// pool draws at the final checkpoint, each scored as the mean of `reevals`
// noisy evaluations; returns the full error of the best-scoring draw.
double repeated_evaluation_trial(const core::PoolEvalView& view,
                                 const core::NoiseModel& noise,
                                 std::size_t rs_configs, std::size_t reevals,
                                 Rng trial_rng);

// --- SysSim (runtime/, experiments_systems.cpp) ----------------------------

// Rank fidelity of evaluation under systems heterogeneity: straggler/
// dropout severity (fraction of sampled eval clients that never report)
// and participation bias, over the cached pool. Tau degrades as severity
// rises — the systems analogue of the subsampling sweep.
Table systems_rank_fidelity(data::BenchmarkId id, std::size_t trials = 20,
                            std::uint64_t seed = 42);

// Live SysSim comparison of the three participation policies (synchronous
// deadline + over-selection, straggler-drop, buffered async): final full
// error, simulated wall-clock, participation and staleness statistics.
Table systems_participation_policies(std::size_t rounds = 24,
                                     std::uint64_t seed = 42);

}  // namespace fedtune::sim

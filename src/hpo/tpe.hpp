// Tree-structured Parzen Estimator (Bergstra et al., 2011; Appendix A of the
// paper).
//
// Observations (config, error) are split at the gamma-quantile of the
// objective into a "good" set (errors below the threshold) modelling l(x)
// and a "bad" set modelling g(x). Both densities are per-dimension Parzen
// mixtures in the unit-hypercube encoding (Gaussian kernels for continuous
// dims with Silverman bandwidths, smoothed histograms for choice dims).
// Expected improvement is maximized by sampling candidates from l and
// keeping the one minimizing g(x)/l(x).
//
// The density model doubles as BOHB's proposal engine (hpo/bohb.hpp) and
// supports pool-restricted proposals for the tabular-benchmark protocol.
#pragma once

#include <optional>
#include <span>

#include "hpo/tuner.hpp"

namespace fedtune::hpo {

struct TpeOptions {
  std::size_t n_startup = 4;      // random configs before the model kicks in
  double gamma = 0.25;            // good-set quantile
  std::size_t n_candidates = 24;  // EI candidates sampled from l(x)
  double bandwidth_floor = 0.08;  // minimum kernel bandwidth (unit space)
  double prior_weight = 1.0;      // smoothing pseudo-count for choice dims
};

// Standalone density model, reusable by BOHB.
class TpeDensityModel {
 public:
  TpeDensityModel(const SearchSpace& space, TpeOptions opts);

  void add_observation(const Config& config, double objective);
  std::size_t num_observations() const { return xs_.size(); }
  void clear();

  // True once both groups can be formed (>= 2 observations).
  bool ready() const { return xs_.size() >= 2; }

  // Proposes the EI-maximizing config: from `pool` if non-null (scores every
  // pool entry), else by sampling candidates from l(x).
  Config propose(Rng& rng, const std::vector<Config>* pool = nullptr) const;
  // Index variant for pool proposals.
  std::size_t propose_pool_index(Rng& rng, std::span<const Config> pool) const;

  // log l(x) - log g(x) for an encoded point (higher = more promising).
  double acquisition(const std::vector<double>& encoded) const;

 private:
  // One Parzen group (good or bad) with everything a density evaluation
  // needs that does not depend on the scored point: per-dimension kernel
  // bandwidths (continuous dims) and smoothed category counts with their
  // log-frequencies (choice dims). Built once per proposal and shared by
  // every candidate it scores.
  struct Group {
    std::vector<const std::vector<double>*> members;
    std::vector<double> bandwidth;               // [dim]; continuous dims
    std::vector<double> log_bandwidth;           // log(bandwidth)
    std::vector<std::vector<double>> counts;     // [dim][category]; choice dims
    std::vector<std::vector<double>> log_freq;   // log(counts / total)
  };
  struct Scorer {
    Group good, bad;
    std::vector<double> kernel_log_pdf;  // scratch, one entry per member
  };
  Scorer make_scorer() const;
  Group make_group(std::vector<const std::vector<double>*> members) const;
  // log l(x) - log g(x) under a prepared scorer.
  double score(Scorer& scorer, const std::vector<double>& encoded) const;
  // Per-dim log-density of `encoded` under a Parzen mixture over `group`.
  double log_density(const std::vector<double>& encoded, const Group& group,
                     std::vector<double>& scratch) const;
  std::vector<double> sample_from_good(const Group& good, Rng& rng) const;

  const SearchSpace* space_;
  TpeOptions opts_;
  std::vector<std::vector<double>> xs_;  // encoded observations
  std::vector<double> ys_;               // objectives (errors)
};

class Tpe final : public Tuner {
 public:
  Tpe(SearchSpace space, std::size_t num_configs, std::size_t rounds_per_config,
      TpeOptions opts, Rng rng);

  void set_candidate_pool(CandidatePool pool);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::optional<Trial> best_trial() const override;
  std::size_t planned_evaluations() const override { return num_configs_; }

 private:
  SearchSpace space_;
  std::size_t num_configs_;
  std::size_t rounds_per_config_;
  TpeOptions opts_;
  Rng rng_;
  TpeDensityModel model_;
  std::optional<CandidatePool> pool_;
  std::size_t issued_ = 0;
  std::vector<std::pair<Trial, double>> history_;
};

}  // namespace fedtune::hpo

#include "hpo/tpe.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace fedtune::hpo {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

// Silverman's rule over the group's values in one dim, floored.
double bandwidth(const std::vector<const std::vector<double>*>& group,
                 std::size_t dim, double floor_bw) {
  if (group.size() < 2) return std::max(floor_bw, 0.25);
  double mean = 0.0;
  for (const auto* x : group) mean += (*x)[dim];
  mean /= static_cast<double>(group.size());
  double var = 0.0;
  for (const auto* x : group) {
    var += ((*x)[dim] - mean) * ((*x)[dim] - mean);
  }
  var /= static_cast<double>(group.size());
  const double sd = std::sqrt(var);
  const double bw =
      1.06 * sd * std::pow(static_cast<double>(group.size()), -0.2);
  return std::max(bw, floor_bw);
}

}  // namespace

TpeDensityModel::TpeDensityModel(const SearchSpace& space, TpeOptions opts)
    : space_(&space), opts_(opts) {
  FEDTUNE_CHECK(opts.gamma > 0.0 && opts.gamma < 1.0);
  FEDTUNE_CHECK(opts.n_candidates > 0);
}

void TpeDensityModel::add_observation(const Config& config, double objective) {
  xs_.push_back(space_->encode(config));
  ys_.push_back(objective);
}

void TpeDensityModel::clear() {
  xs_.clear();
  ys_.clear();
}

TpeDensityModel::Scorer TpeDensityModel::make_scorer() const {
  FEDTUNE_CHECK(ready());
  const std::size_t n = ys_.size();
  const auto n_good = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(opts_.gamma * static_cast<double>(n))));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ys_[a] < ys_[b]; });
  std::vector<const std::vector<double>*> good, bad;
  for (std::size_t i = 0; i < n; ++i) {
    (i < n_good ? good : bad).push_back(&xs_[order[i]]);
  }
  if (bad.empty()) {  // degenerate tiny history: reuse good as bad
    bad = good;
  }
  Scorer scorer{make_group(std::move(good)), make_group(std::move(bad)), {}};
  scorer.kernel_log_pdf.resize(n);
  return scorer;
}

TpeDensityModel::Group TpeDensityModel::make_group(
    std::vector<const std::vector<double>*> members) const {
  const std::size_t dims = space_->num_dims();
  Group g;
  g.members = std::move(members);
  g.bandwidth.assign(dims, 0.0);
  g.log_bandwidth.assign(dims, 0.0);
  g.counts.resize(dims);
  g.log_freq.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const ParamSpec& spec = space_->dim_spec(d);
    if (spec.kind == ParamSpec::Kind::kChoice) {
      // Smoothed categorical frequency.
      const std::size_t n_cat = spec.choices.size();
      std::vector<double>& counts = g.counts[d];
      counts.assign(n_cat, opts_.prior_weight / static_cast<double>(n_cat));
      double total_count = opts_.prior_weight;
      for (const auto* x : g.members) {
        const auto c = static_cast<std::size_t>(std::clamp<double>(
            std::round((*x)[d]), 0.0, static_cast<double>(n_cat - 1)));
        counts[c] += 1.0;
        total_count += 1.0;
      }
      for (const double count : counts) {
        g.log_freq[d].push_back(std::log(count / total_count));
      }
    } else {
      g.bandwidth[d] = bandwidth(g.members, d, opts_.bandwidth_floor);
      g.log_bandwidth[d] = std::log(g.bandwidth[d]);
    }
  }
  return g;
}

double TpeDensityModel::log_density(const std::vector<double>& encoded,
                                    const Group& group,
                                    std::vector<double>& scratch) const {
  const std::size_t dims = space_->num_dims();
  FEDTUNE_CHECK(encoded.size() == dims);
  const std::size_t n = group.members.size();
  double total = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const ParamSpec& spec = space_->dim_spec(d);
    if (spec.kind == ParamSpec::Kind::kChoice) {
      const std::size_t n_cat = spec.choices.size();
      const auto c = static_cast<std::size_t>(std::clamp<double>(
          std::round(encoded[d]), 0.0, static_cast<double>(n_cat - 1)));
      total += group.log_freq[d][c];
    } else {
      // Parzen mixture of Gaussians (untruncated; the shared support of l
      // and g makes the normalization cancel in the EI ratio).
      const double bw = group.bandwidth[d];
      const double log_bw = group.log_bandwidth[d];
      double acc = -std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double z = (encoded[d] - (*group.members[i])[d]) / bw;
        scratch[i] = -0.5 * (z * z + kLog2Pi) - log_bw;
        acc = std::max(acc, scratch[i]);
      }
      // log-sum-exp over kernels (max + correction).
      double sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) sum += std::exp(scratch[i] - acc);
      total += acc + std::log(sum / static_cast<double>(n));
    }
  }
  return total;
}

double TpeDensityModel::score(Scorer& scorer,
                              const std::vector<double>& encoded) const {
  return log_density(encoded, scorer.good, scorer.kernel_log_pdf) -
         log_density(encoded, scorer.bad, scorer.kernel_log_pdf);
}

double TpeDensityModel::acquisition(const std::vector<double>& encoded) const {
  Scorer scorer = make_scorer();
  return score(scorer, encoded);
}

std::vector<double> TpeDensityModel::sample_from_good(const Group& good,
                                                      Rng& rng) const {
  const std::size_t dims = space_->num_dims();
  const auto& anchor =
      *good.members[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(good.members.size()) - 1))];
  std::vector<double> out(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const ParamSpec& spec = space_->dim_spec(d);
    if (spec.kind == ParamSpec::Kind::kChoice) {
      // Sample a category from the smoothed good histogram.
      out[d] = static_cast<double>(rng.categorical(good.counts[d]));
    } else {
      out[d] = std::clamp(anchor[d] + rng.normal(0.0, good.bandwidth[d]), 0.0,
                          1.0);
    }
  }
  return out;
}

Config TpeDensityModel::propose(Rng& rng, const std::vector<Config>* pool) const {
  FEDTUNE_CHECK(ready());
  if (pool != nullptr) {
    return (*pool)[propose_pool_index(rng, *pool)];
  }
  Scorer scorer = make_scorer();
  std::vector<double> best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < opts_.n_candidates; ++c) {
    std::vector<double> cand = sample_from_good(scorer.good, rng);
    const double value = score(scorer, cand);
    if (value > best_score) {
      best_score = value;
      best = std::move(cand);
    }
  }
  return space_->decode(best);
}

std::size_t TpeDensityModel::propose_pool_index(
    Rng& rng, std::span<const Config> pool) const {
  FEDTUNE_CHECK(ready());
  FEDTUNE_CHECK(!pool.empty());
  // Score a random subset (or all, if small) to bound cost on large pools.
  std::vector<std::size_t> candidates;
  if (pool.size() <= 4 * opts_.n_candidates) {
    candidates.resize(pool.size());
    std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  } else {
    candidates = rng.sample_without_replacement(pool.size(),
                                                4 * opts_.n_candidates);
  }
  Scorer scorer = make_scorer();
  std::size_t best = candidates.front();
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t i : candidates) {
    const double value = score(scorer, space_->encode(pool[i]));
    if (value > best_score) {
      best_score = value;
      best = i;
    }
  }
  return best;
}

// -------------------------------------------------------------------- Tpe --

Tpe::Tpe(SearchSpace space, std::size_t num_configs,
         std::size_t rounds_per_config, TpeOptions opts, Rng rng)
    : space_(std::move(space)), num_configs_(num_configs),
      rounds_per_config_(rounds_per_config), opts_(opts), rng_(rng),
      model_(space_, opts) {
  FEDTUNE_CHECK(num_configs > 0 && rounds_per_config > 0);
}

void Tpe::set_candidate_pool(CandidatePool pool) {
  FEDTUNE_CHECK(!pool.configs.empty());
  pool_ = std::move(pool);
}

std::optional<Trial> Tpe::ask() {
  if (issued_ >= num_configs_) return std::nullopt;
  Trial t;
  t.id = static_cast<int>(issued_);
  t.target_rounds = rounds_per_config_;

  const bool use_model =
      issued_ >= opts_.n_startup && model_.num_observations() >= 2;
  if (pool_.has_value()) {
    if (use_model) {
      t.config_index = model_.propose_pool_index(rng_, pool_->configs);
    } else {
      t.config_index = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(pool_->configs.size()) - 1));
    }
    t.config = pool_->configs[t.config_index];
  } else {
    t.config = use_model ? model_.propose(rng_) : space_.sample(rng_);
  }
  ++issued_;
  return t;
}

void Tpe::tell(const Trial& trial, double objective) {
  history_.emplace_back(trial, objective);
  model_.add_observation(trial.config, objective);
}

bool Tpe::done() const {
  return issued_ >= num_configs_ && history_.size() >= num_configs_;
}

std::optional<Trial> Tpe::best_trial() const {
  if (history_.empty()) return std::nullopt;
  std::vector<double> accuracies;
  accuracies.reserve(history_.size());
  for (const auto& [trial, obj] : history_) accuracies.push_back(1.0 - obj);
  return history_[selector_(accuracies, 1).front()].first;
}

}  // namespace fedtune::hpo

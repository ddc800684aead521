#include "hpo/middleware.hpp"

#include <cmath>
#include <cstdio>

#include "common/check.hpp"
#include "common/rng_salts.hpp"

namespace fedtune::hpo {

std::string config_fingerprint(const Config& config) {
  std::string out;
  out.reserve(config.size() * 24);
  char buf[32];
  for (const auto& [name, value] : config) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name;
    out += '=';
    out += buf;
    out += ';';
  }
  return out;
}

// --- MemoryEvalStore --------------------------------------------------------

std::optional<EvalOutcome> MemoryEvalStore::lookup(const EvalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool MemoryEvalStore::insert(const EvalKey& key, const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.emplace(key, outcome).second;
}

std::size_t MemoryEvalStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::pair<EvalKey, EvalOutcome>> MemoryEvalStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {map_.begin(), map_.end()};
}

// --- TunerMiddleware --------------------------------------------------------

TunerMiddleware::TunerMiddleware(std::unique_ptr<Tuner> inner)
    : inner_(std::move(inner)) {
  FEDTUNE_CHECK(inner_ != nullptr);
}

// --- CachingTuner -----------------------------------------------------------

CachingTuner::CachingTuner(std::unique_ptr<Tuner> inner, EvalStore* store,
                           std::uint64_t noise_signature, Mode mode)
    : TunerMiddleware(std::move(inner)),
      store_(store),
      noise_signature_(noise_signature),
      mode_(mode) {
  FEDTUNE_CHECK(store_ != nullptr);
}

EvalKey CachingTuner::key_for(const Trial& trial) const {
  return EvalKey{config_fingerprint(trial.config),
                 static_cast<std::uint64_t>(trial.target_rounds),
                 noise_signature_};
}

std::optional<Trial> CachingTuner::ask() {
  if (mode_ == Mode::kSurface) return inner_->ask();
  // Absorb mode: resolve hits against the inner tuner internally so only
  // trials that need real work surface to the driver.
  while (true) {
    std::optional<Trial> trial = inner_->ask();
    if (!trial.has_value()) return std::nullopt;
    const std::optional<EvalOutcome> hit = store_->lookup(key_for(*trial));
    if (!hit.has_value()) {
      ++misses_;
      return trial;
    }
    ++hits_;
    inner_->tell(*trial, hit->noisy_objective);
  }
}

void CachingTuner::tell(const Trial& trial, double objective) {
  if (mode_ == Mode::kAbsorb) {
    // Driverless loops have no separate full-error channel; record the told
    // objective for both so later hits replay exactly what was told.
    store_->insert(key_for(trial), EvalOutcome{objective, objective});
  }
  inner_->tell(trial, objective);
}

// --- LimitTuner -------------------------------------------------------------

LimitTuner::LimitTuner(std::unique_ptr<Tuner> inner, LimitOptions options)
    : TunerMiddleware(std::move(inner)), options_(std::move(options)) {
  if (options_.clock) start_seconds_ = options_.clock();
}

bool LimitTuner::capped() const {
  if (issued_ >= options_.max_trials) return true;
  if (rounds_ >= options_.max_rounds) return true;
  if (options_.clock &&
      options_.clock() - start_seconds_ >= options_.max_wall_seconds) {
    return true;
  }
  return false;
}

std::optional<Trial> LimitTuner::ask() {
  if (capped()) limited_ = true;  // latch, so a wall cap can't un-trip
  if (limited_ || inner_->done()) return std::nullopt;
  std::optional<Trial> trial = inner_->ask();
  if (trial.has_value()) ++issued_;
  return trial;
}

void LimitTuner::tell(const Trial& trial, double objective) {
  // Rounds are charged like the runners charge them: a promotion resuming
  // its parent's checkpoint pays only the fidelity delta.
  std::size_t resumed = 0;
  if (trial.parent_id >= 0) {
    const auto it = told_rounds_.find(trial.parent_id);
    if (it != told_rounds_.end()) resumed = it->second;
  }
  if (trial.target_rounds > resumed) rounds_ += trial.target_rounds - resumed;
  told_rounds_[trial.id] = trial.target_rounds;
  inner_->tell(trial, objective);
}

bool LimitTuner::done() const {
  return limited_ || capped() || inner_->done();
}

std::size_t LimitTuner::planned_evaluations() const {
  return std::min(inner_->planned_evaluations(), options_.max_trials);
}

// --- LocalSearchTuner -------------------------------------------------------

LocalSearchTuner::LocalSearchTuner(std::unique_ptr<Tuner> inner,
                                   SearchSpace space,
                                   LocalSearchOptions options, Rng rng)
    : TunerMiddleware(std::move(inner)),
      space_(std::move(space)),
      options_(options),
      rng_(rng) {}

void LocalSearchTuner::set_candidate_pool(const CandidatePool& pool) {
  pool_configs_.assign(pool.configs.begin(), pool.configs.end());
  pool_encoded_.clear();
  pool_encoded_.reserve(pool_configs_.size());
  for (const Config& c : pool_configs_) pool_encoded_.push_back(space_.encode(c));
}

std::optional<Trial> LocalSearchTuner::propose_neighbor() {
  FEDTUNE_CHECK(incumbent_.has_value());
  const std::vector<double> center = space_.encode(incumbent_->config);
  Trial trial;
  trial.id = kMiddlewareIdBase + static_cast<int>(steps_taken_);
  trial.target_rounds = incumbent_->target_rounds;
  if (!pool_configs_.empty()) {
    // Pool mode: nearest not-yet-visited pool config by encoded L2 distance,
    // ties broken by lowest index. Deterministic — no RNG consumed.
    std::size_t best_index = pool_configs_.size();
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < pool_configs_.size(); ++i) {
      if (visited_.count(config_fingerprint(pool_configs_[i])) > 0) continue;
      double dist = 0.0;
      for (std::size_t d = 0; d < center.size(); ++d) {
        const double delta = pool_encoded_[i][d] - center[d];
        dist += delta * delta;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best_index = i;
      }
    }
    if (best_index == pool_configs_.size()) return std::nullopt;
    trial.config = pool_configs_[best_index];
    trial.config_index = best_index;
    return trial;
  }
  // Continuous mode: perturb one encoded coordinate with a pure per-step
  // stream, clamp to the unit cube, decode, and snap onto the space.
  if (space_.num_dims() == 0) return std::nullopt;
  Rng step_rng = rng_.split(salts::kLocalSearch + steps_taken_);
  std::vector<double> encoded = center;
  const std::size_t dim = static_cast<std::size_t>(step_rng.uniform_int(
      0, static_cast<std::int64_t>(space_.num_dims()) - 1));
  encoded[dim] += step_rng.normal(0.0, options_.step_scale);
  encoded[dim] = std::min(1.0, std::max(0.0, encoded[dim]));
  trial.config = space_.project(space_.decode(encoded));
  return trial;
}

std::optional<Trial> LocalSearchTuner::ask() {
  if (!inner_->done()) {
    std::optional<Trial> trial = inner_->ask();
    if (trial.has_value()) return trial;
    if (!inner_->done()) return std::nullopt;  // inner is mid-rung, not over
  }
  if (outstanding_.has_value()) return std::nullopt;
  if (!incumbent_.has_value() || exhausted_ ||
      steps_taken_ >= options_.max_steps) {
    return std::nullopt;
  }
  std::optional<Trial> trial = propose_neighbor();
  if (!trial.has_value()) {
    exhausted_ = true;
    return std::nullopt;
  }
  ++steps_taken_;
  outstanding_ = trial;
  return trial;
}

void LocalSearchTuner::tell(const Trial& trial, double objective) {
  visited_.insert(config_fingerprint(trial.config));
  if (objective < incumbent_objective_) {
    incumbent_objective_ = objective;
    incumbent_ = trial;
  }
  if (trial.id >= kMiddlewareIdBase) {
    // A refinement trial of ours: the inner tuner's model must never see
    // configs it did not propose.
    FEDTUNE_CHECK(outstanding_.has_value() && outstanding_->id == trial.id);
    outstanding_.reset();
    return;
  }
  inner_->tell(trial, objective);
}

bool LocalSearchTuner::done() const {
  if (!inner_->done() || outstanding_.has_value()) return false;
  return exhausted_ || !incumbent_.has_value() ||
         steps_taken_ >= options_.max_steps;
}

std::optional<Trial> LocalSearchTuner::best_trial() const {
  if (incumbent_.has_value()) return incumbent_;
  return inner_->best_trial();
}

std::size_t LocalSearchTuner::planned_evaluations() const {
  return inner_->planned_evaluations() + options_.max_steps;
}

}  // namespace fedtune::hpo

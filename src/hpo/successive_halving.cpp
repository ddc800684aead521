#include "hpo/successive_halving.hpp"

#include "common/check.hpp"

namespace fedtune::hpo {

ConfigProposal uniform_pool_draw(std::span<const Config> configs, Rng& rng) {
  FEDTUNE_CHECK(!configs.empty());
  ConfigProposal p;
  p.config_index = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(configs.size()) - 1));
  p.config = configs[p.config_index];
  return p;
}

ConfigProvider uniform_pool_provider(std::span<const Config> configs) {
  return [configs](Rng& rng) {
    return uniform_pool_draw(configs, rng);
  };
}

ShaSchedule sha_schedule(const ShaBracketParams& params) {
  FEDTUNE_CHECK(params.n0 > 0 && params.eta >= 2 && params.r0 > 0);
  FEDTUNE_CHECK(params.r0 <= params.max_rounds);
  ShaSchedule s;
  std::size_t n = params.n0;
  std::size_t r = params.r0;
  std::size_t prev_r = 0;
  for (;;) {
    s.rung_rounds.push_back(r);
    s.rung_sizes.push_back(n);
    s.total_evaluations += n;
    s.total_training_rounds += n * (r - prev_r);
    const std::size_t promoted = n / params.eta;
    if (promoted >= 1 && r * params.eta <= params.max_rounds) {
      ++s.selection_events;  // promotion selection
      n = promoted;
      prev_r = r;
      r *= params.eta;
    } else {
      ++s.selection_events;  // final top-1 selection
      break;
    }
  }
  return s;
}

SuccessiveHalving::SuccessiveHalving(ShaBracketParams params,
                                     ConfigProvider provider, Rng rng,
                                     int first_trial_id)
    : params_(params), provider_(std::move(provider)), rng_(rng),
      next_trial_id_(first_trial_id), schedule_(sha_schedule(params)) {
  FEDTUNE_CHECK(provider_ != nullptr);
  // Seed rung 0.
  rung_.reserve(params_.n0);
  for (std::size_t i = 0; i < params_.n0; ++i) {
    ConfigProposal proposal = provider_(rng_);
    Entry e;
    e.trial.id = next_trial_id_++;
    e.trial.config = std::move(proposal.config);
    e.trial.config_index = proposal.config_index;
    e.trial.target_rounds = params_.r0;
    rung_.push_back(std::move(e));
  }
}

bool SuccessiveHalving::rung_complete() const {
  for (const Entry& e : rung_) {
    if (!e.objective.has_value()) return false;
  }
  return next_to_issue_ >= rung_.size();
}

std::optional<Trial> SuccessiveHalving::ask() {
  if (finished_) return std::nullopt;
  if (next_to_issue_ < rung_.size()) {
    return rung_[next_to_issue_++].trial;
  }
  return std::nullopt;  // waiting for tell() or already advanced
}

void SuccessiveHalving::tell(const Trial& trial, double objective) {
  FEDTUNE_CHECK(!finished_);
  bool found = false;
  for (Entry& e : rung_) {
    if (e.trial.id == trial.id) {
      FEDTUNE_CHECK_MSG(!e.objective.has_value(),
                        "trial " << trial.id << " told twice");
      e.objective = objective;
      found = true;
      break;
    }
  }
  FEDTUNE_CHECK_MSG(found, "unknown trial id " << trial.id);
  if (rung_complete()) advance_rung();
}

void SuccessiveHalving::advance_rung() {
  // Selection over the rung's accuracies.
  std::vector<double> accuracies;
  accuracies.reserve(rung_.size());
  for (const Entry& e : rung_) accuracies.push_back(1.0 - *e.objective);

  const std::size_t n = rung_.size();
  const std::size_t promoted = n / params_.eta;
  const std::size_t r = schedule_.rung_rounds[rung_index_];

  if (promoted >= 1 && r * params_.eta <= params_.max_rounds) {
    const std::vector<std::size_t> top = selector_(accuracies, promoted);
    std::vector<Entry> next;
    next.reserve(top.size());
    for (std::size_t i : top) {
      Entry e;
      e.trial.id = next_trial_id_++;
      e.trial.config = rung_[i].trial.config;
      e.trial.config_index = rung_[i].trial.config_index;
      e.trial.parent_id = rung_[i].trial.id;
      e.trial.target_rounds = r * params_.eta;
      next.push_back(std::move(e));
    }
    rung_ = std::move(next);
    ++rung_index_;
    next_to_issue_ = 0;
  } else {
    const std::vector<std::size_t> top = selector_(accuracies, 1);
    winner_ = rung_[top.front()].trial;
    winner_objective_ = *rung_[top.front()].objective;
    finished_ = true;
  }
}

bool SuccessiveHalving::done() const { return finished_; }

std::optional<Trial> SuccessiveHalving::best_trial() const {
  return winner_;
}

double SuccessiveHalving::best_objective() const {
  FEDTUNE_CHECK_MSG(winner_.has_value(), "bracket not finished");
  return winner_objective_;
}

std::size_t SuccessiveHalving::planned_evaluations() const {
  return schedule_.total_evaluations;
}

std::size_t SuccessiveHalving::planned_selection_events() const {
  return schedule_.selection_events;
}

}  // namespace fedtune::hpo

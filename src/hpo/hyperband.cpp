#include "hpo/hyperband.hpp"

#include <cmath>

#include "common/check.hpp"

namespace fedtune::hpo {

std::vector<ShaBracketParams> hyperband_brackets(const HyperbandOptions& opts) {
  FEDTUNE_CHECK(opts.eta >= 2 && opts.r0 > 0 && opts.max_rounds >= opts.r0);
  const double ratio = static_cast<double>(opts.max_rounds) /
                       static_cast<double>(opts.r0);
  const auto s_max = static_cast<std::size_t>(
      std::floor(std::log(ratio) / std::log(static_cast<double>(opts.eta)) +
                 1e-9));
  std::vector<ShaBracketParams> brackets;
  for (std::size_t s = s_max + 1; s-- > 0;) {
    ShaBracketParams b;
    b.eta = opts.eta;
    b.max_rounds = opts.max_rounds;
    // r_s = R * eta^{-s}
    b.r0 = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(opts.max_rounds) /
               std::pow(static_cast<double>(opts.eta), static_cast<double>(s)))));
    // n_s = ceil((s_max+1)/(s+1) * eta^s)
    b.n0 = static_cast<std::size_t>(std::ceil(
        static_cast<double>(s_max + 1) / static_cast<double>(s + 1) *
        std::pow(static_cast<double>(opts.eta), static_cast<double>(s))));
    brackets.push_back(b);
  }
  return brackets;
}

Hyperband::Hyperband(SearchSpace space, HyperbandOptions opts, Rng rng)
    : space_(std::move(space)), opts_(opts), rng_(rng),
      bracket_params_(hyperband_brackets(opts)) {
  provider_ = default_provider();
}

ConfigProvider Hyperband::default_provider() {
  return [this](Rng& rng) {
    if (pool_.has_value()) return uniform_pool_draw(pool_->configs, rng);
    ConfigProposal p;
    p.config = space_.sample(rng);
    return p;
  };
}

void Hyperband::set_candidate_pool(CandidatePool pool) {
  FEDTUNE_CHECK(!pool.configs.empty());
  FEDTUNE_CHECK_MSG(current_ == nullptr, "pool must be set before tuning starts");
  pool_ = std::move(pool);
}

void Hyperband::set_provider(ConfigProvider provider) {
  FEDTUNE_CHECK(provider != nullptr);
  FEDTUNE_CHECK_MSG(current_ == nullptr, "provider must be set before tuning starts");
  provider_ = std::move(provider);
}

void Hyperband::set_selector(TopKSelector selector) {
  Tuner::set_selector(std::move(selector));
  if (current_ != nullptr) current_->set_selector(selector_);
}

void Hyperband::open_next_bracket() {
  FEDTUNE_CHECK(next_bracket_ < bracket_params_.size());
  current_ = std::make_unique<SuccessiveHalving>(
      bracket_params_[next_bracket_], provider_, rng_.split(next_bracket_),
      next_trial_id_);
  current_->set_selector(selector_);
  ++next_bracket_;
}

void Hyperband::close_bracket() {
  // done() implies the bracket named its winner.
  bracket_winners_.emplace_back(current_->best_trial().value(),
                                current_->best_objective());
  next_trial_id_ = current_->next_trial_id();
  current_.reset();
}

std::optional<Trial> Hyperband::ask() {
  for (;;) {
    if (current_ == nullptr) {
      if (next_bracket_ >= bracket_params_.size()) return std::nullopt;
      open_next_bracket();
    }
    if (auto trial = current_->ask()) return trial;
    if (current_->done()) {
      close_bracket();
      continue;  // next bracket
    }
    // Waiting on tell() for the current rung.
    return std::nullopt;
  }
}

void Hyperband::tell(const Trial& trial, double objective) {
  FEDTUNE_CHECK_MSG(current_ != nullptr, "no active bracket");
  current_->tell(trial, objective);
  if (current_->done()) close_bracket();
}

bool Hyperband::done() const {
  return current_ == nullptr && next_bracket_ >= bracket_params_.size();
}

std::optional<Trial> Hyperband::best_trial() const {
  if (bracket_winners_.empty()) return std::nullopt;
  // Winners' (already privately released) objectives decide the final pick.
  std::size_t best = 0;
  for (std::size_t i = 1; i < bracket_winners_.size(); ++i) {
    if (bracket_winners_[i].second < bracket_winners_[best].second) best = i;
  }
  return bracket_winners_[best].first;
}

std::size_t Hyperband::planned_evaluations() const {
  std::size_t total = 0;
  for (const auto& b : bracket_params_) total += sha_schedule(b).total_evaluations;
  return total;
}

std::size_t Hyperband::planned_selection_events() const {
  std::size_t total = 0;
  for (const auto& b : bracket_params_) {
    total += sha_schedule(b).selection_events;
  }
  return total;
}

}  // namespace fedtune::hpo

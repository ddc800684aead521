// Hyperband (Li et al., 2017): a sweep of Successive-Halving brackets
// trading off exploration (many configs, low fidelity) against exploitation
// (few configs, full fidelity). With eta = 3, r0 = 1, R = 81 this yields the
// paper's "5 brackets of SHA with elimination factor 3".
#pragma once

#include <memory>
#include <optional>

#include "hpo/successive_halving.hpp"
#include "hpo/tuner.hpp"

namespace fedtune::hpo {

struct HyperbandOptions {
  std::size_t eta = 3;
  std::size_t r0 = 1;          // minimum resource (rounds)
  std::size_t max_rounds = 81; // R
};

// Bracket parameters for bracket s (s = s_max .. 0).
std::vector<ShaBracketParams> hyperband_brackets(const HyperbandOptions& opts);

class Hyperband : public Tuner {
 public:
  Hyperband(SearchSpace space, HyperbandOptions opts, Rng rng);

  // Draw configurations from a finite pool (with replacement).
  void set_candidate_pool(CandidatePool pool);
  // Custom proposal engine (used by BOHB); replaces random sampling.
  void set_provider(ConfigProvider provider);
  void set_selector(TopKSelector selector) override;

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::optional<Trial> best_trial() const override;
  std::size_t planned_evaluations() const override;
  std::size_t planned_selection_events() const override;

 private:
  ConfigProvider default_provider();
  void open_next_bracket();
  void close_bracket();  // records the finished bracket's winner

  SearchSpace space_;
  HyperbandOptions opts_;
  Rng rng_;
  std::vector<ShaBracketParams> bracket_params_;
  std::optional<CandidatePool> pool_;
  ConfigProvider provider_;
  int next_trial_id_ = 0;  // first id of the next bracket

  std::unique_ptr<SuccessiveHalving> current_;
  std::size_t next_bracket_ = 0;
  std::vector<std::pair<Trial, double>> bracket_winners_;
};

}  // namespace fedtune::hpo

// Successive Halving (SHA) — the elimination subroutine of Hyperband
// (Appendix A of the paper).
//
// A bracket starts with n0 configurations trained for r0 rounds; at each
// rung the top floor(n/eta) survive (a selection event, routed through the
// TopKSelector so DP one-shot top-k can be injected) and their training
// resumes to eta times the resource. The final rung ends with a top-1
// selection naming the bracket winner.
#pragma once

#include <functional>
#include <optional>

#include "hpo/tuner.hpp"

namespace fedtune::hpo {

struct ShaBracketParams {
  std::size_t n0 = 9;          // initial configurations
  std::size_t eta = 3;         // elimination rate
  std::size_t r0 = 1;          // rounds at the first rung
  std::size_t max_rounds = 81; // fidelity ceiling R
};

// Configuration proposals (random for HB, model-based for BOHB). The index
// is the candidate-pool index or SIZE_MAX for continuous proposals.
struct ConfigProposal {
  Config config;
  std::size_t config_index = std::numeric_limits<std::size_t>::max();
};
using ConfigProvider = std::function<ConfigProposal(Rng&)>;

// One uniform with-replacement draw from a candidate pool — the proposal
// shared by Hyperband's pool mode, standalone SHA brackets, and the
// StudyService (whose replay contract depends on every pool tuner using
// this exact draw sequence).
ConfigProposal uniform_pool_draw(std::span<const Config> configs, Rng& rng);
// The draw as a ConfigProvider. Borrows the configs like CandidatePool: they
// must outlive the provider.
ConfigProvider uniform_pool_provider(std::span<const Config> configs);

// Rung arithmetic, exposed for planning and tests: the resource at each rung
// and the number of entrants per rung.
struct ShaSchedule {
  std::vector<std::size_t> rung_rounds;   // cumulative rounds per rung
  std::vector<std::size_t> rung_sizes;    // configs evaluated per rung
  std::size_t total_evaluations = 0;
  std::size_t selection_events = 0;       // promotions + final top-1
  std::size_t total_training_rounds = 0;  // accounting for resumed training
};
ShaSchedule sha_schedule(const ShaBracketParams& params);

class SuccessiveHalving final : public Tuner {
 public:
  // Trials are numbered first_trial_id, first_trial_id + 1, ... in issue
  // order; Hyperband starts each bracket at the previous one's
  // next_trial_id() so ids stay unique across brackets.
  SuccessiveHalving(ShaBracketParams params, ConfigProvider provider,
                    Rng rng, int first_trial_id = 0);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::optional<Trial> best_trial() const override;
  std::size_t planned_evaluations() const override;
  std::size_t planned_selection_events() const override;

  // Winner's objective at the final rung (valid when done()).
  double best_objective() const;
  // The id the next created trial will get.
  int next_trial_id() const { return next_trial_id_; }

 private:
  struct Entry {
    Trial trial;
    std::optional<double> objective;
  };

  void advance_rung();  // selection + promotion once a rung completes
  bool rung_complete() const;

  ShaBracketParams params_;
  ConfigProvider provider_;
  Rng rng_;
  int next_trial_id_;
  ShaSchedule schedule_;

  std::vector<Entry> rung_;        // entries at the current rung
  std::size_t rung_index_ = 0;
  std::size_t next_to_issue_ = 0;  // within rung_
  bool finished_ = false;
  std::optional<Trial> winner_;
  double winner_objective_ = 1.0;
};

}  // namespace fedtune::hpo

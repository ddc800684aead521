// TuningDriver — runs any Tuner against any TrialRunner under a NoiseModel.
//
// This is Algorithm 2 generalized: the driver owns budget accounting (in
// training rounds), the noisy evaluation of every trial, the DP plumbing
// (per-evaluation Laplace for RS/TPE-style methods, one-shot top-k selection
// for rung-based methods), and the online "incumbent" curve plotted in
// Figures 5, 8 and 12 (full validation error of the configuration the tuner
// currently believes best).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/eval_cache.hpp"
#include "core/noise_model.hpp"
#include "core/noisy_evaluator.hpp"
#include "core/trial_runner.hpp"
#include "hpo/tuner.hpp"

namespace fedtune::core {

// DP style per method family (§3.3): RS/TPE privatize every evaluation;
// HB/BOHB select survivors with the one-shot Laplace top-k mechanism.
enum class DpStyle { kPerEvaluation, kOneShotTopK };

struct DriverOptions {
  NoiseModel noise;
  DpStyle dp_style = DpStyle::kPerEvaluation;
  // Stop issuing new trials once consumed rounds reach this budget.
  std::size_t budget_rounds = std::numeric_limits<std::size_t>::max();
  // Stop issuing new trials once this many have been issued. The cap also
  // bounds the planned evaluation count M the per-evaluation privacy budget
  // epsilon / M is split over: M = min(tuner plan, max_trials).
  std::size_t max_trials = std::numeric_limits<std::size_t>::max();
  std::uint64_t seed = 0;
};

struct TrialRecord {
  hpo::Trial trial;
  double noisy_objective = 1.0;
  double full_error = 1.0;           // ground truth at the trial's fidelity
  std::size_t cumulative_rounds = 0; // budget consumed after this trial
};

struct CurvePoint {
  std::size_t rounds = 0;   // cumulative training rounds
  double full_error = 1.0;  // full-eval error of the current incumbent
};

struct TuneResult {
  std::vector<TrialRecord> records;
  std::vector<CurvePoint> incumbent_curve;
  std::optional<hpo::Trial> best;  // tuner's final selection
  double best_full_error = 1.0;    // ground truth of that selection
  std::size_t rounds_used = 0;
};

TuneResult run_tuning(hpo::Tuner& tuner, TrialRunner& runner,
                      const DriverOptions& opts);

// TuningSession — the driver loop factored into single steps, so a caller
// (service/study_manager.hpp) can interleave many studies on one thread
// pool, journal each step, and replay a journal to recover a crashed study.
//
// Two construction modes:
//   - managed: the session owns the noisy evaluation; step() (or
//     ask() + run_outstanding()) performs one ask → evaluate → tell.
//   - external: no runner/evaluator; the caller evaluates trials out of
//     process and reports objectives via ask() + tell_outstanding().
//
// At most one trial is outstanding at a time. run_tuning() is this class
// run to completion; its trajectories are unchanged.
//
// Replay contract: evaluation i draws its own RNG stream (see NoisyEvaluator),
// so the entire session state — tuner, evaluator, incumbent bookkeeping — is a
// pure function of (tuner construction, DriverOptions, the sequence of
// completed TrialRecords). replay() re-derives the tuner's ask stream,
// verifies it matches the journaled trial, fast-forwards the evaluator, and
// applies the recorded outcome; after replaying a journal's records the
// session continues bitwise identically to a run that never stopped.
class TuningSession {
 public:
  // Managed mode. `tuner` and `runner` must outlive the session.
  TuningSession(hpo::Tuner& tuner, TrialRunner& runner,
                const DriverOptions& opts);
  // The same, for perfbench/src/figures.cpp, which still passes the retired
  // evaluation-stream flag as `true`. Rejects `false`: there is one stream.
  TuningSession(hpo::Tuner& tuner, TrialRunner& runner,
                const DriverOptions& opts, bool pure_eval_streams);
  // External mode: objectives come from the caller.
  TuningSession(hpo::Tuner& tuner, const DriverOptions& opts);

  // True once no further trial will be issued: the tuner is finished, the
  // trial cap is reached, or the round budget is exhausted. The final
  // selection is still available via finalize().
  bool done() const {
    return no_more_ || exhausted_ || trials_issued_ >= opts_.max_trials ||
           tuner_->done();
  }
  bool budget_exhausted() const { return exhausted_; }
  bool has_outstanding() const { return outstanding_.has_value(); }
  const std::optional<hpo::Trial>& outstanding() const { return outstanding_; }

  // Issues the next trial (nullopt when done; marks budget exhaustion).
  // Requires no outstanding trial.
  std::optional<hpo::Trial> ask();
  // Managed: evaluates the outstanding trial and tells the tuner.
  TrialRecord run_outstanding();
  // External: applies a caller-computed objective to the outstanding trial
  // (full_error is recorded as the objective itself — the service has no
  // ground-truth oracle for external workloads).
  TrialRecord tell_outstanding(double objective);
  // Managed convenience: ask() + run_outstanding(); nullopt when done.
  std::optional<TrialRecord> step();

  // Applies a journaled step: re-asks the tuner (verifying the journal
  // matches the replayed trial), fast-forwards the evaluator, and applies
  // the recorded outcome. `reexecute_runner` re-runs the trial on the
  // runner first — required for live runners whose in-memory checkpoints
  // future promotions resume from; pool runners are stateless, skip it.
  // With a cache installed, the journaled outcome is re-inserted into the
  // store (first write wins), so the cache state the study observes after
  // replay matches what the uninterrupted run had observed.
  void replay(const TrialRecord& record, bool reexecute_runner = false);

  // Evaluation cache (managed mode only). When set, run_outstanding() consults
  // the store before scheduling an evaluation: a hit at (fingerprint,
  // target_rounds, noise_signature) is applied as the recorded outcome with
  // ZERO rounds consumed and zero live evaluations (the evaluator charges
  // budget/privacy as if it evaluated — see NoisyEvaluator::serve_cached). A
  // miss evaluates live and stages the outcome; the caller commits it with
  // commit_cache_insert() once the tell is durable (see the contract note in
  // hpo/tuner.hpp — inserting before durability would let an unjournaled step
  // leak into the shared store and change hit/miss decisions across a crash).
  // Driverless callers commit immediately after each step.
  void set_eval_cache(EvalStore* store, std::uint64_t noise_signature);
  // Inserts the staged (key, outcome) of the last miss, if any. Idempotent.
  void commit_cache_insert();

  // Result so far (records, incumbent curve, rounds). finalize() appends
  // the tuner's final selection and returns the completed result.
  const TuneResult& partial_result() const { return result_; }
  TuneResult finalize();

  std::size_t steps() const { return result_.records.size(); }
  // M: the evaluations the privacy budget is split over (and the noise
  // signature namespaces by) — the tuner's plan, capped by max_trials.
  std::size_t planned_evaluations() const;
  std::size_t rounds_used() const { return result_.rounds_used; }
  const NoisyEvaluator* evaluator() const {
    return evaluator_ ? &*evaluator_ : nullptr;
  }

 private:
  TrialRecord apply_outcome(const hpo::Trial& trial, double noisy_objective,
                            double full_error, std::size_t cumulative_rounds);

  EvalKey cache_key_for(const hpo::Trial& trial) const;

  hpo::Tuner* tuner_;
  TrialRunner* runner_ = nullptr;  // null in external mode
  DriverOptions opts_;
  std::optional<Rng> selector_rng_;          // outlives the DP selector
  std::optional<NoisyEvaluator> evaluator_;  // managed mode only
  EvalStore* eval_cache_ = nullptr;
  std::uint64_t cache_signature_ = 0;
  // Last miss's outcome, staged until the caller confirms the tell durable.
  std::optional<std::pair<EvalKey, EvalOutcome>> pending_insert_;
  TuneResult result_;
  double best_noisy_ = std::numeric_limits<double>::infinity();
  std::optional<hpo::Trial> outstanding_;
  std::size_t trials_issued_ = 0;  // successful tuner asks, replay included
  bool no_more_ = false;    // tuner finished / returned nullopt
  bool exhausted_ = false;  // budget cap reached
};

// The DP selection mechanism injected for rung-based tuners: one-shot
// Laplace top-k with T = planned selection events and |S| clients per
// evaluation. `rng` must outlive the selector.
hpo::TopKSelector make_dp_top_k_selector(double epsilon_total,
                                         std::size_t selection_events,
                                         std::size_t clients_per_eval,
                                         Rng* rng);

}  // namespace fedtune::core

#include "core/tuning_driver.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "privacy/topk.hpp"

namespace fedtune::core {

hpo::TopKSelector make_dp_top_k_selector(double epsilon_total,
                                         std::size_t selection_events,
                                         std::size_t clients_per_eval,
                                         Rng* rng) {
  FEDTUNE_CHECK(rng != nullptr);
  privacy::OneShotTopKParams params;
  params.epsilon_total = epsilon_total;
  params.total_rounds = selection_events;
  params.num_clients = clients_per_eval;
  return [params, rng](std::span<const double> accuracies, std::size_t k) {
    return privacy::one_shot_top_k(accuracies, k, params, *rng);
  };
}

// ----------------------------------------------------------- TuningSession --

TuningSession::TuningSession(hpo::Tuner& tuner, TrialRunner& runner,
                             const DriverOptions& opts, bool pure_eval_streams)
    : tuner_(&tuner), runner_(&runner), opts_(opts) {
  Rng rng(opts.seed);
  Rng eval_rng = rng.split(1);
  selector_rng_ = rng.split(2);

  const std::size_t num_clients =
      opts.noise.is_full_eval() ? runner.client_weights().size()
                                : opts.noise.eval_clients;

  // DP wiring. Per-evaluation noise goes through the NoisyEvaluator; the
  // one-shot style leaves evaluations clean and privatizes every selection
  // event instead.
  NoiseModel eval_noise = opts.noise;
  if (opts.noise.is_private() && opts.dp_style == DpStyle::kOneShotTopK) {
    eval_noise.epsilon = std::numeric_limits<double>::infinity();
    eval_noise.weighting = fl::Weighting::kUniform;  // keep sensitivity bound
    tuner.set_selector(make_dp_top_k_selector(
        opts.noise.epsilon, tuner.planned_selection_events(), num_clients,
        &*selector_rng_));
  }

  evaluator_.emplace(eval_noise, runner.client_weights(),
                     planned_evaluations(), eval_rng, pure_eval_streams);
}

TuningSession::TuningSession(hpo::Tuner& tuner, const DriverOptions& opts)
    : tuner_(&tuner), opts_(opts) {
  FEDTUNE_CHECK_MSG(!opts.noise.is_private() ||
                        opts.dp_style != DpStyle::kOneShotTopK,
                    "one-shot DP selection needs a managed evaluator");
}

std::size_t TuningSession::planned_evaluations() const {
  return std::min(tuner_->planned_evaluations(), opts_.max_trials);
}

std::optional<hpo::Trial> TuningSession::ask() {
  FEDTUNE_CHECK_MSG(!outstanding_.has_value(),
                    "previous trial not yet completed");
  // The trial cap is checked before the tuner is asked, so a capped tuner
  // never issues (or advances its state past) the first trial beyond it.
  if (done()) return std::nullopt;
  std::optional<hpo::Trial> trial = tuner_->ask();
  if (!trial.has_value()) {
    no_more_ = true;
    return std::nullopt;
  }
  ++trials_issued_;
  // Budget check mirrors run_tuning's historical order (after the ask), so
  // trajectories are unchanged: the crossing ask is issued, then discarded.
  if (result_.rounds_used >= opts_.budget_rounds) {
    exhausted_ = true;
    return std::nullopt;
  }
  outstanding_ = std::move(trial);
  return outstanding_;
}

TrialRecord TuningSession::apply_outcome(const hpo::Trial& trial,
                                         double noisy_objective,
                                         double full_error,
                                         std::size_t cumulative_rounds) {
  result_.rounds_used = cumulative_rounds;

  TrialRecord record;
  record.trial = trial;
  record.noisy_objective = noisy_objective;
  record.full_error = full_error;
  record.cumulative_rounds = cumulative_rounds;
  result_.records.push_back(record);

  // Incumbent: best noisy objective seen so far (what a practitioner
  // tracking the tuner's own signal would deploy).
  if (noisy_objective < best_noisy_) {
    best_noisy_ = noisy_objective;
    result_.incumbent_curve.push_back({cumulative_rounds, full_error});
  } else if (!result_.incumbent_curve.empty()) {
    result_.incumbent_curve.push_back(
        {cumulative_rounds, result_.incumbent_curve.back().full_error});
  }

  tuner_->tell(trial, noisy_objective);
  outstanding_.reset();
  return record;
}

void TuningSession::set_eval_cache(EvalStore* store,
                                   std::uint64_t noise_signature) {
  FEDTUNE_CHECK_MSG(store == nullptr || runner_ != nullptr,
                    "eval cache requires a managed session");
  eval_cache_ = store;
  cache_signature_ = noise_signature;
}

EvalKey TuningSession::cache_key_for(const hpo::Trial& trial) const {
  return EvalKey{config_fingerprint(trial.config),
                 static_cast<std::uint64_t>(trial.target_rounds),
                 cache_signature_};
}

void TuningSession::commit_cache_insert() {
  if (!pending_insert_.has_value()) return;
  if (eval_cache_ != nullptr) {
    eval_cache_->insert(pending_insert_->first, pending_insert_->second);
  }
  pending_insert_.reset();
}

TrialRecord TuningSession::run_outstanding() {
  FEDTUNE_CHECK_MSG(outstanding_.has_value(), "no outstanding trial");
  FEDTUNE_CHECK_MSG(runner_ != nullptr,
                    "external session: use tell_outstanding()");
  const hpo::Trial trial = *outstanding_;

  if (eval_cache_ != nullptr) {
    const EvalKey key = cache_key_for(trial);
    if (const std::optional<EvalOutcome> hit = eval_cache_->lookup(key)) {
      // Hit: the stored outcome is what a live evaluation at this fidelity
      // would have produced (first writer's draw). Zero rounds consumed —
      // that is the entire throughput win — and the evaluator charges the
      // budget/privacy slot without computing anything.
      evaluator_->serve_cached();
      return apply_outcome(trial, hit->noisy_objective, hit->full_error,
                           result_.rounds_used);
    }
    evaluator_->record_cache_miss();
    const std::vector<double> errors = runner_->run(trial);
    const std::size_t cumulative =
        result_.rounds_used + runner_->rounds_consumed(trial);
    const double noisy = evaluator_->evaluate(errors);
    const double full = evaluator_->full_error(errors);
    // Stage the insert; it lands only once the caller confirms the tell is
    // durable (commit_cache_insert) so the shared store never learns of a
    // step a crash could erase.
    pending_insert_ = {key, EvalOutcome{noisy, full}};
    return apply_outcome(trial, noisy, full, cumulative);
  }

  const std::vector<double> errors = runner_->run(trial);
  const std::size_t cumulative =
      result_.rounds_used + runner_->rounds_consumed(trial);
  const double noisy = evaluator_->evaluate(errors);
  const double full = evaluator_->full_error(errors);
  return apply_outcome(trial, noisy, full, cumulative);
}

TrialRecord TuningSession::tell_outstanding(double objective) {
  FEDTUNE_CHECK_MSG(outstanding_.has_value(), "no outstanding trial");
  FEDTUNE_CHECK_MSG(runner_ == nullptr,
                    "managed session: use run_outstanding()");
  const hpo::Trial trial = *outstanding_;
  // External workloads consume their stated fidelity; resumes are the
  // parent-relative delta on a {r0 * eta^k} grid, mirroring PoolTrialRunner.
  std::size_t consumed = trial.target_rounds;
  if (trial.parent_id >= 0) {
    for (const TrialRecord& r : result_.records) {
      if (r.trial.id == trial.parent_id) {
        consumed = trial.target_rounds - r.trial.target_rounds;
        break;
      }
    }
  }
  return apply_outcome(trial, objective, objective,
                       result_.rounds_used + consumed);
}

std::optional<TrialRecord> TuningSession::step() {
  if (!ask().has_value()) return std::nullopt;
  return run_outstanding();
}

void TuningSession::replay(const TrialRecord& record, bool reexecute_runner) {
  const std::optional<hpo::Trial> trial = ask();
  FEDTUNE_CHECK_MSG(trial.has_value(),
                    "journal has more steps than the tuner will issue");
  FEDTUNE_CHECK_MSG(trial->id == record.trial.id &&
                        trial->config_index == record.trial.config_index &&
                        trial->target_rounds == record.trial.target_rounds &&
                        trial->parent_id == record.trial.parent_id,
                    "journal step " << result_.records.size()
                                    << " does not match the replayed tuner "
                                       "(trial " << trial->id << " vs journal "
                                    << record.trial.id << ")");
  if (reexecute_runner && runner_ != nullptr) {
    // Live runners keep in-memory checkpoints future promotions resume
    // from; deterministic re-execution rebuilds them. Pool runners are
    // stateless — callers skip this.
    runner_->run(*trial);
  }
  if (evaluator_) evaluator_->skip_evaluation();
  // Re-insert the journaled outcome into the cache (first write wins, so
  // this is a no-op when the entry survived). Replay never CONSULTS the
  // cache — the journal is authoritative — but re-inserting makes the
  // cache state this study observes a pure function of (cache at admission,
  // durable journal prefix), so post-replay hit/miss decisions match the
  // uninterrupted run.
  if (eval_cache_ != nullptr) {
    eval_cache_->insert(cache_key_for(*trial),
                        EvalOutcome{record.noisy_objective,
                                    record.full_error});
  }
  apply_outcome(*trial, record.noisy_objective, record.full_error,
                record.cumulative_rounds);
}

TuneResult TuningSession::finalize() {
  // Final selection: the tuner's own pick (which saw only noisy signal).
  if (!result_.records.empty()) {
    if (const std::optional<hpo::Trial> best = tuner_->best_trial()) {
      result_.best = best;
      for (const TrialRecord& r : result_.records) {
        if (r.trial.id == best->id) {
          result_.best_full_error = r.full_error;
          break;
        }
      }
    }
  }
  return result_;
}

TuneResult run_tuning(hpo::Tuner& tuner, TrialRunner& runner,
                      const DriverOptions& opts) {
  TuningSession session(tuner, runner, opts);
  while (session.step().has_value()) {
  }
  return session.finalize();
}

}  // namespace fedtune::core

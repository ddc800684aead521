#include "service/study.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/rng_salts.hpp"
#include "core/hp_mapping.hpp"
#include "hpo/bohb.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/random_search.hpp"
#include "hpo/successive_halving.hpp"
#include "hpo/tpe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/method_runner.hpp"

namespace fedtune::service {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

sim::Method to_sim_method(StudyMethod m) {
  switch (m) {
    case StudyMethod::kRandomSearch: return sim::Method::kRandomSearch;
    case StudyMethod::kTpe: return sim::Method::kTpe;
    case StudyMethod::kHyperband: return sim::Method::kHyperband;
    case StudyMethod::kBohb: return sim::Method::kBohb;
    case StudyMethod::kSha: break;
  }
  FEDTUNE_CHECK_MSG(false, "no sim method for SHA");
  return sim::Method::kRandomSearch;
}

}  // namespace

std::unique_ptr<hpo::Tuner> make_study_tuner(const StudySpec& spec,
                                             const PoolResources* pool,
                                             Rng rng) {
  FEDTUNE_CHECK(spec.num_configs > 0);
  if (!spec.external) {
    FEDTUNE_CHECK_MSG(pool != nullptr, "managed study needs a pool");
    if (spec.method == StudyMethod::kSha) {
      return sim::make_pool_sha_tuner(pool->configs, pool->view,
                                      spec.num_configs, rng);
    }
    return sim::make_pool_tuner(to_sim_method(spec.method), pool->configs,
                                pool->view, spec.num_configs, rng);
  }

  // External studies search the continuous Appendix-B space on the spec's
  // fidelity grid; the tenant evaluates each trial out of process.
  hpo::SearchSpace space = hpo::appendix_b_space();
  switch (spec.method) {
    case StudyMethod::kRandomSearch:
      return std::make_unique<hpo::RandomSearch>(
          std::move(space), spec.num_configs, spec.rounds_per_config, rng);
    case StudyMethod::kTpe:
      return std::make_unique<hpo::Tpe>(std::move(space), spec.num_configs,
                                        spec.rounds_per_config,
                                        hpo::TpeOptions{}, rng);
    case StudyMethod::kSha: {
      hpo::ShaBracketParams params;
      params.n0 = spec.num_configs;
      params.eta = 3;
      params.r0 = spec.r0;
      params.max_rounds = spec.max_rounds;
      hpo::SearchSpace provider_space = space;
      hpo::ConfigProvider provider = [provider_space](Rng& provider_rng) {
        hpo::ConfigProposal p;
        p.config = provider_space.sample(provider_rng);
        return p;
      };
      return std::make_unique<hpo::SuccessiveHalving>(
          params, std::move(provider), rng);
    }
    case StudyMethod::kHyperband:
      return std::make_unique<hpo::Hyperband>(
          std::move(space), hpo::HyperbandOptions{3, spec.r0, spec.max_rounds},
          rng);
    case StudyMethod::kBohb: {
      hpo::BohbOptions opts;
      opts.hyperband = {3, spec.r0, spec.max_rounds};
      return std::make_unique<hpo::Bohb>(std::move(space), opts, rng);
    }
  }
  FEDTUNE_CHECK_MSG(false, "unknown study method");
  return nullptr;
}

void StudySession::init_engine() {
  const Rng base(spec_.seed);
  tuner_ = make_study_tuner(spec_, pool_.get(), base.split(salts::kStudyTuner));

  core::DriverOptions opts;
  opts.noise = spec_.noise;
  opts.dp_style = core::DpStyle::kPerEvaluation;
  opts.budget_rounds = spec_.budget_rounds;
  opts.max_trials = spec_.max_trials;
  opts.seed = base.split(salts::kStudyDriver).seed();

  if (spec_.external) {
    session_.emplace(*tuner_, opts);
    return;
  }
  runner_.emplace(pool_->view);
  session_.emplace(*tuner_, *runner_, opts);
  if (spec_.use_eval_cache && options_.eval_cache != nullptr) {
    // M (the Laplace split, capped by max_trials) is part of the noise
    // namespace under DP. A study that opts out of warm starts scopes its
    // entries to its own name.
    const std::uint64_t signature = core::noise_signature(
        spec_.noise, session_->planned_evaluations(),
        spec_.warm_start ? std::string() : spec_.name);
    session_->set_eval_cache(options_.eval_cache.get(), signature);
    cache_active_ = true;
  }
}

void StudySession::init_metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::LabelSet labels = {{"study", spec_.name}};
  ask_tell_hist_ = &reg.histogram("fedtune_study_ask_tell_seconds", labels);
  steps_counter_ = &reg.counter("fedtune_study_steps_total", labels);
  retries_counter_ = &reg.counter("fedtune_study_io_retries_total", labels);
  quarantines_counter_ =
      &reg.counter("fedtune_study_quarantines_total", labels);
  epsilon_gauge_ = &reg.gauge("fedtune_study_epsilon_spent", labels);
  trace_name_ =
      obs::TraceRecorder::global().intern("study.step:" + spec_.name);
}

StudySession::StudySession(StudySpec spec,
                           std::shared_ptr<const PoolResources> pool,
                           const std::string& journal_path,
                           SessionOptions options)
    : spec_(std::move(spec)), pool_(std::move(pool)),
      journal_path_(journal_path), options_(std::move(options)),
      jitter_rng_(Rng(spec_.seed).split(salts::kStudyRetryJitter)) {
  FEDTUNE_CHECK_MSG(valid_study_name(spec_.name),
                    "invalid study name '" << spec_.name << "'");
  init_metrics();
  init_engine();
  journal_ = StudyJournal::create(journal_path_, spec_, options_.env,
                                  options_.sync_on_commit);
  wire_journal_sink();
}

StudySession::StudySession(RecoveredStudy recovered,
                           std::shared_ptr<const PoolResources> pool,
                           const std::string& journal_path,
                           SessionOptions options)
    : spec_(std::move(recovered.spec)), pool_(std::move(pool)),
      journal_path_(journal_path), options_(std::move(options)),
      jitter_rng_(Rng(spec_.seed).split(salts::kStudyRetryJitter)) {
  init_metrics();
  init_engine();
  // Deterministic replay: each journaled step re-asks the tuner (verifying
  // the journal matches), fast-forwards the evaluator, and re-applies the
  // recorded outcome. Pool runners are stateless, so nothing is retrained.
  for (const core::TrialRecord& rec : recovered.steps) {
    session_->replay(rec, /*reexecute_runner=*/false);
  }
  journal_ = StudyJournal::append_to(journal_path_, recovered.durable_bytes,
                                     options_.env, options_.sync_on_commit);
  wire_journal_sink();
  if (recovered.finished) {
    final_ = session_->finalize();
    state_ = StudyState::kFinished;
  }
}

void StudySession::wire_journal_sink() {
  if (!options_.journal_sink || !journal_.has_value()) return;
  journal_->set_sink([this](const JournalMutation& m) {
    options_.journal_sink(spec_.name, m);
  });
  // The journal existed before the sink did (create wrote the header +
  // create record; resume reopened a full file): ship the whole file once
  // so followers hold the byte-identical prefix every later kAppend
  // extends.
  JournalMutation m;
  m.kind = JournalMutation::Kind::kRewrite;
  try {
    m.bytes = env_or_real(options_.env).read_file(journal_path_);
  } catch (const IoError&) {
    // Replication must not fail a locally-durable study. A missed rewrite
    // surfaces as an offset mismatch on the next append and the replicator
    // re-syncs with a fresh snapshot then.
    return;
  }
  options_.journal_sink(spec_.name, m);
}

std::size_t StudySession::live_evaluations() const {
  const core::NoisyEvaluator* e = session_->evaluator();
  return e != nullptr ? e->live_evals_performed() : 0;
}

std::size_t StudySession::cache_hits() const {
  const core::NoisyEvaluator* e = session_->evaluator();
  return e != nullptr ? e->cache_hits() : 0;
}

std::size_t StudySession::cache_misses() const {
  const core::NoisyEvaluator* e = session_->evaluator();
  return e != nullptr ? e->cache_misses() : 0;
}

void StudySession::quarantine(const IoError& e, const char* what) {
  last_error_ = std::string(what) + ": " + e.what();
  state_ = StudyState::kQuarantined;
  quarantines_counter_->add(1);
  obs::TraceRecorder::global().instant(trace_name_, "quarantine");
}

void StudySession::with_journal_retry(const char* what,
                                      const std::function<void()>& fn) {
  const RetryPolicy& p = options_.retry;
  const std::size_t max_attempts = std::max<std::size_t>(p.max_attempts, 1);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      fn();
      return;
    } catch (const IoError& e) {
      if (!e.retryable() || attempt >= max_attempts) {
        quarantine(e, what);
        throw;
      }
      ++io_retries_;
      retries_counter_->add(1);
      double delay =
          p.base_delay_ms * static_cast<double>(1ULL << (attempt - 1));
      delay = std::min(delay, p.max_delay_ms);
      delay *= 1.0 + p.jitter * jitter_rng_.uniform(-1.0, 1.0);
      if (p.sleep_ms) {
        p.sleep_ms(delay);
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay));
      }
    }
  }
}

void StudySession::finish() {
  if (state_ == StudyState::kFinished) return;
  final_ = session_->finalize();
  with_journal_retry("append selection", [&] {
    journal_->append_selection(final_.best ? final_.best->id : -1,
                               final_.best_full_error);
  });
  state_ = StudyState::kFinished;
}

bool StudySession::run_one_step() {
  FEDTUNE_CHECK_MSG(!spec_.external, "external study: drive via ask()/tell()");
  if (state_ != StudyState::kRunning) return false;
  obs::TraceSpan span(trace_name_, "study");
  const double t0 = monotonic_seconds();
  try {
    const std::optional<hpo::Trial> trial = session_->ask();
    if (!trial.has_value()) {
      finish();
      return false;
    }
    with_journal_retry("append ask", [&] { journal_->append_ask(*trial); });
    const core::TrialRecord record = session_->run_outstanding();
    with_journal_retry("append tell", [&] { journal_->append_tell(record); });
    // The tell is durable; only now may a miss's outcome reach the shared
    // cache (hpo/tuner.hpp contract — an insert before durability could
    // outlive a crash that erases its step and skew resumed hit/miss
    // decisions). A failed append leaves the insert staged and the study
    // quarantined; the resumed session re-derives it from the journal.
    session_->commit_cache_insert();
    ask_tell_hist_->observe(monotonic_seconds() - t0);
    steps_counter_->add(1);
    if (const core::NoisyEvaluator* e = session_->evaluator()) {
      epsilon_gauge_->set(e->accountant().spent());
    }
    if (session_->done()) finish();
  } catch (const IoError&) {
    // Quarantined (state/last_error already record why). Absorb the throw:
    // the scheduler treats it as "no progress" and other tenants keep
    // running. The in-memory engine may be ahead of the journal now, which
    // is why resume rebuilds from the journal instead of reusing *this.
    return false;
  }
  return true;
}

std::size_t StudySession::run_slice(std::size_t rounds_budget) {
  const std::size_t start = session_->rounds_used();
  ++slices_used_;
  while (state_ == StudyState::kRunning &&
         session_->rounds_used() - start < rounds_budget) {
    if (!run_one_step()) break;
  }
  return session_->rounds_used() - start;
}

std::optional<hpo::Trial> StudySession::ask() {
  FEDTUNE_CHECK_MSG(spec_.external, "managed study: driven by the scheduler");
  if (state_ != StudyState::kRunning) return std::nullopt;
  if (session_->has_outstanding()) return session_->outstanding();
  const std::optional<hpo::Trial> trial = session_->ask();
  if (!trial.has_value()) {
    finish();
    return std::nullopt;
  }
  with_journal_retry("append ask", [&] { journal_->append_ask(*trial); });
  ask_armed_at_s_ = monotonic_seconds();
  obs::TraceRecorder::global().instant(trace_name_, "ask");
  return trial;
}

core::TrialRecord StudySession::tell(int trial_id, double objective) {
  FEDTUNE_CHECK_MSG(spec_.external, "managed study: driven by the scheduler");
  FEDTUNE_CHECK_MSG(state_ == StudyState::kRunning,
                    "study is " << state_name(state_));
  FEDTUNE_CHECK_MSG(session_->has_outstanding(), "no outstanding trial");
  FEDTUNE_CHECK_MSG(session_->outstanding()->id == trial_id,
                    "tell for trial " << trial_id << " but trial "
                                      << session_->outstanding()->id
                                      << " is outstanding");
  const core::TrialRecord record = session_->tell_outstanding(objective);
  with_journal_retry("append tell", [&] { journal_->append_tell(record); });
  if (ask_armed_at_s_ >= 0.0) {
    ask_tell_hist_->observe(monotonic_seconds() - ask_armed_at_s_);
    ask_armed_at_s_ = -1.0;
  }
  steps_counter_->add(1);
  obs::TraceRecorder::global().instant(trace_name_, "tell");
  // The session may issue nothing further (e.g. final tell of the plan, or
  // the trial cap reached); surface completion without waiting for the next
  // ask.
  if (session_->done()) finish();
  return record;
}

void StudySession::suspend() {
  if (state_ == StudyState::kRunning) state_ = StudyState::kSuspended;
}

void StudySession::resume_from_suspend() {
  if (state_ == StudyState::kSuspended) {
    state_ = StudyState::kRunning;
    slices_used_ = 0;  // fresh deadline allowance
  }
}

const core::TuneResult& StudySession::result() const {
  return finished() ? final_ : session_->partial_result();
}

std::optional<std::pair<hpo::Trial, double>> StudySession::best() const {
  if (finished()) {
    if (!final_.best.has_value()) return std::nullopt;
    return std::make_pair(*final_.best, final_.best_full_error);
  }
  const std::optional<hpo::Trial> live = tuner_->best_trial();
  if (!live.has_value()) return std::nullopt;
  double full_error = 1.0;
  for (const core::TrialRecord& r : session_->partial_result().records) {
    if (r.trial.id == live->id) {
      full_error = r.full_error;
      break;
    }
  }
  return std::make_pair(*live, full_error);
}

}  // namespace fedtune::service

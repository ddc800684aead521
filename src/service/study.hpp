// StudySession — one live tuning study inside the StudyService: the tuner,
// its evaluation engine, and the write-ahead journal that makes it
// crash-recoverable.
//
// Lifecycle:
//   fresh   — constructed from a StudySpec; writes the journal's create
//             record, then serves steps (managed) or ask/tell (external).
//   resumed — constructed from StudyJournal::recover(): the engine is
//             rebuilt from the spec and the journaled steps are replayed
//             through core::TuningSession::replay(), reconstructing tuner,
//             evaluator, and incumbent state bitwise. The session then
//             continues exactly where the crashed process stopped.
//   finished — the tuner is done (or the budget is exhausted); the final
//             selection is journaled as the journal's last record.
//
// Managed studies evaluate trials on a registered candidate pool
// (PoolResources) through the pure-stream NoisyEvaluator; external studies
// hand trials to the tenant via ask() and take objectives back via tell().
//
// Failure handling (the graceful-degradation ladder):
//   transient IoError  — every journal append retries under RetryPolicy:
//                        capped exponential backoff with seeded jitter
//                        (Rng(spec.seed).split(kStudyRetryJitter), so even
//                        degraded runs are reproducible). Success after
//                        retries marks the study kDegraded in health().
//   persistent IoError — (or retries exhausted) the study is QUARANTINED:
//                        state becomes kQuarantined, the error is recorded,
//                        and the step reports failure instead of throwing
//                        through the scheduler — other tenants keep running
//                        and the daemon stays up. A quarantined study's
//                        journal still holds every acknowledged step; once
//                        the fault clears it is resumed by rebuilding from
//                        the journal (StudyManager::resume_study), not by
//                        flipping the state back — the in-memory engine may
//                        be ahead of the durable history.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "service/journal.hpp"
#include "service/study_spec.hpp"

namespace fedtune::obs {
class Counter;
class Gauge;
class Histogram;
}

namespace fedtune::service {

// A registered candidate pool: the shared, read-only evaluation substrate
// managed studies run against (many concurrent studies share one).
struct PoolResources {
  std::vector<hpo::Config> configs;
  core::PoolEvalView view;
};

enum class StudyState : std::uint8_t {
  kRunning = 0,
  kSuspended = 1,
  kFinished = 2,
  // Suspended-with-error: journal I/O failed persistently (or transient
  // retries were exhausted). The durable history is intact; resume rebuilds
  // the session from the journal.
  kQuarantined = 3,
};

inline const char* state_name(StudyState s) {
  switch (s) {
    case StudyState::kRunning: return "running";
    case StudyState::kSuspended: return "suspended";
    case StudyState::kFinished: return "finished";
    case StudyState::kQuarantined: return "quarantined";
  }
  return "?";
}

// Operator-facing health summary, orthogonal to the scheduling state:
// degraded = the study hit transient I/O errors but recovered via retries.
enum class StudyHealth : std::uint8_t {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

inline const char* health_name(StudyHealth h) {
  switch (h) {
    case StudyHealth::kHealthy: return "healthy";
    case StudyHealth::kDegraded: return "degraded";
    case StudyHealth::kQuarantined: return "quarantined";
  }
  return "?";
}

// Backoff schedule for transient journal I/O errors: attempt k sleeps
// base_delay_ms * 2^(k-1), capped at max_delay_ms, scaled by a seeded
// jitter factor in [1 - jitter, 1 + jitter]. `sleep_ms` is injectable so
// tests retry without wall-clock delays.
struct RetryPolicy {
  std::size_t max_attempts = 4;  // 1 = no retries
  double base_delay_ms = 2.0;
  double max_delay_ms = 250.0;
  double jitter = 0.25;
  // nullptr = std::this_thread::sleep_for.
  std::function<void(double)> sleep_ms;
};

// Knobs threaded from the manager into every session. Defaults are the
// production configuration: the real Env, OS-flush durability, and a small
// backoff ladder.
struct SessionOptions {
  Env* env = nullptr;            // nullptr = Env::real()
  bool sync_on_commit = false;   // fsync after every journal frame
  RetryPolicy retry;
  // The pool's shared evaluation cache (usually the manager-owned
  // core::EvalCache; tests may pass a MemoryEvalStore). Consulted only when
  // the spec opts in (spec.use_eval_cache) and the study is managed.
  std::shared_ptr<core::EvalStore> eval_cache;
  // Replication feed (cluster/replicator.hpp): every byte-level journal
  // mutation, labeled with the study name. Invoked on the appending thread
  // (the scheduler runs sessions on a pool — sinks must be thread-safe) and
  // must not throw. Fresh and resumed sessions emit a kRewrite of the whole
  // file so a follower can sync from any point.
  std::function<void(const std::string& study, const JournalMutation&)>
      journal_sink;
};

class StudySession {
 public:
  // Fresh study. `pool` is required for managed specs (null for external).
  // Creates the journal at `journal_path` (must not exist).
  StudySession(StudySpec spec, std::shared_ptr<const PoolResources> pool,
               const std::string& journal_path, SessionOptions options = {});

  // Resumed study: rebuilds state by replaying `recovered` (from
  // StudyJournal::recover) and re-opens the journal for appending.
  StudySession(RecoveredStudy recovered,
               std::shared_ptr<const PoolResources> pool,
               const std::string& journal_path, SessionOptions options = {});

  StudySession(const StudySession&) = delete;
  StudySession& operator=(const StudySession&) = delete;

  const StudySpec& spec() const { return spec_; }
  StudyState state() const { return state_; }
  bool finished() const { return state_ == StudyState::kFinished; }
  bool quarantined() const { return state_ == StudyState::kQuarantined; }
  std::size_t steps() const { return session_->steps(); }
  std::size_t rounds_used() const { return session_->rounds_used(); }

  // Health reporting (fedtune_studyd status/list).
  StudyHealth health() const {
    if (state_ == StudyState::kQuarantined) return StudyHealth::kQuarantined;
    return io_retries_ > 0 ? StudyHealth::kDegraded : StudyHealth::kHealthy;
  }
  // Message of the error that quarantined the study (empty if none).
  const std::string& last_error() const { return last_error_; }
  // Transient journal I/O failures absorbed by retries so far.
  std::size_t io_retries() const { return io_retries_; }

  // Evaluations computed live by this session's evaluator — excludes replay
  // fast-forwards, so a freshly resumed study reports 0 (managed mode only;
  // external studies evaluate out of process).
  std::size_t live_evaluations() const;

  // Per-study evaluation-cache counters (0 when no cache is wired).
  std::size_t cache_hits() const;
  std::size_t cache_misses() const;
  bool cache_active() const { return cache_active_; }

  // Managed mode: one journaled ask → evaluate → tell step. Returns false
  // once the study is finished (journaling the final selection) — or
  // quarantined: journal failures are absorbed here (state() tells which),
  // so a scheduler driving many tenants never unwinds through this call.
  bool run_one_step();

  // Managed mode: steps until `rounds_budget` fresh training rounds are
  // consumed (the fair-share slice) or the study finishes. Returns the
  // rounds actually consumed. A slice is also charged against the study's
  // deadline allowance (spec.deadline_slices).
  std::size_t run_slice(std::size_t rounds_budget);
  std::size_t slices_used() const { return slices_used_; }

  // External mode: issue the next trial (journaled). nullopt when finished.
  // Journal failures quarantine the study and then THROW IoError — the
  // tenant issued this request and must see the failure (unlike scheduler
  // steps, which only observe the state change).
  std::optional<hpo::Trial> ask();
  // External mode: report the outstanding trial's objective (journaled).
  // Same failure contract as ask().
  core::TrialRecord tell(int trial_id, double objective);

  // Scheduler hooks: suspend parks a running study (the journal already
  // holds its full state); resume_from_suspend makes it runnable again
  // with a fresh deadline allowance (spec.deadline_slices is in-memory
  // admission control, not a lifetime cap).
  void suspend();
  void resume_from_suspend();

  // The study's results so far; after finish, includes the final selection.
  const core::TuneResult& result() const;

  // Current best: the final selection once finished, otherwise the tuner's
  // live pick with its recorded full error.
  std::optional<std::pair<hpo::Trial, double>> best() const;

 private:
  void init_engine();
  void init_metrics();
  void finish();
  // Attaches options_.journal_sink to the opened journal and emits a
  // whole-file kRewrite so followers re-sync after create/resume.
  void wire_journal_sink();

  // Runs `fn` (a journal write) under the retry policy: transient IoErrors
  // back off and retry; a persistent error or exhausted attempts quarantine
  // the study and rethrow. `what` labels the operation in last_error().
  void with_journal_retry(const char* what, const std::function<void()>& fn);
  void quarantine(const IoError& e, const char* what);

  StudySpec spec_;
  std::shared_ptr<const PoolResources> pool_;
  std::string journal_path_;
  SessionOptions options_;
  Rng jitter_rng_{0};  // seeded from the spec in the constructors
  std::unique_ptr<hpo::Tuner> tuner_;
  std::optional<core::PoolTrialRunner> runner_;    // managed mode
  std::optional<core::TuningSession> session_;
  std::optional<StudyJournal> journal_;
  StudyState state_ = StudyState::kRunning;
  core::TuneResult final_;  // valid once finished
  std::size_t slices_used_ = 0;
  std::size_t io_retries_ = 0;
  std::string last_error_;
  bool cache_active_ = false;

  // Per-study registry series, labeled {study=<name>} — the only layer
  // allowed a per-tenant label (src/README.md §Observability cardinality
  // rules). Resolved once by init_metrics() in both constructors.
  obs::Histogram* ask_tell_hist_ = nullptr;
  obs::Counter* steps_counter_ = nullptr;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* quarantines_counter_ = nullptr;
  obs::Gauge* epsilon_gauge_ = nullptr;
  const char* trace_name_ = nullptr;  // interned "study.step:<name>"
  // External mode: wall-clock of the outstanding ask, so tell() can observe
  // the tenant-visible ask→tell latency.
  double ask_armed_at_s_ = -1.0;
};

// Tuner construction for a study (shared with tests): managed studies build
// pool-mode tuners via sim::make_pool_tuner / make_pool_sha_tuner, which
// borrow pool->configs (so *pool must outlive the tuner; StudySession keeps
// pool_ declared before tuner_); external studies search the Appendix-B
// space on the spec's fidelity grid.
std::unique_ptr<hpo::Tuner> make_study_tuner(
    const StudySpec& spec, const PoolResources* pool, Rng rng);

}  // namespace fedtune::service

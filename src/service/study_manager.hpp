// StudyManager — the multi-tenant core of the StudyService: owns N
// concurrent StudySessions, admits new studies against per-tenant quotas,
// schedules managed studies fairly onto the shared ThreadPool, and resumes
// crashed studies from their journals.
//
// Scheduling model: pump() runs one fair-share cycle — every runnable
// managed study receives the same budget of fresh training rounds
// (`rounds_per_slice`), executed concurrently on ThreadPool::global() (one
// task per study; studies are independent, so parallel execution cannot
// change any study's trajectory). A study whose granted slices reach its
// spec's deadline_slices is suspended instead of scheduled — admission
// control by deadline. External studies are never pumped; their tenants
// drive them through ask/tell.
//
// Durability: every study lives in `journal_dir/<name>.journal`, and a
// session is only a cache of it. suspend_study() drops the in-memory
// session; find_or_resume() brings a study back on its next request.
// resume_all() at daemon startup resumes only unfinished studies, so
// startup cost and slot use do not grow with finished history.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_cache.hpp"
#include "service/study.hpp"

namespace fedtune::service {

struct ManagerOptions {
  std::string journal_dir = "fedtune_studies";
  // Admission control.
  std::size_t max_studies = 64;
  std::size_t max_study_budget_rounds =
      std::numeric_limits<std::size_t>::max();
  // Fair-share budget (fresh training rounds) per study per pump() cycle.
  std::size_t rounds_per_slice = 27;
  // Journal compaction cadence handed to each session.
  std::size_t compact_every_steps = 64;
  // Run each cycle's slices concurrently on ThreadPool::global().
  bool parallel = true;
  // I/O plumbing handed to each session (study.hpp SessionOptions): the Env
  // journals are written through (nullptr = Env::real()), per-frame fsync,
  // and the transient-error retry ladder.
  Env* env = nullptr;
  bool sync_on_commit = false;
  RetryPolicy retry;
  // Shared cross-tenant evaluation caches (core/eval_cache.hpp): when
  // non-empty, register_pool() opens <eval_cache_dir>/<pool>.evalcache and
  // every cache-opted study on that pool shares it — admission IS the warm
  // start (a new tenant's first lookups hit outcomes its predecessors paid
  // for). Empty disables caching service-wide.
  std::string eval_cache_dir;
  // Replication feed handed to every session (study.hpp SessionOptions):
  // the daemon binds this to its JournalReplicator so each durable journal
  // mutation streams to the study's cluster follower.
  std::function<void(const std::string& study, const JournalMutation&)>
      journal_sink;
};

class StudyManager {
 public:
  explicit StudyManager(ManagerOptions opts);

  // Registers a candidate pool managed studies can reference by name.
  void register_pool(const std::string& name,
                     std::shared_ptr<const PoolResources> pool);
  std::shared_ptr<const PoolResources> pool(const std::string& name) const;
  std::vector<std::string> pool_names() const;

  // Admits and creates a study. Throws std::invalid_argument when admission
  // fails: invalid/duplicate name, capacity reached (every slot held by an
  // unfinished study), budget above quota, or unknown pool.
  StudySession& create_study(StudySpec spec);

  // Reconstructs a study from its journal (after a crash or suspend).
  StudySession& resume_study(const std::string& name);
  // The on-demand path back into memory: the live session, else the
  // study's journal resumed, else nullptr (no journal). Throws on an
  // invalid name, a journal that cannot be recovered, or full capacity.
  StudySession* find_or_resume(const std::string& name);
  // Resumes every unfinished journal in journal_dir that is not already
  // active, while slots remain; returns how many (daemon startup). Finished
  // studies stay on disk until a request names them.
  std::size_t resume_all();

  // Parks a study: drops the in-memory session, keeps the journal. A study
  // with a journal but no session is already parked; throws when there is
  // neither.
  void suspend_study(const std::string& name);

  StudySession* find(const std::string& name);
  const StudySession* find(const std::string& name) const;
  std::vector<std::string> list() const;
  std::size_t active_studies() const { return sessions_.size(); }

  // One fair-share scheduling cycle; returns the trials completed across
  // all studies (0 = nothing runnable / no progress possible).
  std::size_t pump();
  // Pumps until no managed study is runnable (capped at `max_cycles`);
  // returns cycles run.
  std::size_t run_to_completion(
      std::size_t max_cycles = std::numeric_limits<std::size_t>::max());
  bool has_runnable() const;

  std::string journal_path(const std::string& name) const;
  const ManagerOptions& options() const { return opts_; }

  // The shared evaluation cache of a registered pool (nullptr when caching
  // is disabled or the pool has none) — stats surface through studyd's
  // cache-stats verb.
  std::shared_ptr<core::EvalCache> eval_cache(const std::string& pool) const;

 private:
  // resume_study's two halves: the identity/capacity checks plus the
  // journal replay, then the session construction.
  RecoveredStudy recover_for_resume(const std::string& name);
  StudySession& adopt(RecoveredStudy recovered);
  // Frees a slot when every one is taken by dropping the first finished
  // session (its journal fully describes it, so this is a suspend); throws
  // when every slot holds unfinished work.
  void make_room();
  // Per-study session options: the I/O plumbing plus the study's pool cache.
  SessionOptions session_options(const std::string& pool) const;

  ManagerOptions opts_;
  std::map<std::string, std::shared_ptr<const PoolResources>> pools_;
  // Per-pool shared evaluation caches, opened at register_pool().
  std::map<std::string, std::shared_ptr<core::EvalCache>> caches_;
  // Ordered by name: the scheduler's round-robin order is deterministic.
  std::map<std::string, std::unique_ptr<StudySession>> sessions_;
};

}  // namespace fedtune::service

#include "service/study_manager.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <iostream>
#include <string_view>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtune::service {

namespace {

// Scheduler-wide series (no per-study label; per-tenant latency lives in
// the study layer's fedtune_study_ask_tell_seconds).
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("fedtune_scheduler_queue_depth");
  return g;
}

obs::Counter& cycles_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("fedtune_scheduler_cycles_total");
  return c;
}

obs::Histogram& cycle_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_scheduler_cycle_seconds");
  return h;
}

// Fair-share wait: how long each tenant's slice sat queued behind the pool
// before its first instruction ran.
obs::Histogram& wait_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_scheduler_wait_seconds");
  return h;
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StudyManager::StudyManager(ManagerOptions opts) : opts_(std::move(opts)) {
  FEDTUNE_CHECK(opts_.max_studies > 0);
  FEDTUNE_CHECK(opts_.rounds_per_slice > 0);
  env_or_real(opts_.env).create_directories(opts_.journal_dir);
}

void StudyManager::register_pool(const std::string& name,
                                 std::shared_ptr<const PoolResources> pool) {
  FEDTUNE_CHECK(pool != nullptr);
  FEDTUNE_CHECK(pool->configs.size() == pool->view.num_configs());
  pools_[name] = std::move(pool);
  if (!opts_.eval_cache_dir.empty() && caches_.find(name) == caches_.end()) {
    // One shared cache per pool, all tenants. A cache that cannot open must
    // not take the pool down — studies just run uncached.
    Env& e = env_or_real(opts_.env);
    try {
      e.create_directories(opts_.eval_cache_dir);
      caches_[name] = core::EvalCache::open(
          opts_.eval_cache_dir + "/" + name + ".evalcache", opts_.env);
    } catch (const std::exception& ex) {
      std::cerr << "[study-manager] eval cache for pool '" << name
                << "' unavailable: " << ex.what() << "\n";
    }
  }
}

std::shared_ptr<core::EvalCache> StudyManager::eval_cache(
    const std::string& pool) const {
  const auto it = caches_.find(pool);
  return it == caches_.end() ? nullptr : it->second;
}

SessionOptions StudyManager::session_options(const std::string& pool) const {
  SessionOptions options{opts_.env, opts_.sync_on_commit, opts_.retry, {}, {}};
  options.eval_cache = eval_cache(pool);
  options.journal_sink = opts_.journal_sink;
  return options;
}

std::shared_ptr<const PoolResources> StudyManager::pool(
    const std::string& name) const {
  const auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second;
}

std::vector<std::string> StudyManager::pool_names() const {
  std::vector<std::string> names;
  names.reserve(pools_.size());
  for (const auto& [name, pool] : pools_) names.push_back(name);
  return names;
}

std::string StudyManager::journal_path(const std::string& name) const {
  return opts_.journal_dir + "/" + name + ".journal";
}

StudySession& StudyManager::create_study(StudySpec spec) {
  // Admission control: identity, capacity, budget quota, pool existence.
  FEDTUNE_CHECK_MSG(valid_study_name(spec.name),
                    "invalid study name '" << spec.name << "'");
  FEDTUNE_CHECK_MSG(sessions_.find(spec.name) == sessions_.end(),
                    "study '" << spec.name << "' already active");
  FEDTUNE_CHECK_MSG(!StudyJournal::exists(journal_path(spec.name), opts_.env),
                    "study '" << spec.name
                              << "' already has a journal (resume it)");
  make_room();
  FEDTUNE_CHECK_MSG(spec.budget_rounds > 0, "budget must be positive");
  // An unbounded request inherits the tenant quota as its budget; an
  // explicit budget above the quota is rejected.
  if (spec.budget_rounds == std::numeric_limits<std::size_t>::max()) {
    spec.budget_rounds = opts_.max_study_budget_rounds;
  }
  FEDTUNE_CHECK_MSG(spec.budget_rounds <= opts_.max_study_budget_rounds,
                    "budget " << spec.budget_rounds << " exceeds the "
                              << opts_.max_study_budget_rounds
                              << "-round quota");
  std::shared_ptr<const PoolResources> study_pool;
  if (!spec.external) {
    study_pool = pool(spec.pool);
    FEDTUNE_CHECK_MSG(study_pool != nullptr,
                      "unknown pool '" << spec.pool << "'");
  }
  const std::string name = spec.name;
  const std::string pool_name = spec.pool;
  auto session = std::make_unique<StudySession>(
      std::move(spec), std::move(study_pool), journal_path(name),
      session_options(pool_name));
  StudySession& ref = *session;
  sessions_[name] = std::move(session);
  return ref;
}

StudySession& StudyManager::resume_study(const std::string& name) {
  return adopt(recover_for_resume(name));
}

StudySession* StudyManager::find_or_resume(const std::string& name) {
  if (StudySession* live = find(name)) return live;
  FEDTUNE_CHECK_MSG(valid_study_name(name),
                    "invalid study name '" << name << "'");
  if (!StudyJournal::exists(journal_path(name), opts_.env)) return nullptr;
  return &resume_study(name);
}

void StudyManager::make_room() {
  if (sessions_.size() < opts_.max_studies) return;
  const auto done =
      std::find_if(sessions_.begin(), sessions_.end(), [](const auto& entry) {
        return entry.second->finished();
      });
  FEDTUNE_CHECK_MSG(done != sessions_.end(),
                    "study capacity reached (" << opts_.max_studies << ")");
  sessions_.erase(done);
}

RecoveredStudy StudyManager::recover_for_resume(const std::string& name) {
  // Same identity rules as create: a protocol-supplied name with '/' must
  // not escape the journal directory.
  FEDTUNE_CHECK_MSG(valid_study_name(name),
                    "invalid study name '" << name << "'");
  FEDTUNE_CHECK_MSG(sessions_.find(name) == sessions_.end(),
                    "study '" << name << "' already active");
  make_room();
  RecoveredStudy recovered =
      StudyJournal::recover(journal_path(name), opts_.env);
  FEDTUNE_CHECK_MSG(recovered.spec.name == name,
                    "journal for '" << recovered.spec.name
                                    << "' found under name '" << name << "'");
  return recovered;
}

StudySession& StudyManager::adopt(RecoveredStudy recovered) {
  const std::string name = recovered.spec.name;
  std::shared_ptr<const PoolResources> study_pool;
  if (!recovered.spec.external) {
    study_pool = pool(recovered.spec.pool);
    FEDTUNE_CHECK_MSG(study_pool != nullptr,
                      "unknown pool '" << recovered.spec.pool << "'");
  }
  const std::string pool_name = recovered.spec.pool;
  auto session = std::make_unique<StudySession>(
      std::move(recovered), std::move(study_pool), journal_path(name),
      session_options(pool_name));
  StudySession& ref = *session;
  sessions_[name] = std::move(session);
  return ref;
}

std::size_t StudyManager::resume_all() {
  std::size_t resumed = 0;
  static constexpr std::string_view kExt = ".journal";
  // list_dir's sorted order keeps the pick deterministic when unfinished
  // studies outnumber the slots.
  for (const std::string& fname :
       env_or_real(opts_.env).list_dir(opts_.journal_dir)) {
    if (fname.size() <= kExt.size() || !fname.ends_with(kExt)) continue;
    const std::string name = fname.substr(0, fname.size() - kExt.size());
    if (sessions_.find(name) != sessions_.end()) continue;
    if (sessions_.size() >= opts_.max_studies) break;
    try {
      RecoveredStudy recovered = recover_for_resume(name);
      // A finished study only answers queries: it comes back when a
      // request names it (find_or_resume).
      if (recovered.finished) continue;
      adopt(std::move(recovered));
      ++resumed;
    } catch (const std::exception& ex) {
      // One unrecoverable journal (e.g. a create record that never got
      // flushed before the crash) must not keep every healthy tenant down:
      // report it and move on.
      std::cerr << "[study-manager] cannot resume '" << name
                << "': " << ex.what() << "\n";
    }
  }
  return resumed;
}

void StudyManager::suspend_study(const std::string& name) {
  if (sessions_.erase(name) > 0) return;  // the journal holds the full state
  FEDTUNE_CHECK_MSG(valid_study_name(name) &&
                        StudyJournal::exists(journal_path(name), opts_.env),
                    "no active study '" << name << "'");
}

StudySession* StudyManager::find(const std::string& name) {
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const StudySession* StudyManager::find(const std::string& name) const {
  const auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::vector<std::string> StudyManager::list() const {
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) names.push_back(name);
  return names;
}

bool StudyManager::has_runnable() const {
  for (const auto& [name, session] : sessions_) {
    if (!session->spec().external &&
        session->state() == StudyState::kRunning) {
      return true;
    }
  }
  return false;
}

std::size_t StudyManager::pump() {
  // Collect this cycle's cohort (deterministic name order), enforcing the
  // deadline quota before granting a slice.
  std::vector<StudySession*> cohort;
  for (auto& [name, session] : sessions_) {
    if (session->spec().external ||
        session->state() != StudyState::kRunning) {
      continue;
    }
    if (session->slices_used() >= session->spec().deadline_slices) {
      session->suspend();  // deadline admission control
      continue;
    }
    cohort.push_back(session.get());
  }
  queue_depth_gauge().set(static_cast<double>(cohort.size()));
  if (cohort.empty()) return 0;

  obs::TraceSpan pump_span("scheduler.pump", "scheduler");
  cycles_counter().add(1);
  const double cycle_t0 = monotonic_seconds();

  const std::size_t steps_before = [&] {
    std::size_t n = 0;
    for (const StudySession* s : cohort) n += s->steps();
    return n;
  }();

  // Equal round budget per tenant, executed concurrently: studies are
  // independent (separate tuner/evaluator/journal; the pool view is
  // read-only), so interleaving cannot change any study's trajectory.
  if (opts_.parallel && cohort.size() > 1) {
    std::vector<std::future<void>> slices;
    slices.reserve(cohort.size());
    for (StudySession* s : cohort) {
      const double submit_s = monotonic_seconds();
      slices.push_back(ThreadPool::global().submit(
          [s, submit_s, rounds = opts_.rounds_per_slice] {
            wait_seconds().observe(monotonic_seconds() - submit_s);
            s->run_slice(rounds);
          }));
    }
    for (auto& f : slices) f.get();
  } else {
    for (StudySession* s : cohort) s->run_slice(opts_.rounds_per_slice);
  }

  std::size_t steps_after = 0;
  for (const StudySession* s : cohort) steps_after += s->steps();
  cycle_seconds().observe(monotonic_seconds() - cycle_t0);
  return steps_after - steps_before;
}

std::size_t StudyManager::run_to_completion(std::size_t max_cycles) {
  std::size_t cycles = 0;
  while (cycles < max_cycles && has_runnable()) {
    ++cycles;
    if (pump() == 0) break;  // nothing progressed (all deadline-suspended)
  }
  return cycles;
}

}  // namespace fedtune::service

// Fault-injection tests: the Env abstraction and FaultInjectingEnv itself,
// IoError surfacing and heal-to-durable in StudyJournal, the StudyManager's
// retry/quarantine ladder (degraded tenants never take the neighbours or
// the daemon down), a randomized torn-tail fuzz over every byte offset of a
// journal's last two frames, and the exhaustive crash-point matrix: for
// RS/SHA/TPE studies, every write/fsync boundary in a reference run is hit
// with a crash (forked child, _exit mid-write), recovered, and the resumed
// trace checked bitwise against the uninterrupted run — with zero
// re-evaluations.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/config_pool.hpp"
#include "hpo/search_space.hpp"
#include "nn/factory.hpp"
#include "service/journal.hpp"
#include "service/study.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::service {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Bitwise trajectory equality: the acceptance bar for every recovery path.
void expect_bitwise_equal(const core::TuneResult& a,
                          const core::TuneResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::TrialRecord& ra = a.records[i];
    const core::TrialRecord& rb = b.records[i];
    ASSERT_EQ(ra.trial.id, rb.trial.id) << "step " << i;
    ASSERT_EQ(ra.trial.config_index, rb.trial.config_index) << "step " << i;
    ASSERT_EQ(ra.trial.target_rounds, rb.trial.target_rounds) << "step " << i;
    ASSERT_EQ(ra.trial.config, rb.trial.config) << "step " << i;
    ASSERT_EQ(bits(ra.noisy_objective), bits(rb.noisy_objective))
        << "step " << i;
    ASSERT_EQ(bits(ra.full_error), bits(rb.full_error)) << "step " << i;
    ASSERT_EQ(ra.cumulative_rounds, rb.cumulative_rounds) << "step " << i;
  }
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best.has_value()) {
    ASSERT_EQ(a.best->id, b.best->id);
  }
  ASSERT_EQ(bits(a.best_full_error), bits(b.best_full_error));
  ASSERT_EQ(a.rounds_used, b.rounds_used);
}

// A no-sleep retry policy: retries are exercised without wall-clock delays.
RetryPolicy fast_retry(std::size_t max_attempts = 4) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.sleep_ms = [](double) {};
  return p;
}

class FaultFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::FederatedDataset dataset = testutil::small_image_dataset();
    const auto arch = nn::make_default_model(dataset);
    core::PoolBuildOptions opts;
    opts.num_configs = 8;
    opts.checkpoints = {1, 3, 9};
    opts.trainer.clients_per_round = 5;
    opts.store_params = false;
    opts.num_threads = 2;
    const core::ConfigPool built = core::ConfigPool::build(
        dataset, *arch, hpo::appendix_b_space(), opts);
    auto resources = std::make_shared<PoolResources>();
    resources->configs = built.configs();
    resources->view = built.view();
    pool_ = std::move(resources);
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_fault_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    dirs_.push_back(dir);
    return dir;
  }

  static StudySpec managed_spec(const std::string& name, StudyMethod method,
                                std::size_t num_configs) {
    StudySpec spec;
    spec.name = name;
    spec.method = method;
    spec.num_configs = num_configs;
    spec.seed = 17;
    spec.pool = "p";
    // Real noise on every path: subsampled clients plus per-eval DP.
    spec.noise.eval_clients = 4;
    spec.noise.epsilon = 25.0;
    return spec;
  }

  ManagerOptions manager_options(const std::string& dir) {
    ManagerOptions opts;
    opts.journal_dir = dir;
    opts.rounds_per_slice = 9;
    return opts;
  }

  // Reference trajectory: the spec run start-to-finish with no faults.
  core::TuneResult run_reference(const StudySpec& spec) {
    StudyManager mgr(manager_options(fresh_dir()));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    while (s.run_one_step()) {
    }
    EXPECT_TRUE(s.finished());
    return s.result();
  }

  static std::shared_ptr<const PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const PoolResources> FaultFixture::pool_;

// ------------------------------------------------------------ Env basics

TEST_F(FaultFixture, PosixEnvRoundTrip) {
  const std::string dir = fresh_dir();
  Env& env = Env::real();
  const std::string path = dir + "/file.bin";

  auto f = env.open_writable(path, Env::WriteMode::kTruncate);
  f->append("hello ");
  f->append("world");
  f->sync();
  f->close();
  EXPECT_TRUE(env.exists(path));
  EXPECT_EQ(env.file_size(path), 11u);
  EXPECT_EQ(env.read_file(path), "hello world");

  auto g = env.open_writable(path, Env::WriteMode::kAppend);
  g->append("!");
  g->close();
  EXPECT_EQ(env.read_file(path), "hello world!");

  env.truncate_file(path, 5);
  EXPECT_EQ(env.read_file(path), "hello");

  const std::string moved = dir + "/moved.bin";
  env.rename_file(path, moved);
  EXPECT_FALSE(env.exists(path));
  EXPECT_EQ(env.read_file(moved), "hello");

  env.create_directories(dir + "/sub/dir");
  EXPECT_TRUE(env.exists(dir + "/sub/dir"));
  const auto names = env.list_dir(dir);
  ASSERT_EQ(names.size(), 1u);  // directories are not listed
  EXPECT_EQ(names[0], "moved.bin");

  env.remove_file(moved);
  EXPECT_FALSE(env.exists(moved));
  env.remove_file(moved);  // idempotent

  EXPECT_THROW(env.read_file(dir + "/nope"), IoError);
  try {
    env.read_file(dir + "/nope");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kPersistent);
    EXPECT_FALSE(e.retryable());
    EXPECT_EQ(e.op(), "open");
  }
}

TEST_F(FaultFixture, ClassifyErrnoTaxonomy) {
  EXPECT_EQ(classify_errno(ENOSPC), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EAGAIN), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EINTR), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EBUSY), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EIO), IoErrorKind::kPersistent);
  EXPECT_EQ(classify_errno(EROFS), IoErrorKind::kPersistent);
  EXPECT_EQ(classify_errno(ENOENT), IoErrorKind::kPersistent);
  EXPECT_EQ(classify_errno(0), IoErrorKind::kPersistent);  // unknown = fatal
}

TEST_F(FaultFixture, FaultEnvFailsNthWriteWithDeterministicTear) {
  const std::string dir = fresh_dir();
  const std::string payload = "0123456789abcdef";

  auto run_workload = [&](const std::string& path, FaultPlan plan) {
    FaultInjectingEnv env(Env::real(), plan);
    auto f = env.open_writable(path, Env::WriteMode::kTruncate);
    std::string error;
    for (int i = 0; i < 4; ++i) {
      try {
        f->append(payload);
      } catch (const IoError& e) {
        error = e.what();
      }
    }
    f->close();
    EXPECT_EQ(env.ops(), 4u);
    return std::make_pair(Env::real().read_file(path), error);
  };

  FaultPlan plan;
  plan.seed = 7;
  plan.fail_from_op = 2;
  plan.fail_count = 1;
  auto [bytes_a, error_a] = run_workload(dir + "/a.bin", plan);
  auto [bytes_b, error_b] = run_workload(dir + "/b.bin", plan);

  // Op 2 failed with a torn prefix; ops 1, 3, 4 landed whole. Both runs are
  // bitwise identical — the tear length is pure in (seed, op). The error
  // detail (after the path, which differs) matches too.
  EXPECT_EQ(bytes_a, bytes_b);
  const auto detail = [](const std::string& e) {
    const std::size_t at = e.find("injected fault");
    return at == std::string::npos ? e : e.substr(at);
  };
  EXPECT_EQ(detail(error_a), detail(error_b));
  EXPECT_NE(error_a.find("injected fault at op 2"), std::string::npos);
  const std::size_t tear = bytes_a.size() - 3 * payload.size();
  EXPECT_LE(tear, payload.size());
  EXPECT_EQ(bytes_a.substr(0, payload.size()), payload);

  // A different seed draws a different tear (for this workload).
  plan.seed = 8;
  auto [bytes_c, error_c] = run_workload(dir + "/c.bin", plan);
  EXPECT_NE(error_c.find("injected fault at op 2"), std::string::npos);
  // Lengths may collide for some seed pairs; these two differ.
  EXPECT_NE(bytes_a.size(), bytes_c.size());
}

TEST_F(FaultFixture, FaultEnvPathFilterScopesFaults) {
  const std::string dir = fresh_dir();
  FaultPlan plan;
  plan.path_filter = "victim";
  plan.fail_from_op = 1;  // every op on a matching path fails
  plan.error_kind = IoErrorKind::kPersistent;
  FaultInjectingEnv env(Env::real(), plan);

  auto healthy = env.open_writable(dir + "/healthy.bin", Env::WriteMode::kTruncate);
  healthy->append("fine");
  healthy->sync();
  healthy->close();
  EXPECT_EQ(env.read_file(dir + "/healthy.bin"), "fine");
  EXPECT_EQ(env.ops(), 0u);  // non-matching paths are not even counted

  auto victim = env.open_writable(dir + "/victim.bin", Env::WriteMode::kTruncate);
  EXPECT_THROW(victim->append("doomed"), IoError);
  EXPECT_EQ(env.ops(), 1u);
}

TEST_F(FaultFixture, FaultEnvSyncFaultsAndCounting) {
  const std::string dir = fresh_dir();
  FaultPlan plan;
  plan.fail_from_op = 2;
  plan.fail_count = 1;
  FaultInjectingEnv env(Env::real(), plan);
  auto f = env.open_writable(dir + "/s.bin", Env::WriteMode::kTruncate);
  f->append("data");  // op 1
  try {
    f->sync();  // op 2: injected fsync failure
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "fsync");
    EXPECT_TRUE(e.retryable());
  }
  f->sync();  // op 3: past the window
  f->close();
  EXPECT_EQ(env.ops(), 3u);
  EXPECT_EQ(env.read_file(dir + "/s.bin"), "data");  // appends unaffected
}

// ------------------------------------------------- pool saves are atomic

TEST_F(FaultFixture, PoolViewSaveIsAtomicUnderFaults) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/view.bin";

  FaultPlan plan;
  plan.fail_from_op = 1;
  plan.error_kind = IoErrorKind::kPersistent;
  FaultInjectingEnv faulty(Env::real(), plan);
  EXPECT_THROW(pool_->view.save(path, &faulty), IoError);
  // The failed save never touched the final name.
  EXPECT_FALSE(Env::real().exists(path));

  pool_->view.save(path);
  const auto loaded = core::PoolEvalView::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_configs(), pool_->view.num_configs());
  EXPECT_FALSE(Env::real().exists(path + ".tmp"));  // tmp renamed away
}

// ------------------------------------------------- journal IoError paths

TEST_F(FaultFixture, JournalAppendHealsToDurableBoundaryAndRetries) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/j.journal";
  const StudySpec spec = managed_spec("j", StudyMethod::kRandomSearch, 4);

  hpo::Trial t;
  t.id = 0;
  t.target_rounds = 9;
  t.config_index = 2;
  t.config = {{"client_lr", 0.5}};
  core::TrialRecord rec;
  rec.trial = t;
  rec.noisy_objective = 0.25;
  rec.full_error = 0.5;
  rec.cumulative_rounds = 9;

  FaultPlan plan;
  plan.seed = 3;
  plan.fail_from_op = 3;  // create = ops 1-2; op 3 = the first ask append
  plan.fail_count = 1;
  FaultInjectingEnv env(Env::real(), plan);

  StudyJournal journal = StudyJournal::create(path, spec, &env);
  const std::uint64_t durable = journal.durable_bytes();
  EXPECT_EQ(Env::real().file_size(path), durable);

  EXPECT_THROW(journal.append_ask(t), IoError);
  // Heal-to-durable: the torn partial frame was truncated away.
  EXPECT_TRUE(journal.good());
  EXPECT_EQ(journal.durable_bytes(), durable);
  EXPECT_EQ(Env::real().file_size(path), durable);

  // The retry (op 4, past the window) lands on a clean boundary.
  journal.append_ask(t);
  journal.append_tell(rec);
  EXPECT_GT(journal.durable_bytes(), durable);

  const RecoveredStudy recovered = StudyJournal::recover(path, &env);
  ASSERT_EQ(recovered.steps.size(), 1u);
  EXPECT_EQ(recovered.steps[0].trial.id, 0);
  EXPECT_EQ(bits(recovered.steps[0].noisy_objective), bits(0.25));
  EXPECT_EQ(recovered.truncated_bytes, 0u);
}

TEST_F(FaultFixture, JournalCreateFailureLeavesNoFile) {
  const std::string dir = fresh_dir();
  const std::string path = dir + "/stub.journal";
  FaultPlan plan;
  plan.fail_from_op = 1;
  plan.error_kind = IoErrorKind::kPersistent;
  FaultInjectingEnv env(Env::real(), plan);

  const StudySpec spec = managed_spec("stub", StudyMethod::kRandomSearch, 4);
  EXPECT_THROW(StudyJournal::create(path, spec, &env), IoError);
  // No half-written journal claims the study name; create works once the
  // fault clears.
  EXPECT_FALSE(Env::real().exists(path));
  StudyJournal journal = StudyJournal::create(path, spec);
  EXPECT_TRUE(journal.good());
}

// --------------------------------------------- retry / quarantine ladder

TEST_F(FaultFixture, TransientFaultsRetryToBitwiseIdenticalCompletion) {
  const StudySpec spec = managed_spec("retry", StudyMethod::kTpe, 5);
  const core::TuneResult reference = run_reference(spec);

  FaultPlan plan;
  plan.seed = 11;
  plan.fail_from_op = 6;  // a window of transient blips mid-run
  plan.fail_count = 3;
  plan.error_kind = IoErrorKind::kTransient;
  FaultInjectingEnv env(Env::real(), plan);

  ManagerOptions opts = manager_options(fresh_dir());
  opts.env = &env;
  opts.retry = fast_retry();
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.create_study(spec);
  while (s.run_one_step()) {
  }
  ASSERT_TRUE(s.finished());
  EXPECT_GE(s.io_retries(), 1u);
  EXPECT_EQ(s.health(), StudyHealth::kDegraded);  // recovered, but noted
  EXPECT_TRUE(s.last_error().empty());
  expect_bitwise_equal(s.result(), reference);
}

TEST_F(FaultFixture, PersistentFaultQuarantinesOnlyTheVictim) {
  // Five concurrent tenants; the fault plan targets one journal by path.
  const std::vector<StudyMethod> methods = {
      StudyMethod::kRandomSearch, StudyMethod::kTpe, StudyMethod::kSha,
      StudyMethod::kRandomSearch, StudyMethod::kTpe};
  std::vector<StudySpec> specs;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    StudySpec spec = managed_spec(i == 0 ? "victim" : "t" + std::to_string(i),
                                  methods[i], 4 + i % 2);
    spec.seed = 100 + i;
    specs.push_back(std::move(spec));
  }
  std::vector<core::TuneResult> references;
  for (const StudySpec& spec : specs) references.push_back(run_reference(spec));

  FaultPlan plan;
  plan.path_filter = "victim.journal";
  plan.fail_from_op = 5;  // let the study get past create, then the disk dies
  plan.fail_count = FaultPlan::kForever;
  plan.error_kind = IoErrorKind::kPersistent;
  FaultInjectingEnv env(Env::real(), plan);

  const std::string dir = fresh_dir();
  ManagerOptions opts = manager_options(dir);
  opts.env = &env;
  opts.retry = fast_retry();
  opts.parallel = true;  // quarantine must hold under the concurrent pump
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);
  for (const StudySpec& spec : specs) mgr.create_study(spec);

  // The scheduler never sees the IoError: the victim quarantines itself and
  // the cycle keeps pumping the healthy tenants to completion.
  mgr.run_to_completion();

  const StudySession* victim = mgr.find("victim");
  ASSERT_NE(victim, nullptr);
  EXPECT_EQ(victim->state(), StudyState::kQuarantined);
  EXPECT_EQ(victim->health(), StudyHealth::kQuarantined);
  EXPECT_FALSE(victim->last_error().empty());
  EXPECT_FALSE(victim->finished());

  for (std::size_t i = 1; i < specs.size(); ++i) {
    const StudySession* s = mgr.find(specs[i].name);
    ASSERT_NE(s, nullptr) << specs[i].name;
    ASSERT_TRUE(s->finished()) << specs[i].name;
    EXPECT_EQ(s->health(), StudyHealth::kHealthy) << specs[i].name;
    expect_bitwise_equal(s->result(), references[i]);
  }

  // The fault clears (new manager on the real Env): the victim resumes from
  // its journal — the durable history, NOT the possibly-ahead in-memory
  // engine — and completes bitwise identical to the reference.
  StudyManager clean(manager_options(dir));
  clean.register_pool("p", pool_);
  StudySession& resumed = clean.resume_study("victim");
  EXPECT_EQ(resumed.live_evaluations(), 0u);  // replay re-ran nothing
  while (resumed.run_one_step()) {
  }
  ASSERT_TRUE(resumed.finished());
  expect_bitwise_equal(resumed.result(), references[0]);
}

TEST_F(FaultFixture, ExhaustedTransientRetriesQuarantine) {
  FaultPlan plan;
  plan.fail_from_op = 4;
  plan.fail_count = FaultPlan::kForever;
  plan.error_kind = IoErrorKind::kTransient;  // transient but never clears
  FaultInjectingEnv env(Env::real(), plan);

  ManagerOptions opts = manager_options(fresh_dir());
  opts.env = &env;
  opts.retry = fast_retry(/*max_attempts=*/3);
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);
  StudySession& s =
      mgr.create_study(managed_spec("x", StudyMethod::kRandomSearch, 4));
  while (s.run_one_step()) {
  }
  EXPECT_EQ(s.state(), StudyState::kQuarantined);
  EXPECT_GE(s.io_retries(), 2u);  // max_attempts - 1 retries were burned
  EXPECT_FALSE(s.last_error().empty());
}

// ------------------------------------------------------- torn-tail fuzz

TEST_F(FaultFixture, TornTailFuzzEveryByteOffsetOfLastTwoFrames) {
  // Build a small journal with known frame boundaries.
  const std::string dir = fresh_dir();
  const std::string ref_path = dir + "/ref.journal";
  const StudySpec spec = managed_spec("fuzz", StudyMethod::kRandomSearch, 4);

  std::vector<std::uint64_t> frame_ends;  // byte offset after each frame
  std::vector<core::TrialRecord> records;
  {
    StudyJournal journal = StudyJournal::create(ref_path, spec);
    frame_ends.push_back(journal.durable_bytes());  // after the create frame
    for (int i = 0; i < 4; ++i) {
      hpo::Trial t;
      t.id = i;
      t.target_rounds = 9;
      t.config_index = static_cast<std::size_t>(i);
      t.config = {{"client_lr", 0.125 * (i + 1)}, {"dropout", 0.03 * i}};
      core::TrialRecord rec;
      rec.trial = t;
      rec.noisy_objective = 0.5 - 0.01 * i;
      rec.full_error = 0.5 - 0.005 * i;
      rec.cumulative_rounds = static_cast<std::size_t>(9 * (i + 1));
      journal.append_ask(t);
      frame_ends.push_back(journal.durable_bytes());
      journal.append_tell(rec);
      frame_ends.push_back(journal.durable_bytes());
      records.push_back(rec);
    }
  }
  const std::string pristine = Env::real().read_file(ref_path);
  ASSERT_EQ(pristine.size(), frame_ends.back());

  // Steps recovered when the file is valid only up to `valid` bytes: tells
  // whose frame ends at or before the boundary.
  const auto expected_steps = [&](std::uint64_t valid) {
    std::size_t steps = 0;
    for (std::size_t i = 1; i < frame_ends.size(); ++i) {
      if (frame_ends[i] <= valid) {
        if (i % 2 == 0) ++steps;  // even entries are tell frames
      }
    }
    return steps;
  };
  // Largest frame boundary <= `offset`: where recovery must truncate to.
  const auto healed_size = [&](std::uint64_t offset) {
    std::uint64_t best = frame_ends.front();
    for (const std::uint64_t end : frame_ends) {
      if (end <= offset && end > best) best = end;
    }
    return best;
  };

  const std::uint64_t last_two_start = frame_ends[frame_ends.size() - 3];
  const std::string scratch = dir + "/fuzz.journal";

  // Mode 1: truncate at every byte offset in the last two frames.
  for (std::uint64_t cut = last_two_start; cut < pristine.size(); ++cut) {
    auto f = Env::real().open_writable(scratch, Env::WriteMode::kTruncate);
    f->append(std::string_view(pristine).substr(0, cut));
    f->close();

    const RecoveredStudy r = StudyJournal::recover(scratch);
    EXPECT_EQ(r.spec.name, "fuzz") << "cut=" << cut;
    ASSERT_EQ(r.steps.size(), expected_steps(cut)) << "cut=" << cut;
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      EXPECT_EQ(r.steps[i].trial.id, records[i].trial.id);
      EXPECT_EQ(bits(r.steps[i].noisy_objective),
                bits(records[i].noisy_objective));
    }
    // The heal truncated back to a frame boundary, and a recovered journal
    // accepts appends again.
    EXPECT_EQ(Env::real().file_size(scratch), healed_size(cut))
        << "cut=" << cut;
    EXPECT_EQ(r.durable_bytes, healed_size(cut)) << "cut=" << cut;
    StudyJournal reopened = StudyJournal::append_to(scratch, r.durable_bytes);
    hpo::Trial t;
    t.id = 99;
    t.target_rounds = 9;
    reopened.append_ask(t);
    Env::real().remove_file(scratch);
  }

  // Mode 2: corrupt (flip) every byte in the last two frames.
  for (std::uint64_t pos = last_two_start; pos < pristine.size(); ++pos) {
    std::string bytes = pristine;
    bytes[pos] = static_cast<char>(~bytes[pos]);
    auto f = Env::real().open_writable(scratch, Env::WriteMode::kTruncate);
    f->append(bytes);
    f->close();

    // Never crashes, never replays a corrupt record: whatever prefix
    // survives must be an exact prefix of the pristine history.
    const RecoveredStudy r = StudyJournal::recover(scratch);
    EXPECT_EQ(r.spec.name, "fuzz") << "pos=" << pos;
    ASSERT_LE(r.steps.size(), records.size()) << "pos=" << pos;
    ASSERT_GE(r.steps.size(), expected_steps(pos)) << "pos=" << pos;
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      EXPECT_EQ(r.steps[i].trial.id, records[i].trial.id) << "pos=" << pos;
      EXPECT_EQ(bits(r.steps[i].noisy_objective),
                bits(records[i].noisy_objective))
          << "pos=" << pos;
      EXPECT_EQ(bits(r.steps[i].full_error), bits(records[i].full_error))
          << "pos=" << pos;
    }
    Env::real().remove_file(scratch);
  }
}

// ---------------------------------------------------- crash-point matrix

// One managed-study workload, shared by the reference run and every forked
// crash run: create the study and step it to completion.
void drive_workload(const StudySpec& spec, const std::string& dir,
                    std::shared_ptr<const PoolResources> pool, Env* env,
                    const std::string& eval_cache_dir = {}) {
  ManagerOptions opts;
  opts.journal_dir = dir;
  opts.rounds_per_slice = 9;
  opts.parallel = false;
  opts.env = env;
  opts.sync_on_commit = true;  // fsync boundaries join the matrix
  opts.eval_cache_dir = eval_cache_dir;  // "" = uncached (the classic matrix)
  StudyManager mgr(opts);
  mgr.register_pool("p", std::move(pool));
  StudySession& s = mgr.create_study(spec);
  while (s.run_one_step()) {
  }
}

class CrashMatrix : public FaultFixture {
 protected:
  void run_matrix(StudyMethod method, const std::string& name) {
    StudySpec spec = managed_spec(name, method, 5);
    spec.seed = 23;
    const core::TuneResult reference = run_reference(spec);

    // Count the write/fsync boundaries of an uninterrupted run.
    const std::string count_dir = fresh_dir();
    FaultInjectingEnv counter(Env::real(), FaultPlan{});
    drive_workload(spec, count_dir, pool_, &counter);
    const std::size_t total_ops = counter.ops();
    ASSERT_GT(total_ops, 10u);

    for (std::size_t k = 1; k <= total_ops; ++k) {
      const std::string dir = fresh_dir();
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0) << "fork failed at op " << k;
      if (pid == 0) {
        // Child: same workload, crash (with a seeded torn tail) at op k.
        // _exit everywhere — gtest must never unwind in the child.
        FaultPlan plan;
        plan.seed = 1000 + k;
        plan.crash_at_op = k;
        FaultInjectingEnv env(Env::real(), plan);
        try {
          drive_workload(spec, dir, pool_, &env);
        } catch (...) {
          ::_exit(97);  // no exception may preempt the scheduled crash
        }
        ::_exit(98);  // ran to completion: the crash never fired
      }

      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status)) << "op " << k;
      ASSERT_EQ(WEXITSTATUS(status), kFaultCrashExitCode) << "op " << k;

      // Parent: recover on the real Env and run to completion.
      StudyManager mgr(manager_options(dir));
      mgr.register_pool("p", pool_);
      StudySession* session = nullptr;
      try {
        session = &mgr.resume_study(name);
      } catch (const std::exception&) {
        // The crash landed before the create record was durable: the
        // journal is an unrecoverable stub. Start the study over — the
        // name was never acknowledged.
        Env::real().remove_file(mgr.journal_path(name));
        session = &mgr.create_study(spec);
      }
      const std::size_t replayed = session->steps();
      EXPECT_EQ(session->live_evaluations(), 0u)
          << "op " << k << ": resume re-ran an evaluation";
      while (session->run_one_step()) {
      }
      ASSERT_TRUE(session->finished()) << "op " << k;
      // Zero re-evaluations: live work after resume is exactly the steps
      // that were not yet journaled.
      EXPECT_EQ(session->live_evaluations(),
                session->steps() - replayed)
          << "op " << k;
      expect_bitwise_equal(session->result(), reference);

      std::filesystem::remove_all(dir);
    }
  }
};

TEST_F(CrashMatrix, RandomSearchSurvivesEveryWriteBoundary) {
  run_matrix(StudyMethod::kRandomSearch, "rs");
}

TEST_F(CrashMatrix, ShaSurvivesEveryWriteBoundary) {
  run_matrix(StudyMethod::kSha, "sha");
}

TEST_F(CrashMatrix, TpeSurvivesEveryWriteBoundary) {
  run_matrix(StudyMethod::kTpe, "tpe");
}

// ------------------------------------ cached-stack crash-point matrix

// A capped SHA study (DriverOptions::max_trials set from the spec) behind a
// partially-warm SHARED evaluation cache: a producer study with the same
// noise namespace seeds outcomes the victim's bracket overlaps, the fault
// plan's empty path filter puts the .evalcache appends into the op matrix
// alongside the journal's, and every boundary is crashed, recovered, and
// checked bitwise — with zero re-evaluations of journaled OR cached work.
class CachedCrashMatrix : public FaultFixture {
 protected:
  // Copies the warmed shared cache so every crash run starts from the same
  // admission-time state (the reference and the crashes must not advance
  // each other's cache).
  std::string clone_cache_dir(const std::string& from) {
    const std::string to = fresh_dir();
    for (const auto& entry : std::filesystem::directory_iterator(from)) {
      std::filesystem::copy_file(entry.path(),
                                 to + "/" + entry.path().filename().string());
    }
    return to;
  }
};

TEST_F(CachedCrashMatrix, WrappedShaSurvivesEveryWriteBoundaryOnWarmCache) {
  StudySpec spec = managed_spec("csha", StudyMethod::kSha, 5);
  spec.seed = 23;
  // Non-binding trial cap: the session checks it on every ask and sizes M
  // by it, without bending the trajectory.
  spec.max_trials = 64;

  // Warm the shared cache with a different-seed producer: same noise knobs
  // and same planned M, so the namespaces match but the overlap is partial.
  const std::string warm_dir = fresh_dir();
  {
    StudySpec producer = managed_spec("warmsrc", StudyMethod::kSha, 5);
    producer.seed = 77;
    ManagerOptions opts = manager_options(fresh_dir());
    opts.eval_cache_dir = warm_dir;
    StudyManager mgr(opts);
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(producer);
    while (s.run_one_step()) {
    }
    ASSERT_TRUE(s.finished());
  }

  // Reference trajectory on a pristine clone of the warm cache.
  core::TuneResult reference;
  std::size_t reference_hits = 0;
  std::size_t reference_misses = 0;
  {
    ManagerOptions opts = manager_options(fresh_dir());
    opts.eval_cache_dir = clone_cache_dir(warm_dir);
    StudyManager mgr(opts);
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    while (s.run_one_step()) {
    }
    ASSERT_TRUE(s.finished());
    reference = s.result();
    reference_hits = s.cache_hits();
    reference_misses = s.cache_misses();
  }
  // Both cache paths are live in this workload: served warm outcomes AND
  // fresh evaluations whose inserts hit the matrix.
  ASSERT_GE(reference_hits, 1u);
  ASSERT_GE(reference_misses, 1u);

  // Count the write/fsync boundaries of an uninterrupted cached run.
  const std::string count_dir = fresh_dir();
  FaultInjectingEnv counter(Env::real(), FaultPlan{});
  drive_workload(spec, count_dir, pool_, &counter, clone_cache_dir(warm_dir));
  const std::size_t total_ops = counter.ops();
  ASSERT_GT(total_ops, 10u);

  for (std::size_t k = 1; k <= total_ops; ++k) {
    const std::string dir = fresh_dir();
    const std::string cache_dir = clone_cache_dir(warm_dir);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed at op " << k;
    if (pid == 0) {
      FaultPlan plan;
      plan.seed = 2000 + k;
      plan.crash_at_op = k;
      FaultInjectingEnv env(Env::real(), plan);
      try {
        drive_workload(spec, dir, pool_, &env, cache_dir);
      } catch (...) {
        ::_exit(97);  // no exception may preempt the scheduled crash
      }
      ::_exit(98);  // ran to completion: the crash never fired
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "op " << k;
    ASSERT_EQ(WEXITSTATUS(status), kFaultCrashExitCode) << "op " << k;

    // Recover on the real Env with the crashed cache state as-is: a torn
    // cache tail heals at open, and replay re-inserts journaled outcomes.
    ManagerOptions opts = manager_options(dir);
    opts.eval_cache_dir = cache_dir;
    StudyManager mgr(opts);
    mgr.register_pool("p", pool_);
    StudySession* session = nullptr;
    try {
      session = &mgr.resume_study("csha");
    } catch (const std::exception&) {
      // Crash before the create record was durable: start over, the name
      // was never acknowledged.
      Env::real().remove_file(mgr.journal_path("csha"));
      session = &mgr.create_study(spec);
    }
    EXPECT_EQ(session->live_evaluations(), 0u)
        << "op " << k << ": resume re-ran an evaluation";
    while (session->run_one_step()) {
    }
    ASSERT_TRUE(session->finished()) << "op " << k;
    // Zero re-evaluations: live work after resume is exactly the post-crash
    // cache misses — journaled steps replay, warm outcomes serve.
    EXPECT_EQ(session->live_evaluations(), session->cache_misses())
        << "op " << k;
    expect_bitwise_equal(session->result(), reference);

    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace fedtune::service

// StudyService tests: journal durability (torn tails, CRC mismatch,
// trailing garbage, snapshot/compaction), kill/resume bitwise equivalence
// at every tell boundary for RS, SHA, and TPE, the fair-share multi-study
// scheduler, admission control, and loading a study on its first request.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/serialize.hpp"
#include "core/config_pool.hpp"
#include "hpo/random_search.hpp"
#include "nn/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/journal.hpp"
#include "service/service_handler.hpp"
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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Bitwise trajectory equality: the acceptance bar for kill/resume.
void expect_bitwise_equal(const core::TuneResult& a,
                          const core::TuneResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::TrialRecord& ra = a.records[i];
    const core::TrialRecord& rb = b.records[i];
    ASSERT_EQ(ra.trial.id, rb.trial.id) << "step " << i;
    ASSERT_EQ(ra.trial.config_index, rb.trial.config_index) << "step " << i;
    ASSERT_EQ(ra.trial.target_rounds, rb.trial.target_rounds) << "step " << i;
    ASSERT_EQ(ra.trial.parent_id, rb.trial.parent_id) << "step " << i;
    ASSERT_EQ(ra.trial.config, rb.trial.config) << "step " << i;
    ASSERT_EQ(bits(ra.noisy_objective), bits(rb.noisy_objective))
        << "step " << i;
    ASSERT_EQ(bits(ra.full_error), bits(rb.full_error)) << "step " << i;
    ASSERT_EQ(ra.cumulative_rounds, rb.cumulative_rounds) << "step " << i;
  }
  ASSERT_EQ(a.incumbent_curve.size(), b.incumbent_curve.size());
  for (std::size_t i = 0; i < a.incumbent_curve.size(); ++i) {
    ASSERT_EQ(a.incumbent_curve[i].rounds, b.incumbent_curve[i].rounds);
    ASSERT_EQ(bits(a.incumbent_curve[i].full_error),
              bits(b.incumbent_curve[i].full_error));
  }
  ASSERT_EQ(a.best.has_value(), b.best.has_value());
  if (a.best.has_value()) {
    ASSERT_EQ(a.best->id, b.best->id);
    ASSERT_EQ(a.best->config_index, b.best->config_index);
  }
  ASSERT_EQ(bits(a.best_full_error), bits(b.best_full_error));
  ASSERT_EQ(a.rounds_used, b.rounds_used);
}

class ServiceFixture : public ::testing::Test {
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
    for (const std::string& dir : dirs_) {
      std::filesystem::remove_all(dir);
    }
  }

  // A fresh journal directory, removed at teardown.
  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_service_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  ManagerOptions manager_options(const std::string& dir) {
    ManagerOptions opts;
    opts.journal_dir = dir;
    opts.rounds_per_slice = 9;
    return opts;
  }

  static StudySpec managed_spec(const std::string& name, StudyMethod method,
                                std::size_t num_configs) {
    StudySpec spec;
    spec.name = name;
    spec.method = method;
    spec.num_configs = num_configs;
    spec.seed = 17;
    // Move-assigned: a literal assignment, once inlined, trips GCC 12's
    // -Wrestrict false positive in char_traits.
    spec.pool = std::string("p");
    // Real noise on every path: subsampled clients plus per-eval DP.
    spec.noise.eval_clients = 4;
    spec.noise.epsilon = 25.0;
    return spec;
  }

  // The study run start-to-finish in one process.
  core::TuneResult run_uninterrupted(const StudySpec& spec) {
    StudyManager mgr(manager_options(fresh_dir()));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    while (s.run_one_step()) {
    }
    EXPECT_TRUE(s.finished());
    return s.result();
  }

  // The study killed after `interrupt_after` completed steps (the session is
  // dropped with no shutdown hook, exactly like SIGKILL after the last
  // journal flush), then resumed from the journal and run to completion.
  core::TuneResult run_interrupted(const StudySpec& spec,
                                   std::size_t interrupt_after) {
    const std::string dir = fresh_dir();
    {
      StudyManager mgr(manager_options(dir));
      mgr.register_pool("p", pool_);
      StudySession& s = mgr.create_study(spec);
      for (std::size_t i = 0; i < interrupt_after; ++i) {
        if (!s.run_one_step()) break;
      }
    }  // killed: no finalize, no compaction
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.resume_study(spec.name);
    while (s.run_one_step()) {
    }
    EXPECT_TRUE(s.finished());
    return s.result();
  }

  static std::shared_ptr<const PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const PoolResources> ServiceFixture::pool_;

// ------------------------------------------------------- journal durability

TEST_F(ServiceFixture, JournalRoundTrip) {
  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/j1.journal";

  StudySpec spec = managed_spec("j1", StudyMethod::kTpe, 6);
  spec.budget_rounds = 123;
  spec.deadline_slices = 9;
  spec.noise.bias_b = 2.5;
  {
    StudyJournal journal = StudyJournal::create(path, spec);
    hpo::Trial t;
    t.id = 0;
    t.config = {{"client_lr", 0.25}, {"server_lr", 0.001}};
    t.target_rounds = 9;
    t.config_index = 3;
    journal.append_ask(t);
    core::TrialRecord rec;
    rec.trial = t;
    rec.noisy_objective = 0.4375;
    rec.full_error = 0.5;
    rec.cumulative_rounds = 9;
    journal.append_tell(rec);
    journal.append_selection(0, 0.5);
  }

  const RecoveredStudy recovered = StudyJournal::recover(path);
  EXPECT_EQ(recovered.spec.name, "j1");
  EXPECT_EQ(recovered.spec.method, StudyMethod::kTpe);
  EXPECT_EQ(recovered.spec.num_configs, 6u);
  EXPECT_EQ(recovered.spec.budget_rounds, 123u);
  EXPECT_EQ(recovered.spec.deadline_slices, 9u);
  EXPECT_EQ(bits(recovered.spec.noise.bias_b), bits(2.5));
  EXPECT_EQ(recovered.spec.noise.eval_clients, 4u);
  ASSERT_EQ(recovered.steps.size(), 1u);
  EXPECT_EQ(recovered.steps[0].trial.id, 0);
  EXPECT_EQ(recovered.steps[0].trial.config_index, 3u);
  EXPECT_EQ(recovered.steps[0].trial.config.at("client_lr"), 0.25);
  EXPECT_EQ(bits(recovered.steps[0].noisy_objective), bits(0.4375));
  EXPECT_TRUE(recovered.finished);
  EXPECT_EQ(recovered.best_id, 0);
  EXPECT_EQ(recovered.truncated_bytes, 0u);
}

TEST_F(ServiceFixture, JournalTornTailTruncatesToValidPrefix) {
  // Write a study journal via a real (interrupted) run, then cut the file at
  // every byte length from full size down to the header: recovery must
  // always return a valid prefix of the full step list and heal the file.
  StudySpec spec = managed_spec("torn", StudyMethod::kRandomSearch, 5);
  const std::string dir = fresh_dir();
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    for (int i = 0; i < 3; ++i) s.run_one_step();
  }
  const std::string path = dir + "/torn.journal";
  const std::string full = read_file(path);
  const RecoveredStudy complete = StudyJournal::recover(path);
  ASSERT_EQ(complete.steps.size(), 3u);

  // Byte offset where the create record ends: cuts below it damage the spec
  // itself, which is unrecoverable by design.
  const std::size_t create_end = [&] {
    const std::string probe = dir + "/probe.journal";
    { StudyJournal::create(probe, spec); }
    const std::size_t size =
        static_cast<std::size_t>(std::filesystem::file_size(probe));
    std::filesystem::remove(probe);
    return size;
  }();

  std::size_t last_steps = 3;
  for (std::size_t len = full.size() - 1; len >= create_end; --len) {
    write_file(path, full.substr(0, len));
    const RecoveredStudy r = StudyJournal::recover(path);
    // Monotone: fewer bytes can never recover more steps.
    EXPECT_LE(r.steps.size(), last_steps);
    last_steps = r.steps.size();
    // Every recovered step must equal the uninterrupted prefix bitwise.
    for (std::size_t i = 0; i < r.steps.size(); ++i) {
      EXPECT_EQ(r.steps[i].trial.id, complete.steps[i].trial.id);
      EXPECT_EQ(bits(r.steps[i].noisy_objective),
                bits(complete.steps[i].noisy_objective));
    }
    EXPECT_FALSE(r.finished);
    // The file is healed: recovering again reports nothing to truncate and
    // the journal accepts appends at the clean boundary.
    const RecoveredStudy again = StudyJournal::recover(path);
    EXPECT_EQ(again.truncated_bytes, 0u);
    EXPECT_EQ(again.steps.size(), r.steps.size());
  }
  // Cutting into the create record (or the magic) is unrecoverable: the
  // study's defining spec is gone.
  write_file(path, full.substr(0, create_end - 1));
  EXPECT_THROW(StudyJournal::recover(path), std::invalid_argument);
  write_file(path, full.substr(0, 7));
  EXPECT_THROW(StudyJournal::recover(path), std::invalid_argument);
}

TEST_F(ServiceFixture, JournalCrcMismatchCutsFromCorruption) {
  StudySpec spec = managed_spec("crc", StudyMethod::kRandomSearch, 5);
  const std::string dir = fresh_dir();
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    for (int i = 0; i < 4; ++i) s.run_one_step();
  }
  const std::string path = dir + "/crc.journal";
  std::string bytes = read_file(path);
  // Flip one bit around the middle of the file: everything from the damaged
  // frame on is untrusted and dropped.
  const std::size_t target = bytes.size() / 2;
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  write_file(path, bytes);

  const RecoveredStudy r = StudyJournal::recover(path);
  EXPECT_LT(r.steps.size(), 4u);
  EXPECT_GT(r.truncated_bytes, 0u);
  // Healed: the resumed study replays the surviving prefix and completes.
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.resume_study("crc");
  while (s.run_one_step()) {
  }
  expect_bitwise_equal(s.result(), run_uninterrupted(spec));
}

TEST_F(ServiceFixture, JournalRejectsTrailingGarbageAndBadFrames) {
  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/g.journal";
  StudySpec spec = managed_spec("g", StudyMethod::kRandomSearch, 4);
  { StudyJournal::create(path, spec); }
  const std::string clean = read_file(path);

  // Raw trailing garbage (no frame structure).
  write_file(path, clean + "garbage-bytes-from-a-torn-write");
  RecoveredStudy r = StudyJournal::recover(path);
  EXPECT_GT(r.truncated_bytes, 0u);
  EXPECT_EQ(read_file(path).size(), clean.size());

  // A CRC-valid frame whose payload has trailing bytes: version-skew
  // corruption, rejected by the same at_end discipline as the file loaders.
  BufferWriter payload;
  payload.write_u8(4);  // selection
  payload.write_i64(0);
  payload.write_f64(0.25);
  payload.write_u32(0xdeadbeef);  // trailing junk inside the payload
  std::string framed = clean;
  const std::uint32_t size = static_cast<std::uint32_t>(payload.bytes().size());
  const std::uint32_t crc = crc32(payload.bytes().data(), payload.bytes().size());
  framed.append(reinterpret_cast<const char*>(&size), sizeof(size));
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  framed.append(payload.bytes());
  write_file(path, framed);
  r = StudyJournal::recover(path);
  EXPECT_FALSE(r.finished);  // the over-long selection frame was rejected
  EXPECT_GT(r.truncated_bytes, 0u);

  // An unknown record type is a corruption boundary too.
  BufferWriter unknown;
  unknown.write_u8(99);
  std::string framed2 = clean;
  const std::uint32_t size2 = static_cast<std::uint32_t>(unknown.bytes().size());
  const std::uint32_t crc2 =
      crc32(unknown.bytes().data(), unknown.bytes().size());
  framed2.append(reinterpret_cast<const char*>(&size2), sizeof(size2));
  framed2.append(reinterpret_cast<const char*>(&crc2), sizeof(crc2));
  framed2.append(unknown.bytes());
  write_file(path, framed2);
  r = StudyJournal::recover(path);
  EXPECT_GT(r.truncated_bytes, 0u);

  // A file that is not a journal at all.
  write_file(path, "not a journal");
  EXPECT_THROW(StudyJournal::recover(path), std::invalid_argument);
}

TEST_F(ServiceFixture, SnapshotCompactionPreservesStateAndBoundsSize) {
  StudySpec spec = managed_spec("snap", StudyMethod::kRandomSearch, 12);
  const std::string dir = fresh_dir();
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.create_study(spec);
  for (int i = 0; i < 7; ++i) s.run_one_step();

  const std::string path = dir + "/snap.journal";
  const auto before = std::filesystem::file_size(path);
  s.compact_journal();
  const auto after = std::filesystem::file_size(path);
  // {create, snapshot} beats 7 x (ask + tell) frames: no duplicated trial
  // payloads, no per-frame overhead.
  EXPECT_LT(after, before);

  // The compacted journal recovers the identical history...
  const RecoveredStudy r = StudyJournal::recover(path);
  EXPECT_EQ(r.steps.size(), 7u);
  EXPECT_EQ(r.truncated_bytes, 0u);

  // ...and the study resumed from it finishes bitwise-identically.
  mgr.suspend_study("snap");
  StudySession& resumed = mgr.resume_study("snap");
  EXPECT_EQ(resumed.steps(), 7u);
  while (resumed.run_one_step()) {
  }
  expect_bitwise_equal(resumed.result(), run_uninterrupted(spec));
}

TEST_F(ServiceFixture, AutomaticCompactionKeepsResumability) {
  // A compaction cadence smaller than the study forces several mid-run
  // compactions; kill/resume across them must still be exact.
  StudySpec spec = managed_spec("autocompact", StudyMethod::kRandomSearch, 10);
  const std::string dir = fresh_dir();
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    StudySession& s = mgr.create_study(spec);
    s.set_compact_every(3);
    for (int i = 0; i < 8; ++i) s.run_one_step();
  }
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.resume_study("autocompact");
  while (s.run_one_step()) {
  }
  expect_bitwise_equal(s.result(), run_uninterrupted(spec));
}

// -------------------------------------------- kill/resume bitwise identity

// The acceptance bar: a study interrupted at ANY tell boundary and resumed
// from its journal produces a bitwise-identical trial sequence, incumbent
// curve, and final selection.
TEST_F(ServiceFixture, KillResumeEquivalenceRandomSearch) {
  const StudySpec spec = managed_spec("rs", StudyMethod::kRandomSearch, 10);
  const core::TuneResult reference = run_uninterrupted(spec);
  ASSERT_EQ(reference.records.size(), 10u);
  for (std::size_t k = 0; k <= reference.records.size(); ++k) {
    SCOPED_TRACE("interrupted after " + std::to_string(k) + " tells");
    expect_bitwise_equal(run_interrupted(spec, k), reference);
  }
}

TEST_F(ServiceFixture, KillResumeEquivalenceSha) {
  // n0 = 9, eta = 3 on the {1, 3, 9} grid: rungs of 9 + 3 + 1 = 13 trials
  // with promotions — resume must reconstruct mid-rung elimination state.
  const StudySpec spec = managed_spec("sha", StudyMethod::kSha, 9);
  const core::TuneResult reference = run_uninterrupted(spec);
  ASSERT_EQ(reference.records.size(), 13u);
  ASSERT_TRUE(reference.best.has_value());
  EXPECT_EQ(reference.best->target_rounds, 9u);
  for (std::size_t k = 0; k <= reference.records.size(); ++k) {
    SCOPED_TRACE("interrupted after " + std::to_string(k) + " tells");
    expect_bitwise_equal(run_interrupted(spec, k), reference);
  }
}

TEST_F(ServiceFixture, KillResumeEquivalenceTpe) {
  // 10 configs with n_startup = 4: interruptions land both in the random
  // warmup and in the density-model regime.
  const StudySpec spec = managed_spec("tpe", StudyMethod::kTpe, 10);
  const core::TuneResult reference = run_uninterrupted(spec);
  ASSERT_EQ(reference.records.size(), 10u);
  for (std::size_t k = 0; k <= reference.records.size(); ++k) {
    SCOPED_TRACE("interrupted after " + std::to_string(k) + " tells");
    expect_bitwise_equal(run_interrupted(spec, k), reference);
  }
}

TEST_F(ServiceFixture, KillResumeEquivalenceHyperbandOnce) {
  // HB sweeps several brackets; one mid-run interrupt keeps the suite fast
  // while covering the bracket-boundary replay path.
  const StudySpec spec = managed_spec("hb", StudyMethod::kHyperband, 9);
  const core::TuneResult reference = run_uninterrupted(spec);
  ASSERT_GT(reference.records.size(), 13u);
  expect_bitwise_equal(run_interrupted(spec, 7), reference);
  expect_bitwise_equal(run_interrupted(spec, reference.records.size() - 1),
                       reference);
}

// ------------------------------------------------- scheduler and admission

TEST_F(ServiceFixture, FairShareSchedulerRunsConcurrentStudies) {
  const std::string dir = fresh_dir();
  ManagerOptions opts = manager_options(dir);
  opts.rounds_per_slice = 9;
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);

  // >= 8 concurrent tenants, mixed methods.
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    const StudyMethod method = i % 3 == 0   ? StudyMethod::kRandomSearch
                               : i % 3 == 1 ? StudyMethod::kTpe
                                            : StudyMethod::kSha;
    StudySpec spec = managed_spec("tenant" + std::to_string(i), method,
                                  method == StudyMethod::kSha ? 9 : 6);
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    mgr.create_study(spec);
    names.push_back(spec.name);
  }

  // One fair-share cycle: every tenant makes progress.
  EXPECT_GE(mgr.pump(), 8u);
  for (const std::string& name : names) {
    EXPECT_GE(mgr.find(name)->steps(), 1u) << name;
  }

  // Run everything to completion under the parallel scheduler.
  mgr.run_to_completion();
  for (const std::string& name : names) {
    EXPECT_TRUE(mgr.find(name)->finished()) << name;
  }

  // Fairness/concurrency must not bend any study's trajectory: each result
  // equals the same spec run alone.
  for (int i = 0; i < 8; ++i) {
    const StudyMethod method = i % 3 == 0   ? StudyMethod::kRandomSearch
                               : i % 3 == 1 ? StudyMethod::kTpe
                                            : StudyMethod::kSha;
    StudySpec spec = managed_spec(names[static_cast<std::size_t>(i)], method,
                                  method == StudyMethod::kSha ? 9 : 6);
    spec.seed = 100 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(spec.name);
    expect_bitwise_equal(mgr.find(spec.name)->result(),
                         run_uninterrupted(spec));
  }
}

TEST_F(ServiceFixture, AdmissionControlRejectsBadStudies) {
  const std::string dir = fresh_dir();
  ManagerOptions opts = manager_options(dir);
  opts.max_studies = 2;
  opts.max_study_budget_rounds = 1000;
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);

  // Invalid name (path traversal) and unknown pool.
  StudySpec bad = managed_spec("../evil", StudyMethod::kRandomSearch, 4);
  EXPECT_THROW(mgr.create_study(bad), std::invalid_argument);
  StudySpec nopool = managed_spec("nopool", StudyMethod::kRandomSearch, 4);
  nopool.pool = "missing";
  EXPECT_THROW(mgr.create_study(nopool), std::invalid_argument);

  // Budget above the per-tenant quota.
  StudySpec greedy = managed_spec("greedy", StudyMethod::kRandomSearch, 4);
  greedy.budget_rounds = 100000;
  EXPECT_THROW(mgr.create_study(greedy), std::invalid_argument);

  // Capacity: two admitted, the third bounced; duplicates bounced.
  mgr.create_study(managed_spec("a", StudyMethod::kRandomSearch, 4));
  EXPECT_THROW(mgr.create_study(managed_spec("a", StudyMethod::kTpe, 4)),
               std::invalid_argument);
  mgr.create_study(managed_spec("b", StudyMethod::kRandomSearch, 4));
  EXPECT_THROW(mgr.create_study(managed_spec("c", StudyMethod::kTpe, 4)),
               std::invalid_argument);
}

TEST_F(ServiceFixture, DeadlineSuspendsOverrunningStudy) {
  const std::string dir = fresh_dir();
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  StudySpec spec = managed_spec("slow", StudyMethod::kRandomSearch, 12);
  spec.deadline_slices = 2;  // two scheduler slices, then the plug is pulled
  mgr.create_study(spec);
  mgr.run_to_completion(/*max_cycles=*/100);
  StudySession* s = mgr.find("slow");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->state(), StudyState::kSuspended);
  EXPECT_EQ(s->slices_used(), 2u);
  EXPECT_LT(s->steps(), 12u);

  // Un-parking grants a fresh deadline allowance and the study can finish.
  s->resume_from_suspend();
  EXPECT_EQ(s->state(), StudyState::kRunning);
  EXPECT_EQ(s->slices_used(), 0u);
  mgr.run_to_completion(/*max_cycles=*/100);
  // 12 trials at 2 slices per allowance: a few resume rounds finish it.
  for (int i = 0; i < 5 && !s->finished(); ++i) {
    s->resume_from_suspend();
    mgr.run_to_completion(/*max_cycles=*/100);
  }
  EXPECT_TRUE(s->finished());
  // Deadline suspensions change only when work happens, never what it
  // computes: the stop-and-go run equals an undeadlined one.
  expect_bitwise_equal(
      s->result(),
      run_uninterrupted(managed_spec("slow", StudyMethod::kRandomSearch, 12)));
}

TEST_F(ServiceFixture, BudgetCapFinishesStudyEarly) {
  StudySpec spec = managed_spec("capped", StudyMethod::kRandomSearch, 12);
  spec.budget_rounds = 30;  // 3 full trials, the 4th ask crosses the cap
  const core::TuneResult result = run_uninterrupted(spec);
  EXPECT_LE(result.records.size(), 4u);
  EXPECT_GE(result.rounds_used, 30u);
  EXPECT_TRUE(result.best.has_value());
}

TEST_F(ServiceFixture, SuspendResumeViaManager) {
  const StudySpec spec = managed_spec("parked", StudyMethod::kSha, 9);
  const std::string dir = fresh_dir();
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  StudySession& s = mgr.create_study(spec);
  for (int i = 0; i < 5; ++i) s.run_one_step();
  mgr.suspend_study("parked");
  EXPECT_EQ(mgr.find("parked"), nullptr);
  EXPECT_EQ(mgr.list().size(), 0u);

  StudySession& resumed = mgr.resume_study("parked");
  EXPECT_EQ(resumed.steps(), 5u);
  while (resumed.run_one_step()) {
  }
  expect_bitwise_equal(resumed.result(), run_uninterrupted(spec));
}

TEST_F(ServiceFixture, ResumeAllFindsEveryJournal) {
  const std::string dir = fresh_dir();
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    for (int i = 0; i < 3; ++i) {
      StudySession& s = mgr.create_study(managed_spec(
          "scan" + std::to_string(i), StudyMethod::kRandomSearch, 4));
      s.run_one_step();
    }
  }
  StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  EXPECT_EQ(mgr.resume_all(), 3u);
  EXPECT_EQ(mgr.list().size(), 3u);
  EXPECT_EQ(mgr.resume_all(), 0u);  // idempotent
}

// A restarted daemon resumes only studies with work left. Finished ones
// stay on disk until a request names them, so they never take a slot at
// startup.
TEST_F(ServiceFixture, ResumeAllResumesOnlyUnfinishedStudies) {
  const std::string dir = fresh_dir();
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    for (const char* name : {"a0", "a1", "a2"}) {
      StudySession& s =
          mgr.create_study(managed_spec(name, StudyMethod::kRandomSearch, 2));
      while (s.run_one_step()) {
      }
      ASSERT_TRUE(s.finished()) << name;
    }
    for (const char* name : {"z0", "z1"}) {
      mgr.create_study(managed_spec(name, StudyMethod::kRandomSearch, 4))
          .run_one_step();
    }
  }
  ManagerOptions opts = manager_options(dir);
  opts.max_studies = 2;
  StudyManager full(opts);
  full.register_pool("p", pool_);
  EXPECT_EQ(full.resume_all(), 2u);
  EXPECT_EQ(full.list(), (std::vector<std::string>{"z0", "z1"}));

  // Slots left after the unfinished studies stay free.
  opts.max_studies = 4;
  StudyManager roomy(opts);
  roomy.register_pool("p", pool_);
  EXPECT_EQ(roomy.resume_all(), 2u);
  EXPECT_EQ(roomy.list(), (std::vector<std::string>{"z0", "z1"}));
}

// More finished journals than slots: after a restart every one of them
// still answers, loaded from its journal on demand, and a finished session
// gives up its slot to the next study that needs one.
TEST_F(ServiceFixture, FinishedStudiesLoadOnDemandAfterRestart) {
  const std::string dir = fresh_dir();
  std::string status_a2;
  std::string best_a2;
  std::string trace_a2;
  bool running = true;
  {
    StudyManager mgr(manager_options(dir));
    mgr.register_pool("p", pool_);
    ServiceHandler handler(mgr, "p");
    for (const char* name : {"a0", "a1", "a2"}) {
      StudySession& s =
          mgr.create_study(managed_spec(name, StudyMethod::kRandomSearch, 3));
      while (s.run_one_step()) {
      }
      ASSERT_TRUE(s.finished()) << name;
    }
    status_a2 = handler.handle("status a2", &running);
    best_a2 = handler.handle("best a2", &running);
    trace_a2 = handler.handle("trace a2", &running);
    ASSERT_NE(status_a2.find(" steps=3 "), std::string::npos) << status_a2;
  }
  ManagerOptions opts = manager_options(dir);
  opts.max_studies = 2;
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);
  EXPECT_EQ(mgr.resume_all(), 0u);
  EXPECT_TRUE(mgr.list().empty());

  ServiceHandler handler(mgr, "p");
  EXPECT_EQ(handler.handle("status a2", &running), status_a2);
  EXPECT_EQ(handler.handle("best a2", &running), best_a2);
  EXPECT_EQ(handler.handle("trace a2", &running), trace_a2);
  EXPECT_EQ(handler.handle("best a0", &running).rfind("ok id=", 0), 0u);
  // Both slots hold finished sessions; the third study takes one of them.
  EXPECT_EQ(handler.handle("status a1", &running).rfind("ok state=", 0), 0u);
  EXPECT_EQ(mgr.list().size(), 2u);
  EXPECT_EQ(handler.handle("create-study fresh configs=2 seed=3", &running),
            "ok created fresh");
  EXPECT_EQ(mgr.list().size(), 2u);
  EXPECT_NE(mgr.find("fresh"), nullptr);
}

// A suspended study comes back with its history on its next request and
// finishes as if it had never been parked.
TEST_F(ServiceFixture, SuspendedStudyReturnsOnNextRequest) {
  const StudySpec spec = managed_spec("parked", StudyMethod::kRandomSearch, 6);
  StudyManager mgr(manager_options(fresh_dir()));
  mgr.register_pool("p", pool_);
  ServiceHandler handler(mgr, "p");
  mgr.create_study(spec);
  bool running = true;
  ASSERT_EQ(handler.handle("drive parked 2", &running).rfind("ok ran=2", 0),
            0u);
  EXPECT_EQ(handler.handle("suspend parked", &running), "ok suspended parked");
  EXPECT_EQ(mgr.find("parked"), nullptr);

  const std::string status = handler.handle("status parked", &running);
  EXPECT_EQ(status.rfind("ok state=running", 0), 0u) << status;
  EXPECT_NE(status.find(" steps=2 "), std::string::npos) << status;
  ASSERT_NE(mgr.find("parked"), nullptr);
  while (mgr.find("parked")->run_one_step()) {
  }
  expect_bitwise_equal(mgr.find("parked")->result(), run_uninterrupted(spec));
}

// suspend of a study that has no session answers from its journal alone:
// loading it just to drop it would cost a replay and could push another
// session out of a full manager.
TEST_F(ServiceFixture, SuspendDoesNotLoadAParkedStudy) {
  ManagerOptions opts = manager_options(fresh_dir());
  opts.max_studies = 1;
  StudyManager mgr(opts);
  mgr.register_pool("p", pool_);
  ServiceHandler handler(mgr, "p");
  mgr.create_study(managed_spec("parked", StudyMethod::kRandomSearch, 4))
      .run_one_step();
  mgr.suspend_study("parked");
  StudySession& done =
      mgr.create_study(managed_spec("done", StudyMethod::kRandomSearch, 2));
  while (done.run_one_step()) {
  }
  ASSERT_TRUE(done.finished());

  bool running = true;
  EXPECT_EQ(handler.handle("suspend parked", &running), "ok suspended parked");
  EXPECT_EQ(mgr.find("parked"), nullptr);
  EXPECT_EQ(mgr.list(), (std::vector<std::string>{"done"}));
  const std::string ghost = handler.handle("suspend ghost", &running);
  EXPECT_EQ(ghost.rfind("err ", 0), 0u) << ghost;
  EXPECT_NE(ghost.find("no active study 'ghost'"), std::string::npos)
      << ghost;
}

// ------------------------------------------------------- external studies

TEST_F(ServiceFixture, ExternalStudyAskTellAndResume) {
  StudySpec spec;
  spec.name = "ext";
  spec.method = StudyMethod::kRandomSearch;
  spec.external = true;
  spec.num_configs = 8;
  spec.rounds_per_config = 5;
  spec.seed = 3;

  // The tenant's private objective: deterministic in the config.
  const auto objective = [](const hpo::Config& c) {
    return c.at("client_lr") / (1.0 + c.at("client_lr"));
  };

  const std::string dir_a = fresh_dir();
  StudyManager mgr_a(manager_options(dir_a));
  StudySession& a = mgr_a.create_study(spec);
  std::vector<int> ids_a;
  while (const auto t = a.ask()) {
    ids_a.push_back(t->id);
    a.tell(t->id, objective(t->config));
  }
  EXPECT_TRUE(a.finished());
  EXPECT_EQ(ids_a.size(), 8u);
  EXPECT_EQ(a.rounds_used(), 40u);

  // Same spec, killed after 3 tells, resumed: identical continuation.
  const std::string dir_b = fresh_dir();
  {
    StudyManager mgr(manager_options(dir_b));
    StudySession& s = mgr.create_study(spec);
    for (int i = 0; i < 3; ++i) {
      const auto t = s.ask();
      ASSERT_TRUE(t.has_value());
      s.tell(t->id, objective(t->config));
    }
    // One dangling ask (crash between ask and tell).
    (void)s.ask();
  }
  StudyManager mgr_b(manager_options(dir_b));
  StudySession& b = mgr_b.resume_study("ext");
  EXPECT_EQ(b.steps(), 3u);
  while (const auto t = b.ask()) {
    b.tell(t->id, objective(t->config));
  }
  EXPECT_TRUE(b.finished());
  expect_bitwise_equal(b.result(), a.result());

  // Telling a stale/wrong trial id is rejected.
  StudyManager mgr_c(manager_options(fresh_dir()));
  StudySession& c = mgr_c.create_study(spec);
  const auto t = c.ask();
  ASSERT_TRUE(t.has_value());
  EXPECT_THROW(c.tell(t->id + 1, 0.5), std::invalid_argument);
  // ask() is idempotent while a trial is outstanding.
  const auto again = c.ask();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->id, t->id);
}

// ------------------------------------------------------- engine unit tests

TEST_F(ServiceFixture, PureEvalStreamsSkipMatchesSequential) {
  // With pure per-eval streams, evaluation i is independent of evaluations
  // j < i — skipping past journaled evaluations reproduces the exact stream
  // an uninterrupted evaluator would have used.
  core::NoiseModel noise;
  noise.eval_clients = 3;
  noise.epsilon = 10.0;
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  std::vector<double> errors = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};

  core::NoisyEvaluator full(noise, weights, 4, Rng(9), true);
  std::vector<double> sequential;
  for (int i = 0; i < 4; ++i) sequential.push_back(full.evaluate(errors));

  core::NoisyEvaluator resumed(noise, weights, 4, Rng(9), true);
  resumed.skip_evaluation();
  resumed.skip_evaluation();
  EXPECT_EQ(bits(resumed.evaluate(errors)), bits(sequential[2]));
  EXPECT_EQ(bits(resumed.evaluate(errors)), bits(sequential[3]));
  // Privacy accounting covers skipped evaluations too.
  EXPECT_DOUBLE_EQ(resumed.accountant().spent(), full.accountant().spent());

  // The legacy sequential evaluator rejects skipping.
  core::NoisyEvaluator legacy(noise, weights, 4, Rng(9));
  EXPECT_THROW(legacy.skip_evaluation(), std::invalid_argument);
}

TEST_F(ServiceFixture, TuningSessionMatchesRunTuning) {
  // The factored step engine is the driver: stepping a session by hand
  // reproduces core::run_tuning exactly (legacy eval streams, same seed).
  core::DriverOptions opts;
  opts.noise.eval_clients = 3;
  opts.seed = 21;

  hpo::RandomSearch rs_a(hpo::appendix_b_space(), 9, 9, Rng(5));
  rs_a.set_candidate_pool({pool_->configs});
  core::PoolTrialRunner runner_a(pool_->view);
  const core::TuneResult via_driver = core::run_tuning(rs_a, runner_a, opts);

  hpo::RandomSearch rs_b(hpo::appendix_b_space(), 9, 9, Rng(5));
  rs_b.set_candidate_pool({pool_->configs});
  core::PoolTrialRunner runner_b(pool_->view);
  core::TuningSession session(rs_b, runner_b, opts);
  while (session.step().has_value()) {
  }
  expect_bitwise_equal(session.finalize(), via_driver);
}

TEST_F(ServiceFixture, InspectPoolFileReadsHeadersAndRejectsGarbage) {
  // fedtune_pool info's parser follows the loaders' acceptance rules:
  // correct headers in, trailing garbage out.
  const std::string dir = fresh_dir();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/v.view";
  pool_->view.save(path);

  const auto info = core::inspect_pool_file(path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->kind, core::PoolFileInfo::Kind::kView);
  EXPECT_EQ(info->total_configs, 8u);
  EXPECT_EQ(info->num_clients, pool_->view.num_clients());
  EXPECT_EQ(info->checkpoints, pool_->view.checkpoints());
  EXPECT_EQ(info->file_bytes, std::filesystem::file_size(path));

  write_file(path, read_file(path) + "trailing");
  EXPECT_FALSE(core::inspect_pool_file(path).has_value());
  write_file(path, "junk");
  EXPECT_FALSE(core::inspect_pool_file(path).has_value());
  EXPECT_FALSE(core::inspect_pool_file(dir + "/absent").has_value());
}

TEST_F(ServiceFixture, BestIsEmptyBeforeFirstStep) {
  StudyManager mgr(manager_options(fresh_dir()));
  mgr.register_pool("p", pool_);
  StudySession& s =
      mgr.create_study(managed_spec("fresh", StudyMethod::kRandomSearch, 4));
  EXPECT_FALSE(s.best().has_value());
  s.run_one_step();
  ASSERT_TRUE(s.best().has_value());
}

// ------------------------------------------------ observability neutrality

// The determinism contract of src/obs/: metrics and tracing are
// observational only. A kill/resume run with the global TraceRecorder
// enabled (and metrics recording, which is unconditionally on) must remain
// bitwise identical to the uninstrumented uninterrupted run.
TEST_F(ServiceFixture, KillResumeBitwiseIdenticalWithTracingEnabled) {
  const StudySpec spec = managed_spec("obs-det", StudyMethod::kTpe, 8);

  // Reference trajectory: tracing off.
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.set_enabled(false);
  const core::TuneResult untraced = run_uninterrupted(spec);

  // Same study under tracing, both uninterrupted and killed/resumed.
  rec.set_enabled(true);
  const core::TuneResult traced = run_uninterrupted(spec);
  const core::TuneResult traced_resumed = run_interrupted(spec, 3);
  rec.set_enabled(false);

  expect_bitwise_equal(untraced, traced);
  expect_bitwise_equal(untraced, traced_resumed);
  // Tracing actually recorded something — the equivalence above must not
  // hold vacuously because spans never fired.
  EXPECT_GT(rec.events() + rec.dropped(), 0u);
}

// Per-study series materialize in the global registry as studies run: the
// exposition the daemon serves must carry a nonzero ask->tell histogram for
// the tenant that just ran.
TEST_F(ServiceFixture, StudyMetricsAppearInGlobalExposition) {
  const StudySpec spec =
      managed_spec("obs-expo", StudyMethod::kRandomSearch, 4);
  run_uninterrupted(spec);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::HistogramSnapshot snap =
      reg.histogram("fedtune_study_ask_tell_seconds", {{"study", "obs-expo"}})
          .snapshot();
  EXPECT_GT(snap.count, 0u);
  EXPECT_GT(snap.quantile(0.5), 0.0);
  EXPECT_GT(
      reg.counter("fedtune_study_steps_total", {{"study", "obs-expo"}})
          .value(),
      0u);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(
      text.find("fedtune_study_ask_tell_seconds{study=\"obs-expo\","
                "quantile=\"0.5\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("fedtune_journal_append_seconds_count"),
            std::string::npos);
}

}  // namespace
}  // namespace fedtune::service

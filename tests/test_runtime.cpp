// SysSim runtime tests (runtime/): event-clock ordering, latency-model
// purity, the acceptance criteria of the subsystem —
//   (a) event-clock determinism: same seed => bitwise-identical final
//       parameters across thread counts for all three participation
//       policies,
//   (b) deadline cutoff and dropout select exactly the clients the latency
//       model predicts,
//   (c) the async pipeline's streamed checkpoint errors equal the
//       synchronous evaluator's output —
// plus checkpoint-resume determinism under the event clock: a trial paused
// and resumed mid-round-schedule must match an uninterrupted run bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/rng_salts.hpp"
#include "core/noisy_evaluator.hpp"
#include "core/trial_runner.hpp"
#include "fl/evaluator.hpp"
#include "fl/trainer.hpp"
#include "nn/factory.hpp"
#include "runtime/async_eval.hpp"
#include "runtime/event_clock.hpp"
#include "runtime/latency_model.hpp"
#include "runtime/round_scheduler.hpp"
#include "sampling/client_sampler.hpp"
#include "test_util.hpp"

namespace fedtune {
namespace {

using runtime::ParticipationPolicy;

// ------------------------------------------------------------ EventClock --

TEST(EventClock, FiresInTimeOrderWithSequenceTieBreak) {
  runtime::EventClock clock;
  std::vector<int> fired;
  clock.schedule(2.0, [&] { fired.push_back(2); });
  clock.schedule(1.0, [&] { fired.push_back(1); });
  clock.schedule(1.0, [&] { fired.push_back(11); });  // same time, later seq
  clock.schedule(0.5, [&] { fired.push_back(0); });
  clock.run_until_idle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 11, 2}));
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
}

TEST(EventClock, HandlersScheduleFurtherEventsAndRunUntilStops) {
  runtime::EventClock clock;
  std::vector<double> times;
  clock.schedule(1.0, [&] {
    times.push_back(clock.now());
    clock.schedule_after(0.5, [&] { times.push_back(clock.now()); });
    clock.schedule(10.0, [&] { times.push_back(clock.now()); });
  });
  clock.run_until(2.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.5}));
  EXPECT_DOUBLE_EQ(clock.now(), 2.0);
  EXPECT_EQ(clock.pending(), 1u);
}

// ----------------------------------------------------------- LatencyModel --

TEST(LatencyModel, DrawsArePureInClientAndKey) {
  runtime::LatencyConfig cfg;
  cfg.lognormal_sigma = 0.8;
  cfg.tier_slowdowns = {1.0, 5.0};
  cfg.tier_weights = {0.5, 0.5};
  cfg.network_base = 0.1;
  cfg.network_jitter = 0.2;
  cfg.dropout_prob = 0.2;
  const runtime::LatencyModel model(cfg, Rng(3));

  const runtime::LatencyDraw a = model.draw(4, 17);
  // Unrelated draws in between must not change the answer.
  (void)model.draw(9, 17);
  (void)model.draw(4, 18);
  const runtime::LatencyDraw b = model.draw(4, 17);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.network_seconds, b.network_seconds);
  EXPECT_EQ(a.dropped, b.dropped);
  // Tier assignment is fixed per client.
  EXPECT_EQ(model.tier_of(4), model.tier_of(4));
}

TEST(LatencyModel, TierSlowdownScalesCompute) {
  runtime::LatencyConfig cfg;
  cfg.lognormal_sigma = 0.0;  // deterministic compute: exp(0) = 1s
  cfg.tier_slowdowns = {1.0, 4.0};
  cfg.tier_weights = {0.5, 0.5};
  const runtime::LatencyModel model(cfg, Rng(5));
  for (std::size_t c = 0; c < 32; ++c) {
    const double expected = model.tier_of(c) == 0 ? 1.0 : 4.0;
    EXPECT_DOUBLE_EQ(model.draw(c, 0).compute_seconds, expected);
  }
}

TEST(LatencyModel, LognormalDrawsPinnedBitwise) {
  // The lognormal draw scales a standard normal by sigma itself (so sigma = 0
  // is legal); for sigma > 0 it must equal normal(mean, sigma) bit for bit,
  // and the network jitter drawn after it must not shift. Recorded values.
  runtime::LatencyConfig cfg;
  cfg.lognormal_log_mean = 0.3;
  cfg.lognormal_sigma = 0.6;
  cfg.tier_slowdowns = {1.0, 4.0};
  cfg.tier_weights = {0.7, 0.3};
  cfg.network_base = 0.2;
  cfg.network_jitter = 0.1;
  cfg.dropout_prob = 0.1;
  const runtime::LatencyModel model(cfg, Rng(11));
  struct Pinned {
    double compute, network;
    bool dropped;
  };
  const Pinned pinned[] = {
      {0x1.be579617db683p+2, 0x1.ded46e257bc4cp-3, false},
      {0x1.b054b3c8372abp+0, 0x1.9ee5a42ec46e3p-3, false},
      {0x1.8a9d908b909f4p+0, 0x1.d55b62809fc45p-3, true},
      {0x1.191facdd52ad5p+1, 0x1.9cf76d22971dap-3, false},
  };
  for (std::size_t c = 0; c < 4; ++c) {
    const runtime::LatencyDraw d = model.draw(c, 3 + c, 10);
    EXPECT_EQ(d.compute_seconds, pinned[c].compute) << "client " << c;
    EXPECT_EQ(d.network_seconds, pinned[c].network) << "client " << c;
    EXPECT_EQ(d.dropped, pinned[c].dropped) << "client " << c;
  }
}

// ------------------------------------------- scheduler helpers for tests --

runtime::LatencyConfig test_latency_config() {
  runtime::LatencyConfig cfg;
  cfg.lognormal_sigma = 0.7;
  cfg.tier_slowdowns = {1.0, 3.0};
  cfg.tier_weights = {0.7, 0.3};
  cfg.network_base = 0.1;
  cfg.dropout_prob = 0.15;
  return cfg;
}

runtime::SchedulerConfig policy_config(ParticipationPolicy policy) {
  runtime::SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.cohort_size = 6;
  cfg.over_select_factor = 1.5;
  cfg.round_deadline = 4.0;
  cfg.drop_slowest_fraction = 0.34;
  cfg.async_concurrency = 6;
  cfg.async_buffer_size = 3;
  return cfg;
}

std::vector<float> run_policy_params(ParticipationPolicy policy,
                                     std::size_t client_threads,
                                     std::size_t rounds,
                                     std::vector<runtime::RoundRecord>*
                                         history_out = nullptr) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  fl::TrainerConfig trainer_cfg;
  trainer_cfg.client_threads = client_threads;
  fl::FedTrainer trainer(ds, *arch, hps, trainer_cfg, Rng(77));
  const runtime::LatencyModel latency(test_latency_config(), Rng(88));
  runtime::RoundScheduler scheduler(trainer, latency, policy_config(policy),
                                    Rng(99));
  scheduler.run_rounds(rounds);
  if (history_out != nullptr) *history_out = scheduler.history();
  const auto params = trainer.model().params();
  return std::vector<float>(params.begin(), params.end());
}

// ------------------------------------- (a) determinism across thread counts

TEST(RoundScheduler, SerialAndParallelBitwiseIdenticalAllPolicies) {
  for (const ParticipationPolicy policy :
       {ParticipationPolicy::kSynchronous, ParticipationPolicy::kStragglerDrop,
        ParticipationPolicy::kBufferedAsync}) {
    std::vector<runtime::RoundRecord> hist_serial, hist_parallel;
    const std::vector<float> serial =
        run_policy_params(policy, 1, 5, &hist_serial);
    const std::vector<float> parallel =
        run_policy_params(policy, 0, 5, &hist_parallel);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i], parallel[i])
          << runtime::policy_name(policy) << " param " << i;
    }
    // The simulated timeline itself must also be schedule-independent.
    ASSERT_EQ(hist_serial.size(), hist_parallel.size());
    for (std::size_t r = 0; r < hist_serial.size(); ++r) {
      EXPECT_EQ(hist_serial[r].participants, hist_parallel[r].participants)
          << runtime::policy_name(policy) << " round " << r;
      EXPECT_EQ(hist_serial[r].completed_at, hist_parallel[r].completed_at);
    }
  }
}

// --------------------------- (b) participation follows the latency model --

TEST(RoundScheduler, DeadlineCutoffAndDropoutMatchLatencyModel) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;

  runtime::LatencyConfig lat_cfg = test_latency_config();
  const runtime::LatencyModel latency(lat_cfg, Rng(88));

  runtime::SchedulerConfig sched_cfg =
      policy_config(ParticipationPolicy::kSynchronous);
  fl::FedTrainer trainer(ds, *arch, hps, fl::TrainerConfig{}, Rng(77));
  const Rng sched_rng(99);
  runtime::RoundScheduler scheduler(trainer, latency, sched_cfg, sched_rng);
  scheduler.run_rounds(3);

  double round_start = 0.0;
  for (std::size_t round = 0; round < 3; ++round) {
    // Recompute the cohort and every latency draw exactly as the scheduler
    // derives them (documented stream contract, common/rng_salts.hpp).
    Rng round_rng = sched_rng.split(salts::kSchedulerRound + round);
    const std::size_t sample_n = std::min(
        ds.train_clients.size(),
        static_cast<std::size_t>(std::ceil(sched_cfg.over_select_factor *
                                           sched_cfg.cohort_size)));
    const std::vector<std::size_t> sampled = sampling::sample_uniform(
        ds.train_clients.size(), sample_n, round_rng);

    struct Finish {
      std::size_t client;
      double time;
    };
    std::vector<Finish> finishers;
    std::vector<std::size_t> dropped_out;
    for (const std::size_t c : sampled) {
      const runtime::LatencyDraw d =
          latency.draw(c, round, ds.train_clients[c].num_examples());
      if (d.dropped) {
        dropped_out.push_back(c);
      } else {
        finishers.push_back({c, round_start + d.total()});
      }
    }
    std::stable_sort(finishers.begin(), finishers.end(),
                     [](const Finish& a, const Finish& b) {
                       return a.time < b.time;
                     });
    const double deadline = round_start + sched_cfg.round_deadline;
    std::vector<std::size_t> expected;
    for (const Finish& f : finishers) {
      if (expected.size() >= sched_cfg.cohort_size) break;
      if (f.time <= deadline || expected.size() < sched_cfg.min_reports) {
        expected.push_back(f.client);
      }
    }

    const runtime::RoundRecord& rec = scheduler.history()[round];
    EXPECT_EQ(rec.participants, expected) << "round " << round;
    // Everyone sampled but not aggregated is accounted as dropped, and the
    // dropout coins match the model's.
    EXPECT_EQ(rec.participants.size() + rec.dropped.size(), sampled.size());
    for (const std::size_t c : dropped_out) {
      EXPECT_NE(std::find(rec.dropped.begin(), rec.dropped.end(), c),
                rec.dropped.end())
          << "dropout client " << c << " missing in round " << round;
    }
    round_start = rec.completed_at;
  }
}

TEST(RoundScheduler, StragglerDropCutsSlowestFraction) {
  std::vector<runtime::RoundRecord> history;
  run_policy_params(ParticipationPolicy::kStragglerDrop, 1, 4, &history);
  ASSERT_EQ(history.size(), 4u);
  for (const runtime::RoundRecord& rec : history) {
    // cohort 6, 15% dropout coins, then floor(0.34 * reporters) cut: the
    // aggregate can never include everyone sampled.
    EXPECT_LE(rec.participants.size(), 5u);
    EXPECT_GE(rec.participants.size() + rec.dropped.size(), 6u);
  }
}

TEST(RoundScheduler, AsyncBuffersKReportsAndDiscountsStaleness) {
  std::vector<runtime::RoundRecord> history;
  run_policy_params(ParticipationPolicy::kBufferedAsync, 1, 6, &history);
  ASSERT_EQ(history.size(), 6u);
  double max_staleness = 0.0;
  for (const runtime::RoundRecord& rec : history) {
    EXPECT_EQ(rec.participants.size(), 3u);  // async_buffer_size
    max_staleness = std::max(max_staleness, rec.mean_staleness);
  }
  // With concurrency 6 and buffer 3, some reports must arrive stale.
  EXPECT_GT(max_staleness, 0.0);
}

// ------------------------------------------- resume determinism (satellite)

TEST(RoundScheduler, PauseResumeBitwiseIdenticalAllPolicies) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  const runtime::LatencyModel latency(test_latency_config(), Rng(88));

  for (const ParticipationPolicy policy :
       {ParticipationPolicy::kSynchronous, ParticipationPolicy::kStragglerDrop,
        ParticipationPolicy::kBufferedAsync}) {
    const runtime::SchedulerConfig cfg = policy_config(policy);

    // Uninterrupted: 8 rounds straight.
    fl::FedTrainer full(ds, *arch, hps, fl::TrainerConfig{}, Rng(77));
    runtime::RoundScheduler full_sched(full, latency, cfg, Rng(99));
    full_sched.run_rounds(8);

    // Paused at 3, checkpointed, restored into FRESH objects, resumed.
    fl::FedTrainer head(ds, *arch, hps, fl::TrainerConfig{}, Rng(77));
    runtime::RoundScheduler head_sched(head, latency, cfg, Rng(99));
    head_sched.run_rounds(3);
    const fl::Checkpoint trainer_ckpt = head.checkpoint();
    const runtime::SchedulerCheckpoint sched_ckpt = head_sched.checkpoint();

    fl::FedTrainer tail(ds, *arch, hps, fl::TrainerConfig{}, Rng(1234));
    tail.restore(trainer_ckpt);
    runtime::RoundScheduler tail_sched(tail, latency, cfg, Rng(99));
    tail_sched.restore(sched_ckpt);
    tail_sched.run_rounds(5);

    const auto a = full.model().params();
    const auto b = tail.model().params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << runtime::policy_name(policy) << " param " << i;
    }
    EXPECT_EQ(full_sched.sim_time(), tail_sched.sim_time())
        << runtime::policy_name(policy);
  }
}

TEST(LiveTrialRunner, RuntimeModeResumesPromotionsDeterministically) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  core::RuntimeOptions rt;
  rt.latency = test_latency_config();
  rt.scheduler = policy_config(ParticipationPolicy::kSynchronous);

  hpo::Trial root;
  root.id = 0;
  root.config = {{"client_lr", 0.05}, {"server_lr", 0.01}};
  root.target_rounds = 3;
  hpo::Trial child = root;
  child.id = 1;
  child.parent_id = 0;
  child.target_rounds = 8;

  // Promotion chain root -> child vs one straight 8-round trial.
  core::LiveTrialRunner chained(ds, *arch, fl::TrainerConfig{}, Rng(5), rt);
  (void)chained.run(root);
  const std::vector<double> resumed = chained.run(child);

  core::LiveTrialRunner straight(ds, *arch, fl::TrainerConfig{}, Rng(5), rt);
  hpo::Trial direct = root;
  direct.target_rounds = 8;
  const std::vector<double> uninterrupted = straight.run(direct);

  ASSERT_EQ(resumed.size(), uninterrupted.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_EQ(resumed[i], uninterrupted[i]) << "client " << i;
  }
  // Simulated wall-clock is consumed and resumes pay only the continuation.
  EXPECT_GT(chained.sim_seconds_total(), 0.0);
  EXPECT_EQ(chained.sim_seconds_total(), straight.sim_seconds_total());
  EXPECT_EQ(chained.trial_sim_seconds(1), straight.trial_sim_seconds(0));
}

// --------------------------- (c) async pipeline matches the sync evaluator

TEST(AsyncEvalPipeline, StreamedErrorsEqualSynchronousEvaluator) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  fl::FedTrainer trainer(ds, *arch, hps, fl::TrainerConfig{}, Rng(42));

  const std::string stream_path = "/tmp/fedtune_eval_stream_test.txt";
  runtime::AsyncEvalOptions opts;
  opts.stream_path = stream_path;
  std::vector<std::vector<double>> sync_errors;
  {
    runtime::AsyncEvalPipeline pipeline(*arch, ds.eval_clients, opts);
    for (std::size_t round = 1; round <= 6; ++round) {
      trainer.run_round();
      if (round % 2 == 0) {
        pipeline.submit(round, round, trainer.global_params());
        // Synchronous reference for the same snapshot.
        sync_errors.push_back(
            fl::all_client_errors(trainer.model(), ds.eval_clients));
      }
    }
    const std::vector<runtime::AsyncEvalPipeline::Result> results =
        pipeline.results();
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].rounds, 2 * (i + 1));
      ASSERT_EQ(results[i].errors.size(), sync_errors[i].size());
      for (std::size_t k = 0; k < sync_errors[i].size(); ++k) {
        ASSERT_EQ(results[i].errors[k], sync_errors[i][k])
            << "checkpoint " << i << " client " << k;
      }
    }
  }

  // The stream file round-trips the same values (%.17g), one line per
  // checkpoint, in completion order.
  std::ifstream in(stream_path);
  ASSERT_TRUE(in.is_open());
  std::map<std::size_t, std::vector<double>> streamed;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::size_t tag = 0, rounds = 0;
    fields >> tag >> rounds;
    std::vector<double> errs;
    double e = 0.0;
    while (fields >> e) errs.push_back(e);
    streamed[rounds] = std::move(errs);
  }
  ASSERT_EQ(streamed.size(), 3u);
  for (std::size_t i = 0; i < sync_errors.size(); ++i) {
    const auto it = streamed.find(2 * (i + 1));
    ASSERT_NE(it, streamed.end());
    ASSERT_EQ(it->second.size(), sync_errors[i].size());
    for (std::size_t k = 0; k < sync_errors[i].size(); ++k) {
      ASSERT_EQ(it->second[k], sync_errors[i][k]);
    }
  }
  std::filesystem::remove(stream_path);
}

TEST(AsyncEvalPipeline, OverlapsWithSchedulerTraining) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  fl::FedTrainer trainer(ds, *arch, hps, fl::TrainerConfig{}, Rng(42));
  const runtime::LatencyModel latency(test_latency_config(), Rng(88));
  runtime::RoundScheduler scheduler(
      trainer, latency, policy_config(ParticipationPolicy::kSynchronous),
      Rng(99));
  runtime::AsyncEvalPipeline pipeline(*arch, ds.eval_clients);
  scheduler.attach_eval(&pipeline, /*eval_every=*/2);
  scheduler.run_rounds(6);
  const auto results = pipeline.results();
  ASSERT_EQ(results.size(), 3u);
  // The final checkpoint matches an on-the-spot synchronous evaluation.
  const std::vector<double> sync =
      fl::all_client_errors(trainer.model(), ds.eval_clients);
  ASSERT_EQ(results.back().errors.size(), sync.size());
  for (std::size_t k = 0; k < sync.size(); ++k) {
    ASSERT_EQ(results.back().errors[k], sync[k]);
  }
}

// ------------------------------------------------- NoiseModel integration --

TEST(NoisyEvaluator, EvalDropoutShrinksReportingSet) {
  const std::vector<double> errors = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};
  core::NoiseModel noise;
  noise.eval_clients = 8;
  noise.eval_dropout = 0.5;
  core::NoisyEvaluator eval(noise, data::uniform_weights(errors.size()), 100,
                            Rng(9));
  std::size_t shrunk = 0;
  for (int i = 0; i < 50; ++i) {
    const double v = eval.evaluate(errors);
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(eval.last_sample().size(), 1u);
    EXPECT_LE(eval.last_sample().size(), 8u);
    if (eval.last_sample().size() < 8) ++shrunk;
    // The reported value is the aggregate of exactly the reporting set.
    double mean = 0.0;
    for (const std::size_t k : eval.last_sample()) mean += errors[k];
    mean /= static_cast<double>(eval.last_sample().size());
    EXPECT_DOUBLE_EQ(v, mean);
  }
  EXPECT_GT(shrunk, 25u);  // dropout 0.5 shrinks most evaluations
}

TEST(NoisyEvaluator, ZeroDropoutMatchesLegacyBehaviour) {
  const std::vector<double> errors = {0.1, 0.4, 0.7};
  core::NoiseModel noise;  // defaults: full eval, no dropout
  core::NoisyEvaluator a(noise, data::uniform_weights(3), 10, Rng(4));
  noise.eval_dropout = 0.0;
  core::NoisyEvaluator b(noise, data::uniform_weights(3), 10, Rng(4));
  EXPECT_EQ(a.evaluate(errors), b.evaluate(errors));
}

}  // namespace
}  // namespace fedtune

// SysSim walkthrough — systems heterogeneity as a first-class simulation.
//
// Builds a small federated population on a two-tier hardware fleet, then
// shows (1) what the latency model assigns, (2) how the three participation
// policies trade staleness and dropped work for wall-clock on the SAME
// fleet, and (3) per-client evaluation errors of the checkpoints one
// training run passes through, each aggregated into a full error.
//
//   build/example_systems_heterogeneity
#include <iostream>
#include <numeric>
#include <vector>

#include "common/table.hpp"
#include "data/synth_image.hpp"
#include "fl/evaluator.hpp"
#include "fl/trainer.hpp"
#include "nn/factory.hpp"
#include "runtime/latency_model.hpp"
#include "runtime/round_scheduler.hpp"

int main() {
  using namespace fedtune;

  data::SynthImageConfig cfg;
  cfg.name = "syssim-demo";
  cfg.num_train_clients = 30;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 40.0;
  cfg.input_dim = 16;
  cfg.seed = 7;
  const data::FederatedDataset ds = data::make_synth_image(cfg);
  const auto arch = nn::make_default_model(ds);

  // A fleet where 30% of clients run on 4x slower hardware and 10% of
  // dispatches never report back.
  runtime::LatencyConfig lat;
  lat.lognormal_sigma = 0.6;
  lat.tier_slowdowns = {1.0, 4.0};
  lat.tier_weights = {0.7, 0.3};
  lat.network_base = 0.2;
  lat.dropout_prob = 0.1;
  const runtime::LatencyModel latency(lat, Rng(11));

  std::size_t slow = 0;
  for (std::size_t c = 0; c < ds.train_clients.size(); ++c) {
    if (latency.tier_of(c) == 1) ++slow;
  }
  std::cout << "fleet: " << ds.train_clients.size() << " clients, " << slow
            << " on the slow tier; e.g. client 0 takes "
            << Table::format(latency.draw(0, 0).total(), 2)
            << "s in round 0\n\n";

  // The same fleet under each participation policy.
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  constexpr std::size_t kRounds = 15;

  Table policies({"policy", "full_error", "sim_seconds", "dropped",
                  "mean_staleness"});
  for (const runtime::ParticipationPolicy policy :
       {runtime::ParticipationPolicy::kSynchronous,
        runtime::ParticipationPolicy::kStragglerDrop,
        runtime::ParticipationPolicy::kBufferedAsync}) {
    runtime::SchedulerConfig sched;
    sched.policy = policy;
    sched.cohort_size = 8;
    sched.over_select_factor = 1.25;  // sample 10, keep the fastest 8
    sched.round_deadline = 6.0;
    sched.drop_slowest_fraction = 0.25;
    sched.async_concurrency = 8;
    sched.async_buffer_size = 4;

    fl::FedTrainer trainer(ds, *arch, hps, {}, Rng(21));
    runtime::RoundScheduler scheduler(trainer, latency, sched, Rng(22));
    scheduler.run_rounds(kRounds);

    std::size_t dropped = 0;
    double staleness = 0.0;
    for (const auto& r : scheduler.history()) {
      dropped += r.dropped.size();
      staleness += r.mean_staleness;
    }
    policies.add_row(
        {runtime::policy_name(policy),
         Table::format(100.0 * fl::full_validation_error(trainer.model(), ds)),
         Table::format(scheduler.sim_time(), 1), std::to_string(dropped),
         Table::format(staleness / static_cast<double>(kRounds), 2)});
  }
  policies.print(std::cout);
  std::cout << "-> same fleet, same seeds: the policy alone decides how much "
               "wall-clock a round costs and how stale its gradients are.\n\n";

  // Checkpoint evaluation: every third round, score the current model on
  // every eval client and aggregate by example count.
  fl::FedTrainer trainer(ds, *arch, hps, {}, Rng(31));
  std::vector<std::size_t> all_eval(ds.eval_clients.size());
  std::iota(all_eval.begin(), all_eval.end(), std::size_t{0});
  Table evals({"checkpoint_rounds", "full_error"});
  for (std::size_t round = 1; round <= 9; ++round) {
    trainer.run_round();
    if (round % 3 != 0) continue;
    const std::vector<double> errors =
        fl::all_client_errors(trainer.model(), ds.eval_clients);
    evals.add_row({std::to_string(round),
                   Table::format(100.0 * fl::aggregate_error(
                                             errors, ds.eval_clients, all_eval,
                                             fl::Weighting::kByExampleCount))});
  }
  evals.print(std::cout);
  return 0;
}

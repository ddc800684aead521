// RoundScheduler — participation policies over the event clock.
//
// Drives a FedTrainer through its participation hooks (train_clients /
// apply_reports) on a simulated wall-clock timeline: clients take the time
// the LatencyModel assigns them, and the policy decides which of them make
// it into each aggregation step.
//
// Policies:
//   kSynchronous   — sample ceil(over_select_factor * cohort_size) clients,
//                    aggregate the first cohort_size to finish before the
//                    round deadline (over-selection hedges stragglers);
//                    clients past the deadline are cut. The round completes
//                    at the last accepted report (or the deadline).
//   kStragglerDrop — sample cohort_size clients, drop the slowest
//                    drop_slowest_fraction of the reporters; the round
//                    completes when the last *kept* client reports.
//   kBufferedAsync — FedBuff-style: async_concurrency clients train
//                    concurrently, each from the global snapshot current at
//                    its dispatch; the server aggregates every
//                    async_buffer_size reports, discounting each delta by
//                    (1 + staleness)^-staleness_exponent, where staleness =
//                    aggregations since the client's anchor snapshot.
//
// Determinism: cohort/dispatch sampling and training streams are pure
// splits of the scheduler seed by round/dispatch index (common/rng_salts
// .hpp), latency draws are pure in (client, work key), events fire in
// (time, seq) order, and reports reduce in event order — so the whole
// timeline, and therefore the final parameters, are bitwise reproducible
// across thread counts, and a checkpoint()/restore() pair replays the exact
// continuation of an uninterrupted run.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fl/trainer.hpp"
#include "runtime/event_clock.hpp"
#include "runtime/latency_model.hpp"

namespace fedtune::runtime {

enum class ParticipationPolicy {
  kSynchronous,
  kStragglerDrop,
  kBufferedAsync,
};

const char* policy_name(ParticipationPolicy policy);

struct SchedulerConfig {
  ParticipationPolicy policy = ParticipationPolicy::kSynchronous;
  std::size_t cohort_size = 10;

  // kSynchronous: sampling inflation and the report deadline (seconds from
  // round start). At least min_reports reports are always accepted — the
  // deadline extends for the fastest clients when everyone straggles.
  // With an INFINITE deadline the round ends at the last surviving report:
  // dropped-out clients are skipped as if the server knew they vanished
  // (a real deadline-less server would block forever). Set a finite
  // deadline to model the waiting a dropout actually costs.
  double over_select_factor = 1.0;
  double round_deadline = std::numeric_limits<double>::infinity();
  std::size_t min_reports = 1;

  // kStragglerDrop: fraction of reporters cut from the aggregate.
  double drop_slowest_fraction = 0.0;

  // kBufferedAsync.
  std::size_t async_concurrency = 20;
  std::size_t async_buffer_size = 5;
  double staleness_exponent = 0.5;
};

// One aggregation step's observable outcome.
struct RoundRecord {
  std::size_t round = 0;        // aggregation index (trainer round)
  double completed_at = 0.0;    // simulated time of the aggregation
  std::vector<std::size_t> participants;  // aggregation order
  std::vector<std::size_t> dropped;  // sampled/dispatched but not aggregated
  double mean_staleness = 0.0;       // async: mean anchor age in rounds
};

// Serializable scheduler state: everything needed to continue a run
// bitwise-identically. Synchronous policies only need (rounds via the
// trainer, sim_time); async also carries the in-flight pipeline.
struct SchedulerCheckpoint {
  // Policy the state was captured under; restore() rejects a mismatch
  // (async in-flight events replayed into a synchronous schedule would
  // silently corrupt the trajectory).
  ParticipationPolicy policy = ParticipationPolicy::kSynchronous;
  double sim_time = 0.0;
  std::uint64_t dispatch_count = 0;
  struct PendingClient {
    std::size_t client_id = 0;
    std::uint64_t dispatch = 0;       // dispatch index (training stream key)
    std::size_t anchor_version = 0;   // trainer round of its snapshot
    double finish_time = 0.0;
    bool dropped = false;  // will vanish at finish_time instead of reporting
  };
  std::vector<PendingClient> inflight;  // training, finish event pending
  std::vector<PendingClient> buffered;  // reported, awaiting aggregation
  std::map<std::size_t, std::vector<float>> anchors;  // version -> params
};

class RoundScheduler {
 public:
  // `trainer` and `latency` must outlive the scheduler. The trainer should
  // be freshly constructed or restored from a checkpoint taken at a
  // scheduler boundary.
  RoundScheduler(fl::FedTrainer& trainer, const LatencyModel& latency,
                 SchedulerConfig cfg, Rng rng);

  // Runs until `n` more aggregation steps have been applied. Async keeps
  // its buffer/in-flight state across calls (capture it via checkpoint()).
  void run_rounds(std::size_t n);

  double sim_time() const { return clock_.now(); }
  std::size_t rounds_done() const { return trainer_->rounds_done(); }
  const std::vector<RoundRecord>& history() const { return history_; }

  // Pause/resume at an aggregation boundary. restore() assumes the paired
  // trainer was restored to the checkpoint taken at the same moment, and
  // clears history() — records of an abandoned timeline don't belong to
  // the restored one.
  SchedulerCheckpoint checkpoint() const;
  void restore(const SchedulerCheckpoint& ckpt);

 private:
  struct AsyncPending {
    std::size_t client_id = 0;
    std::uint64_t dispatch = 0;
    std::size_t anchor_version = 0;
    double finish_time = 0.0;
    bool dropped = false;
  };

  void run_sync_round();
  void run_async_until_aggregation();
  void dispatch_async_clients();
  void on_async_finish(std::uint64_t dispatch);
  void aggregate_async_buffer();
  const std::vector<float>& anchor_params(std::size_t version);
  void prune_anchors();
  std::size_t num_train_clients() const;

  fl::FedTrainer* trainer_;
  const LatencyModel* latency_;
  SchedulerConfig cfg_;
  Rng rng_;
  EventClock clock_;
  std::vector<RoundRecord> history_;

  // Async state.
  std::uint64_t dispatch_count_ = 0;
  std::vector<AsyncPending> inflight_;
  std::vector<AsyncPending> buffer_;
  std::map<std::size_t, std::vector<float>> anchors_;
  std::vector<std::size_t> async_dropped_;  // since the last aggregation

  // Scratch.
  std::vector<float> local_params_;
};

}  // namespace fedtune::runtime

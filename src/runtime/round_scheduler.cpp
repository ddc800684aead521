#include "runtime/round_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng_salts.hpp"
#include "sampling/client_sampler.hpp"

namespace fedtune::runtime {

const char* policy_name(ParticipationPolicy policy) {
  switch (policy) {
    case ParticipationPolicy::kSynchronous: return "synchronous";
    case ParticipationPolicy::kStragglerDrop: return "straggler_drop";
    case ParticipationPolicy::kBufferedAsync: return "buffered_async";
  }
  return "?";
}

RoundScheduler::RoundScheduler(fl::FedTrainer& trainer,
                               const LatencyModel& latency,
                               SchedulerConfig cfg, Rng rng)
    : trainer_(&trainer), latency_(&latency), cfg_(cfg), rng_(rng) {
  FEDTUNE_CHECK(cfg_.cohort_size > 0);
  FEDTUNE_CHECK(cfg_.over_select_factor >= 1.0);
  FEDTUNE_CHECK(cfg_.round_deadline > 0.0);
  FEDTUNE_CHECK(cfg_.min_reports > 0 &&
                cfg_.min_reports <= cfg_.cohort_size);
  FEDTUNE_CHECK(cfg_.drop_slowest_fraction >= 0.0 &&
                cfg_.drop_slowest_fraction < 1.0);
  FEDTUNE_CHECK(cfg_.async_concurrency > 0);
  FEDTUNE_CHECK(cfg_.async_buffer_size > 0);
  FEDTUNE_CHECK(cfg_.staleness_exponent >= 0.0);
}

std::size_t RoundScheduler::num_train_clients() const {
  return trainer_->dataset().train_clients.size();
}

void RoundScheduler::run_rounds(std::size_t n) {
  if (cfg_.policy == ParticipationPolicy::kBufferedAsync) {
    const std::size_t target = trainer_->rounds_done() + n;
    while (trainer_->rounds_done() < target) run_async_until_aggregation();
    return;
  }
  for (std::size_t i = 0; i < n; ++i) run_sync_round();
}

// ---------------------------------------------------------------- sync ----

void RoundScheduler::run_sync_round() {
  const std::size_t round = trainer_->rounds_done();
  const std::size_t n = num_train_clients();
  const auto& clients = trainer_->dataset().train_clients;

  // Per-round stream: cohort sampling advances the engine; per-client
  // training streams are seed-splits, so they are unaffected by the draws.
  Rng round_rng = rng_.split(salts::kSchedulerRound + round);
  std::size_t sample_n = cfg_.cohort_size;
  if (cfg_.policy == ParticipationPolicy::kSynchronous) {
    sample_n = static_cast<std::size_t>(
        std::ceil(cfg_.over_select_factor *
                  static_cast<double>(cfg_.cohort_size)));
  }
  sample_n = std::min(sample_n, n);
  const std::vector<std::size_t> sampled =
      sampling::sample_uniform(n, sample_n, round_rng);

  const double start = clock_.now();
  struct Finish {
    std::size_t client;
    double time;
  };
  // Finish events fire in (time, seq) order; seq ties follow sampled order
  // because that is the order events are scheduled in.
  std::vector<Finish> finishers;
  std::vector<std::size_t> dropped_out;
  for (const std::size_t client : sampled) {
    const LatencyDraw draw =
        latency_->draw(client, round, clients[client].num_examples());
    if (draw.dropped) {
      dropped_out.push_back(client);
      continue;
    }
    clock_.schedule(start + draw.total(), [this, client, &finishers] {
      finishers.push_back(Finish{client, clock_.now()});
    });
  }
  clock_.run_until_idle();

  // Apply the policy to the ordered finish list.
  const double deadline = start + cfg_.round_deadline;
  std::vector<Finish> accepted;
  std::vector<std::size_t> cut;
  double round_end = start;
  if (cfg_.policy == ParticipationPolicy::kSynchronous) {
    // The server aggregates the first cohort_size reports that beat the
    // deadline; the deadline extends for the fastest reporters while fewer
    // than min_reports have arrived (an empty aggregate helps nobody).
    const std::size_t target = std::min(cfg_.cohort_size, sampled.size());
    for (const Finish& f : finishers) {
      if (accepted.size() >= target) {
        cut.push_back(f.client);
      } else if (f.time <= deadline ||
                 accepted.size() < cfg_.min_reports) {
        accepted.push_back(f);
      } else {
        cut.push_back(f.client);
      }
    }
    // When it fills the cohort, the server moves on immediately; otherwise
    // it waits out the (finite) deadline for reports that never come —
    // dropped-out stragglers keep computing into the void.
    if (!accepted.empty()) round_end = accepted.back().time;
    if (accepted.size() < target && std::isfinite(deadline)) {
      round_end = std::max(round_end, deadline);
    }
  } else {  // kStragglerDrop
    const std::size_t keep =
        finishers.size() -
        static_cast<std::size_t>(std::floor(cfg_.drop_slowest_fraction *
                                            static_cast<double>(
                                                finishers.size())));
    for (std::size_t i = 0; i < finishers.size(); ++i) {
      if (i < keep) {
        accepted.push_back(finishers[i]);
      } else {
        cut.push_back(finishers[i].client);
      }
    }
    if (!accepted.empty()) round_end = accepted.back().time;
  }

  // Train the accepted cohort (parallel, pure per-task) and aggregate in
  // finish order.
  std::vector<fl::ClientTask> tasks;
  tasks.reserve(accepted.size());
  for (const Finish& f : accepted) {
    tasks.push_back(fl::ClientTask{f.client, round_rng.split(f.client),
                                   nullptr});
  }
  trainer_->train_clients(tasks, local_params_);

  const std::size_t n_params = trainer_->num_params();
  std::vector<fl::ClientReport> reports;
  reports.reserve(accepted.size());
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    reports.push_back(fl::ClientReport{
        accepted[i].client,
        std::span<const float>(
            local_params_.data() +
                static_cast<std::ptrdiff_t>(i * n_params),
            n_params),
        std::span<const float>(trainer_->global_params()), 1.0});
  }
  trainer_->apply_reports(reports);

  RoundRecord record;
  record.round = round;
  record.completed_at = round_end;
  for (const Finish& f : accepted) record.participants.push_back(f.client);
  record.dropped = std::move(dropped_out);
  record.dropped.insert(record.dropped.end(), cut.begin(), cut.end());
  history_.push_back(std::move(record));

  // The event queue is drained; rewind the clock to the moment the server
  // actually moved on (stragglers past the cutoff don't delay the round).
  clock_.reset(round_end);
}

// --------------------------------------------------------------- async ----

const std::vector<float>& RoundScheduler::anchor_params(std::size_t version) {
  const auto it = anchors_.find(version);
  if (it != anchors_.end()) return it->second;
  FEDTUNE_CHECK_MSG(version == trainer_->rounds_done(),
                    "anchor snapshot requested for a past round " << version);
  return anchors_.emplace(version, trainer_->global_params()).first->second;
}

void RoundScheduler::prune_anchors() {
  for (auto it = anchors_.begin(); it != anchors_.end();) {
    const std::size_t v = it->first;
    const auto refs = [v](const AsyncPending& p) {
      return p.anchor_version == v;
    };
    if (std::any_of(inflight_.begin(), inflight_.end(), refs) ||
        std::any_of(buffer_.begin(), buffer_.end(), refs)) {
      ++it;
    } else {
      it = anchors_.erase(it);
    }
  }
}

void RoundScheduler::dispatch_async_clients() {
  const std::size_t n = num_train_clients();
  const auto& clients = trainer_->dataset().train_clients;
  const std::size_t cap = std::min(cfg_.async_concurrency, n);
  while (inflight_.size() < cap) {
    const std::uint64_t dispatch = dispatch_count_++;
    Rng d_rng = rng_.split(salts::kSchedulerDispatch + dispatch);

    // Uniform over clients not currently in flight (ascending id order, so
    // the index draw is schedule-independent).
    std::vector<std::size_t> available;
    available.reserve(n - inflight_.size());
    for (std::size_t c = 0; c < n; ++c) {
      const auto busy = [c](const AsyncPending& p) {
        return p.client_id == c;
      };
      if (!std::any_of(inflight_.begin(), inflight_.end(), busy)) {
        available.push_back(c);
      }
    }
    const std::size_t client = available[static_cast<std::size_t>(
        d_rng.uniform_int(0, static_cast<std::int64_t>(available.size()) - 1))];

    const std::size_t version = trainer_->rounds_done();
    anchor_params(version);  // snapshot the anchor this client trains from
    const LatencyDraw draw =
        latency_->draw(client, dispatch, clients[client].num_examples());
    AsyncPending pending{client, dispatch, version,
                         clock_.now() + draw.total(), draw.dropped};
    inflight_.push_back(pending);
    clock_.schedule(pending.finish_time,
                    [this, dispatch] { on_async_finish(dispatch); });
  }
}

void RoundScheduler::on_async_finish(std::uint64_t dispatch) {
  const auto it = std::find_if(
      inflight_.begin(), inflight_.end(),
      [dispatch](const AsyncPending& p) { return p.dispatch == dispatch; });
  FEDTUNE_CHECK(it != inflight_.end());
  const AsyncPending pending = *it;
  inflight_.erase(it);
  if (pending.dropped) {
    async_dropped_.push_back(pending.client_id);
    return;  // the slot frees; the outer loop re-dispatches
  }
  buffer_.push_back(pending);
  if (buffer_.size() >= cfg_.async_buffer_size) aggregate_async_buffer();
}

void RoundScheduler::aggregate_async_buffer() {
  const std::size_t round = trainer_->rounds_done();
  const std::size_t n_params = trainer_->num_params();

  // Training is deferred to aggregation time: each buffered client's local
  // run is a pure function of (its anchor snapshot, its dispatch stream),
  // so nothing about the simulated timeline changes the results — only
  // which deltas aggregate, in which order, with what discount.
  std::vector<fl::ClientTask> tasks;
  tasks.reserve(buffer_.size());
  for (const AsyncPending& p : buffer_) {
    const Rng d_rng = rng_.split(salts::kSchedulerDispatch + p.dispatch);
    tasks.push_back(fl::ClientTask{p.client_id, d_rng.split(p.client_id),
                                   &anchors_.at(p.anchor_version)});
  }
  trainer_->train_clients(tasks, local_params_);

  double staleness_sum = 0.0;
  std::vector<fl::ClientReport> reports;
  reports.reserve(buffer_.size());
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    const AsyncPending& p = buffer_[i];
    const double staleness = static_cast<double>(round - p.anchor_version);
    staleness_sum += staleness;
    const double discount =
        std::pow(1.0 + staleness, -cfg_.staleness_exponent);
    reports.push_back(fl::ClientReport{
        p.client_id,
        std::span<const float>(
            local_params_.data() +
                static_cast<std::ptrdiff_t>(i * n_params),
            n_params),
        std::span<const float>(anchors_.at(p.anchor_version)), discount});
  }
  trainer_->apply_reports(reports);

  RoundRecord record;
  record.round = round;
  record.completed_at = clock_.now();
  for (const AsyncPending& p : buffer_) {
    record.participants.push_back(p.client_id);
  }
  record.dropped = std::move(async_dropped_);
  async_dropped_.clear();
  record.mean_staleness =
      buffer_.empty() ? 0.0
                      : staleness_sum / static_cast<double>(buffer_.size());
  history_.push_back(std::move(record));

  buffer_.clear();
  prune_anchors();
}

void RoundScheduler::run_async_until_aggregation() {
  const std::size_t before = trainer_->rounds_done();
  while (trainer_->rounds_done() == before) {
    dispatch_async_clients();
    FEDTUNE_CHECK_MSG(clock_.step(),
                      "async scheduler stalled with no pending events");
  }
}

// ---------------------------------------------------------- checkpoints ----

SchedulerCheckpoint RoundScheduler::checkpoint() const {
  SchedulerCheckpoint ckpt;
  ckpt.policy = cfg_.policy;
  ckpt.sim_time = clock_.now();
  ckpt.dispatch_count = dispatch_count_;
  const auto to_pending = [](const AsyncPending& p) {
    return SchedulerCheckpoint::PendingClient{p.client_id, p.dispatch,
                                              p.anchor_version,
                                              p.finish_time, p.dropped};
  };
  for (const AsyncPending& p : inflight_) {
    ckpt.inflight.push_back(to_pending(p));
  }
  for (const AsyncPending& p : buffer_) {
    ckpt.buffered.push_back(to_pending(p));
  }
  ckpt.anchors = anchors_;
  return ckpt;
}

void RoundScheduler::restore(const SchedulerCheckpoint& ckpt) {
  FEDTUNE_CHECK_MSG(ckpt.policy == cfg_.policy,
                    "checkpoint taken under policy '"
                        << policy_name(ckpt.policy)
                        << "' restored into a '" << policy_name(cfg_.policy)
                        << "' scheduler");
  clock_.reset(ckpt.sim_time);
  dispatch_count_ = ckpt.dispatch_count;
  anchors_ = ckpt.anchors;
  async_dropped_.clear();
  inflight_.clear();
  buffer_.clear();
  // Records accumulated on this object belong to the timeline being
  // abandoned; post-restore history starts at the checkpointed round.
  history_.clear();
  const auto from_pending = [](const SchedulerCheckpoint::PendingClient& p) {
    return AsyncPending{p.client_id, p.dispatch, p.anchor_version,
                        p.finish_time, p.dropped};
  };
  for (const auto& p : ckpt.buffered) buffer_.push_back(from_pending(p));
  // Re-schedule finish events in dispatch order: original events were
  // scheduled in dispatch order too, so equal-time ties replay with the
  // same relative sequence numbers.
  std::vector<AsyncPending> inflight;
  for (const auto& p : ckpt.inflight) inflight.push_back(from_pending(p));
  std::sort(inflight.begin(), inflight.end(),
            [](const AsyncPending& a, const AsyncPending& b) {
              return a.dispatch < b.dispatch;
            });
  for (const AsyncPending& p : inflight) {
    inflight_.push_back(p);
    const std::uint64_t dispatch = p.dispatch;
    clock_.schedule(p.finish_time,
                    [this, dispatch] { on_async_finish(dispatch); });
  }
}

}  // namespace fedtune::runtime

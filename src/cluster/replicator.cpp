#include "cluster/replicator.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>

#include "cluster/replica_store.hpp"
#include "obs/metrics.hpp"

namespace fedtune::cluster {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// "ok acked=N" / "ok offset=N" → N; nullopt on anything else (including a
// peer that answers with a well-formed but differently-shaped ok line).
std::optional<std::uint64_t> parse_u64_field(std::string_view response,
                                             std::string_view key) {
  const std::string prefix = "ok " + std::string(key) + "=";
  if (response.substr(0, prefix.size()) != prefix) return std::nullopt;
  std::string_view digits = response.substr(prefix.size());
  if (digits.empty() || digits.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

JournalReplicator::JournalReplicator(Roster roster, ReplicatorOptions opts)
    : placement_(std::move(roster), opts.vnodes_per_member),
      opts_(std::move(opts)) {
  if (opts_.self_id.empty()) {
    throw std::invalid_argument("JournalReplicator: self_id is required");
  }
  if (placement_.roster().find(opts_.self_id) == nullptr) {
    throw std::invalid_argument("JournalReplicator: self id '" +
                                opts_.self_id + "' is not in the roster");
  }
  auto& reg = obs::MetricsRegistry::global();
  lag_frames_ = &reg.histogram("fedtune_repl_lag_frames");
  queue_frames_ = &reg.gauge("fedtune_repl_queue_frames");
  batches_total_ = &reg.counter("fedtune_repl_batches_total");
  frames_total_ = &reg.counter("fedtune_repl_frames_total");
  bytes_total_ = &reg.counter("fedtune_repl_bytes_total");
  snapshots_total_ = &reg.counter("fedtune_repl_snapshots_sent_total");
  reconnects_total_ = &reg.counter("fedtune_repl_reconnects_total");
  drops_total_ = &reg.counter("fedtune_repl_dropped_queues_total");
  worker_ = std::thread([this] { worker(); });
}

JournalReplicator::~JournalReplicator() { stop(); }

void JournalReplicator::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  drain_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, peer] : peers_) disconnect(peer);
}

void JournalReplicator::on_mutation(const std::string& study,
                                    const service::JournalMutation& m) {
  const auto target = placement_.replica_target(study, opts_.self_id);
  if (!target.has_value()) return;  // single-member roster: nobody to ship to
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    const auto [it, fresh] = peers_.try_emplace(target->id);
    Peer& peer = it->second;
    // Set once: the worker reads `member` while connecting, without mu_.
    if (fresh) peer.member = *target;
    StudyQueue& q = peer.queues[study];
    if (m.kind == service::JournalMutation::Kind::kRewrite) {
      // The whole file changed (initial sync, compaction): everything queued
      // before it is obsolete.
      q.items.clear();
      ++q.generation;
      q.items.push_back(Item{true, 0, m.bytes});
    } else {
      q.items.push_back(Item{false, m.offset, m.bytes});
    }
    update_queue_gauge_locked();
  }
  work_cv_.notify_one();
}

bool JournalReplicator::flush(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.notify_all();
  return drain_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_s), [this] {
        if (stop_) return true;
        for (const auto& [id, peer] : peers_) {
          for (const auto& [study, q] : peer.queues) {
            if (!q.items.empty()) return false;
          }
        }
        return true;
      });
}

std::size_t JournalReplicator::pending_frames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, peer] : peers_) {
    for (const auto& [study, q] : peer.queues) n += q.items.size();
  }
  return n;
}

void JournalReplicator::update_queue_gauge_locked() {
  std::size_t n = 0;
  for (const auto& [id, peer] : peers_) {
    for (const auto& [study, q] : peer.queues) n += q.items.size();
  }
  queue_frames_->set(static_cast<double>(n));
}

void JournalReplicator::worker() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Find the earliest moment any peer with queued work may be serviced.
    const double now = now_seconds();
    double next = now + 0.5;
    bool ready = false;
    for (auto& [id, peer] : peers_) {
      bool has_work = false;
      for (const auto& [study, q] : peer.queues) {
        if (!q.items.empty()) {
          has_work = true;
          break;
        }
      }
      if (!has_work) continue;
      if (peer.next_attempt_s <= now) {
        ready = true;
      } else {
        next = std::min(next, peer.next_attempt_s);
      }
    }
    if (!ready) {
      drain_cv_.notify_all();
      work_cv_.wait_for(lock,
                        std::chrono::duration<double>(
                            std::max(0.001, next - now_seconds())));
      continue;
    }
    bool progressed = false;
    for (auto& [id, peer] : peers_) {
      if (stop_) break;
      if (peer.next_attempt_s > now_seconds()) continue;
      bool has_work = false;
      for (const auto& [study, q] : peer.queues) {
        if (!q.items.empty()) {
          has_work = true;
          break;
        }
      }
      if (!has_work) continue;
      progressed |= drain_peer(peer, lock);
    }
    update_queue_gauge_locked();
    if (!progressed) {
      // Every eligible peer failed this round; their backoffs are set, the
      // top of the loop recomputes the wait.
      continue;
    }
  }
  drain_cv_.notify_all();
}

bool JournalReplicator::ensure_connected(Peer& peer) {
  if (peer.client.connected()) return true;
  if (!peer.client.connect_tcp(peer.member.host, peer.member.port,
                               opts_.io_timeout_s)) {
    return false;
  }
  peer.acked.clear();  // follower offsets must be re-probed per connection
  reconnects_total_->add(1);
  peer.client.set_tenant(opts_.tenant);
  if (!opts_.token.empty()) {
    const auto ack = peer.client.hello(opts_.tenant, opts_.token);
    if (!ack.has_value() || ack->rfind("ok", 0) != 0) {
      disconnect(peer);
      return false;
    }
  }
  return true;
}

void JournalReplicator::disconnect(Peer& peer) {
  peer.client.close();
  peer.acked.clear();
}

void JournalReplicator::resync_study(Peer& peer, const std::string& study) {
  StudyQueue& q = peer.queues[study];
  q.items.clear();
  ++q.generation;
  std::string bytes;
  try {
    if (opts_.read_journal) bytes = opts_.read_journal(study);
  } catch (...) {
    bytes.clear();
  }
  if (bytes.empty()) {
    // Journal unreadable right now (mid-compaction, study deleted). Drop the
    // queue; the study's next mutation is a rewrite or a mismatching append
    // that triggers another resync.
    drops_total_->add(1);
    return;
  }
  q.items.push_back(Item{true, 0, std::move(bytes)});
}

void JournalReplicator::note_shipped(std::size_t frames, std::size_t bytes) {
  batches_total_->add(1);
  frames_total_->add(frames);
  bytes_total_->add(bytes);
}

bool JournalReplicator::drain_peer(Peer& peer,
                                   std::unique_lock<std::mutex>& lock) {
  const auto fail = [&] {
    disconnect(peer);
    peer.backoff_s = peer.backoff_s <= 0.0
                         ? opts_.backoff_base_s
                         : std::min(peer.backoff_s * 2.0, opts_.backoff_max_s);
    peer.next_attempt_s = now_seconds() + peer.backoff_s;
    return false;
  };

  if (!peer.client.connected()) {
    // Connect without holding up producers. The peer map is node-stable and
    // only this thread touches client/acked, so unlocking around the
    // blocking connect is safe.
    lock.unlock();
    const bool ok = ensure_connected(peer);
    lock.lock();
    if (!ok || stop_) return ok ? true : fail();
  }

  // Pick the first study with queued work.
  std::string study;
  for (auto& [name, q] : peer.queues) {
    if (!q.items.empty()) {
      study = name;
      break;
    }
  }
  if (study.empty()) return true;
  StudyQueue& q = peer.queues[study];
  const std::uint64_t gen = q.generation;

  // Total queue depth at ship time is the replication lag this batch
  // observed; the bench scrapes this histogram's p99.
  std::size_t pending = 0;
  for (const auto& [id2, p2] : peers_) {
    for (const auto& [s2, q2] : p2.queues) pending += q2.items.size();
  }
  lag_frames_->observe(static_cast<double>(pending));

  const bool rewrite = q.items.front().rewrite;
  std::string batch;
  std::uint64_t base = 0;
  std::size_t batched_items = 0;
  if (rewrite) {
    batch = q.items.front().bytes;
    batched_items = 1;
  } else {
    base = q.items.front().offset;
    // Probe the follower's offset once per connection before the first
    // append, so a restarted follower is detected before bytes fly.
    const auto known = peer.acked.find(study);
    if (known == peer.acked.end()) {
      lock.unlock();
      const auto resp = peer.client.request("repl-ack", study);
      lock.lock();
      if (stop_) return true;
      if (!resp.has_value()) return fail();
      const auto offset = parse_u64_field(*resp, "offset");
      if (!offset.has_value()) {
        // The peer is up but speaks no repl-ack (version skew): drop the
        // queue instead of spinning against it.
        peer.queues[study].items.clear();
        ++peer.queues[study].generation;
        drops_total_->add(1);
        return true;
      }
      peer.acked[study] = *offset;
      return true;  // re-enter drain with the offset known
    }
    if (known->second != base) {
      // The follower and our queue head disagree (it restarted, or frames
      // were dropped at stop()): replace the queue with a full snapshot.
      resync_study(peer, study);
      return true;
    }
    std::uint64_t expect = base;
    for (const Item& item : q.items) {
      if (item.rewrite || item.offset != expect ||
          (batched_items > 0 &&
           batch.size() + item.bytes.size() > opts_.max_batch_bytes)) {
        break;
      }
      batch += item.bytes;
      expect += item.bytes.size();
      ++batched_items;
    }
    if (batched_items == 0) {
      // Head item is non-contiguous with itself — impossible; defensive.
      resync_study(peer, study);
      return true;
    }
  }

  bool shipped = false;
  std::uint64_t acked_size = 0;
  bool mismatch = false;
  std::uint64_t mismatch_have = 0;
  lock.unlock();
  if (rewrite) {
    // Whole-file install, chunked so every frame stays under the payload
    // cap: the first chunk truncate-installs via repl-snapshot, the rest
    // append at running offsets.
    const std::size_t chunk = std::max<std::size_t>(1, opts_.max_batch_bytes);
    std::size_t off = 0;
    shipped = true;
    while (off < batch.size() || off == 0) {
      const std::size_t n = std::min(chunk, batch.size() - off);
      const std::string hex =
          hex_encode(std::string_view(batch).substr(off, n));
      const auto resp =
          off == 0
              ? peer.client.request("repl-snapshot", study + " " + hex)
              : peer.client.request(
                    "repl-append",
                    study + " " + std::to_string(off) + " " + hex);
      if (!resp.has_value() ||
          !parse_u64_field(*resp, "acked").has_value()) {
        shipped = false;
        break;
      }
      acked_size = *parse_u64_field(*resp, "acked");
      off += n;
      if (batch.empty()) break;  // zero-byte journal: one empty snapshot
    }
    if (shipped) snapshots_total_->add(1);
  } else {
    const auto resp = peer.client.request(
        "repl-append",
        study + " " + std::to_string(base) + " " + hex_encode(batch));
    if (resp.has_value()) {
      const auto acked = parse_u64_field(*resp, "acked");
      if (acked.has_value()) {
        shipped = true;
        acked_size = *acked;
      } else if (resp->rfind("err repl offset mismatch", 0) == 0) {
        const std::size_t have_at = resp->find("have=");
        mismatch = true;
        if (have_at != std::string::npos) {
          std::uint64_t h = 0;
          const char* p = resp->c_str() + have_at + 5;
          while (*p >= '0' && *p <= '9') {
            h = h * 10 + static_cast<std::uint64_t>(*p - '0');
            ++p;
          }
          mismatch_have = h;
        }
      }
    }
  }
  lock.lock();
  if (stop_) return true;

  StudyQueue& q2 = peer.queues[study];
  if (mismatch) {
    peer.acked[study] = mismatch_have;
    if (q2.generation == gen) resync_study(peer, study);
    return true;
  }
  if (!shipped) return fail();
  peer.backoff_s = 0.0;
  peer.next_attempt_s = 0.0;
  peer.acked[study] = acked_size;
  note_shipped(batched_items, batch.size());
  if (q2.generation == gen) {
    for (std::size_t i = 0; i < batched_items && !q2.items.empty(); ++i) {
      q2.items.pop_front();
    }
  }
  return true;
}

}  // namespace fedtune::cluster

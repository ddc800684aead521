// JournalReplicator — the primary half of journal replication: consumes
// the byte-level mutation stream every StudySession's journal emits
// (service/journal.hpp JournalSink) and ships it to each study's replica
// peer over the frame protocol, through one net::Client per peer.
//
// Placement decides the peer per study (placement.hpp): the follower when
// this instance is the study's primary, otherwise the primary — a study
// created on an off-placement instance still ends up with a second copy on
// its rightful owner. Mutations are enqueued per (peer, study) by the
// appending thread (non-blocking; replication never holds up a durable
// step) and a single background thread drains the queues:
//
//   - contiguous kAppend runs are coalesced into ONE repl-append frame of
//     up to max_batch_bytes — the follower acks the whole batch with its
//     new offset ("acks batched": one round trip per batch, not per frame);
//   - a kRewrite becomes a repl-snapshot (whole-file install), chunked as
//     snapshot + contiguous repl-appends when it exceeds the batch cap;
//   - on (re)connect the worker probes the follower with repl-ack and, on
//     any offset mismatch (the follower is behind by K frames, lost a
//     frame, or saw a reorder), falls back to a fresh snapshot read through
//     `read_journal`.
//
// Failure model: a dead or slow peer costs queue memory and lag, never
// study progress. Reconnects back off exponentially; every queue survives
// a reconnect. Lag is exported through the metrics registry:
// fedtune_repl_lag_frames (histogram — unacked frames observed at each
// batch ship; its p99 is the bench series) and fedtune_repl_queue_frames
// (gauge — current unacked depth).
#pragma once

#include <cstdint>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "cluster/placement.hpp"
#include "net/client.hpp"
#include "service/journal.hpp"

namespace fedtune::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace fedtune::obs

namespace fedtune::cluster {

struct ReplicatorOptions {
  std::string self_id;  // this instance's roster id (required)
  std::size_t vnodes_per_member = 64;
  // Raw journal bytes per repl-append/repl-snapshot frame (hex doubles this
  // on the wire; stays far below the server's 1 MiB payload cap).
  std::size_t max_batch_bytes = 128 * 1024;
  double io_timeout_s = 5.0;       // connect + per-request socket timeout
  double backoff_base_s = 0.05;    // reconnect backoff (doubles, capped)
  double backoff_max_s = 1.0;
  // Auth towards the peer (peers running --auth-file); empty token = no
  // hello.
  std::uint64_t tenant = 0;
  std::string token;
  // Whole-journal read for snapshot fallback after an offset mismatch;
  // bound by the daemon to Env::read_file(manager.journal_path(study)).
  // Empty string / throw = "journal unavailable right now" (the study's
  // queue is dropped until its next mutation re-syncs it).
  std::function<std::string(const std::string& study)> read_journal;
};

class JournalReplicator {
 public:
  JournalReplicator(Roster roster, ReplicatorOptions opts);
  ~JournalReplicator();
  JournalReplicator(const JournalReplicator&) = delete;
  JournalReplicator& operator=(const JournalReplicator&) = delete;

  // The JournalSink: thread-safe enqueue + worker wakeup. Never blocks on
  // the network and never throws.
  void on_mutation(const std::string& study,
                   const service::JournalMutation& m);

  // Blocks until every queued mutation is acked by its peer or `timeout_s`
  // elapses; false on timeout. (Tests and daemon shutdown.)
  bool flush(double timeout_s);

  // Unacked frames across all queues (the lag gauge's source).
  std::size_t pending_frames() const;

  const Placement& placement() const { return placement_; }
  const ReplicatorOptions& options() const { return opts_; }

  // Stops the worker thread; queued-but-unsent mutations are dropped (the
  // follower re-syncs from a snapshot on the next run). Idempotent.
  void stop();

 private:
  struct Item {
    bool rewrite = false;
    std::uint64_t offset = 0;  // appends only
    std::string bytes;
  };
  struct StudyQueue {
    std::deque<Item> items;
    // Bumped when the queue is replaced wholesale (rewrite); an in-flight
    // batch from an older generation must not pop the new queue.
    std::uint64_t generation = 0;
  };
  struct Peer {
    ClusterMember member;
    net::Client client;  // blocking link, io_timeout_s on every call
    std::map<std::string, StudyQueue> queues;
    // Follower-confirmed journal size per study (repl-ack probe / batch
    // acks); nullopt until probed on this connection.
    std::map<std::string, std::uint64_t> acked;
    double next_attempt_s = 0.0;
    double backoff_s = 0.0;
  };

  void worker();
  // One drain attempt for one peer; returns true if any progress was made.
  bool drain_peer(Peer& peer, std::unique_lock<std::mutex>& lock);
  bool ensure_connected(Peer& peer);
  void disconnect(Peer& peer);
  // Replaces a study's queue with a single rewrite item via read_journal.
  void resync_study(Peer& peer, const std::string& study);
  void note_shipped(std::size_t frames, std::size_t bytes);
  void update_queue_gauge_locked();

  Placement placement_;
  ReplicatorOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // producer -> worker
  std::condition_variable drain_cv_;  // worker -> flush()
  std::map<std::string, Peer> peers_;  // by member id
  bool stop_ = false;
  std::thread worker_;

  obs::Histogram* lag_frames_ = nullptr;    // fedtune_repl_lag_frames
  obs::Gauge* queue_frames_ = nullptr;      // fedtune_repl_queue_frames
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* frames_total_ = nullptr;
  obs::Counter* bytes_total_ = nullptr;
  obs::Counter* snapshots_total_ = nullptr;
  obs::Counter* reconnects_total_ = nullptr;
  obs::Counter* drops_total_ = nullptr;
};

}  // namespace fedtune::cluster

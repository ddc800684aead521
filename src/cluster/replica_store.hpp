// ReplicaStore — the follower half of journal replication: byte-exact
// copies of peer studies' journals, kept under `<journal_dir>/replica/`.
// StudyManager only looks at the top level, so neither startup nor an
// on-demand load resurrects a study this instance does not own; only a
// promotion moves a replica where they look.
//
// The store speaks offsets, not journal records: a replica is correct iff
// its bytes equal the primary journal's prefix [0, size). Appends carry the
// base offset they expect (`base` must equal the current replica size —
// strict contiguity), so a lost, duplicated, or reordered repl-append is
// rejected with the replica's actual size instead of silently corrupting
// the copy; the primary answers a mismatch by shipping a fresh snapshot.
// install() replaces the whole replica (snapshot catch-up, journal
// compaction on the primary); promote() renames the replica into the live
// journal directory, after which the normal recover/replay path takes over
// — CRC framing in the journal itself catches any torn tail.
//
// Thread safety: all operations lock one mutex. Appends arrive from the
// network handler on the event-loop thread while promote may be triggered
// from the same thread; the lock is cheap insurance, not a hot path.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hpp"

namespace fedtune::cluster {

// Journal bytes ride the wire hex-encoded in the repl-* verbs' argument
// tail: the service handler splits request lines on whitespace and the text
// shim is newline-framed, so raw journal bytes would be mangled. Lowercase
// hex, two chars per byte.
std::string hex_encode(std::string_view bytes);
// nullopt on odd length or non-hex characters.
std::optional<std::string> hex_decode(std::string_view hex);

class ReplicaStore {
 public:
  // Replicas live in `journal_dir`/replica (created on demand).
  explicit ReplicaStore(std::string journal_dir, Env* env = nullptr);

  // Current replica size in bytes; 0 when no replica exists.
  std::uint64_t size(const std::string& study) const;
  bool has(const std::string& study) const;

  // Appends `bytes` at `base`. Throws std::invalid_argument when `base`
  // does not equal the current replica size (loss/reorder/duplication —
  // the caller should answer with the actual size so the primary can
  // re-sync); IoError on I/O failure. Returns the new size. A replica must
  // exist (install() first) unless base == 0, which creates it.
  std::uint64_t append(const std::string& study, std::uint64_t base,
                       std::string_view bytes);

  // Atomically replaces the replica with `bytes` (tmp + rename). Returns
  // the new size.
  std::uint64_t install(const std::string& study, std::string_view bytes);

  // Moves the replica to `live_path` (the manager's journal path),
  // consuming it. When a live journal already exists there, the larger file
  // wins: the replica is the dead primary's history and overwrites a
  // shorter local copy; a local journal that is already ahead (this node
  // served the study after an earlier promotion) is kept and the stale
  // replica is discarded. Throws std::invalid_argument when no replica
  // exists.
  void promote(const std::string& study, const std::string& live_path);

  // Drops a replica if present (after promote elsewhere / study deletion).
  void remove(const std::string& study);

  // Studies with a replica on disk, sorted.
  std::vector<std::string> list() const;

  std::string replica_path(const std::string& study) const;

 private:
  std::string dir_;  // <journal_dir>/replica
  Env* env_;
  mutable std::mutex mu_;
};

}  // namespace fedtune::cluster

// The evaluation cache: the (config, fidelity, noise-signature) → outcome
// store that core::TuningSession consults (set_eval_cache), plus EvalCache,
// its persistent, shared implementation.
//
// One cache file per pool, owned by the StudyManager and shared by every
// tenant tuning that pool: N studies sweeping overlapping config sets pay
// for each distinct evaluation once. Built on the Env abstraction so the
// fault-injection suite can crash/fail every write boundary.
//
// File format (same framing discipline as service/journal.hpp):
//   u64 magic (kEvalCacheMagic)
//   frame*: u32 payload_size | u32 crc32(payload) | payload
//   payload: u8 type(kEntry) | string fingerprint | u64 fidelity |
//            u64 noise_signature | f64 noisy_objective | f64 full_error
// Each entry is one contiguous append. open() scans frame-by-frame,
// truncates a torn/corrupt tail, and keeps first-write-wins for duplicate
// keys (concurrent tenants may both evaluate a config before either insert
// lands; the first recorded outcome is the canonical one).
//
// Durability is BEST-EFFORT by design: insert() always updates the
// in-memory map (the logical store the session consults) and treats a
// failed disk append as degradation, not an error — a cache must never
// quarantine a study. Crash-consistency of studies does not depend on this
// file at all (see the contract note in hpo/tuner.hpp: hits are journaled
// as tells and replay re-inserts journaled outcomes), so a lost tail only
// costs future hits, never correctness.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "hpo/search_space.hpp"

namespace fedtune::obs {
class Counter;
class Gauge;
}

namespace fedtune::core {

// Canonical config fingerprint: "name=value;" pairs in Config's (ordered
// map) key order, values formatted with %.17g so every double round-trips
// bitwise. Two configs share a fingerprint iff they are bitwise-identical
// parameter maps.
std::string config_fingerprint(const hpo::Config& config);

// One cached evaluation outcome: the noisy objective served to the tuner
// and the ground-truth full error recorded alongside it.
struct EvalOutcome {
  double noisy_objective = 1.0;
  double full_error = 1.0;
};

// Cache key: (config fingerprint, fidelity, noise signature). An entry is
// only served at its exact fidelity (target_rounds) — a checkpoint-9 error
// says nothing about checkpoint-27 — and only within its noise namespace
// (core::noise_signature hashes every noise-model knob the stored value
// depends on, so e.g. an epsilon=1 study never consumes an epsilon=inf
// entry).
struct EvalKey {
  std::string fingerprint;
  std::uint64_t fidelity = 0;
  std::uint64_t noise_signature = 0;

  friend bool operator<(const EvalKey& a, const EvalKey& b) {
    if (a.fingerprint != b.fingerprint) return a.fingerprint < b.fingerprint;
    if (a.fidelity != b.fidelity) return a.fidelity < b.fidelity;
    return a.noise_signature < b.noise_signature;
  }
  friend bool operator==(const EvalKey& a, const EvalKey& b) {
    return a.fingerprint == b.fingerprint && a.fidelity == b.fidelity &&
           a.noise_signature == b.noise_signature;
  }
};

// The store TuningSession consults. Implementations: MemoryEvalStore and
// the persistent EvalCache (below). Thread-safe.
class EvalStore {
 public:
  virtual ~EvalStore() = default;
  virtual std::optional<EvalOutcome> lookup(const EvalKey& key) = 0;
  // First write wins: returns false (and keeps the existing entry) when the
  // key is already present — concurrent tenants race to insert, and the
  // stable outcome must not depend on arrival order after the first.
  virtual bool insert(const EvalKey& key, const EvalOutcome& outcome) = 0;
  virtual std::size_t entries() const = 0;
};

// In-memory EvalStore for tests and benches.
class MemoryEvalStore : public EvalStore {
 public:
  std::optional<EvalOutcome> lookup(const EvalKey& key) override;
  bool insert(const EvalKey& key, const EvalOutcome& outcome) override;
  std::size_t entries() const override;
  std::vector<std::pair<EvalKey, EvalOutcome>> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<EvalKey, EvalOutcome> map_;
};

class EvalCache : public EvalStore {
 public:
  // Opens (scanning + healing an existing file) or creates the cache at
  // `path`. Throws IoError when the file cannot be created/read at all.
  // (Pointer return: the internal mutex makes the class immovable.)
  static std::unique_ptr<EvalCache> open(const std::string& path,
                                         Env* env = nullptr,
                                         bool sync_on_commit = false);

  std::optional<EvalOutcome> lookup(const EvalKey& key) override;
  bool insert(const EvalKey& key, const EvalOutcome& outcome) override;
  std::size_t entries() const override;

  // Pool-wide counters across every tenant sharing this cache.
  std::size_t hits() const;
  std::size_t misses() const;
  // True once a disk append failed (entries since then may be memory-only).
  bool degraded() const;

  // Atomically rewrites the file from the in-memory map (tmp + rename),
  // dropping duplicate/torn history and clearing the degraded flag.
  void compact();

  const std::string& path() const { return path_; }

 private:
  EvalCache(Env& env, std::string path, std::unique_ptr<WritableFile> file,
            std::uint64_t durable, bool sync_on_commit);

  // Serializes and appends one entry; absorbs IoError into degraded_.
  void append_entry(const EvalKey& key, const EvalOutcome& outcome);
  void heal_to_durable();

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t durable_ = 0;  // last byte offset known to be a frame boundary
  bool sync_on_commit_ = false;
  bool degraded_ = false;
  bool broken_ = false;  // heal failed; stop touching the file until compact()

  mutable std::mutex mu_;
  std::map<EvalKey, EvalOutcome> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;

  // fedtune_evalcache_*{cache=<file stem>} registry series, resolved once
  // at open() — one cache per pool keeps the label set bounded.
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* inserts_counter_ = nullptr;
  obs::Counter* compactions_counter_ = nullptr;
  obs::Gauge* entries_gauge_ = nullptr;
};

}  // namespace fedtune::core

// StudyJournal — the per-study write-ahead log that makes service studies
// crash-recoverable.
//
// Tuners, the noisy evaluator (in pure-stream mode), and pool runners are
// pure functions of (spec seed, tell sequence) — see the replay contract in
// hpo/tuner.hpp and core/tuning_driver.hpp. The journal therefore persists
// exactly that: the study spec (create record) and every completed step's
// outcome (ask + tell records). Recovery reconstructs the study by
// re-running the tuner against the journaled tells; the result is bitwise
// identical to a run that never stopped.
//
// File layout (little-endian, common/serialize.hpp):
//
//   u64 kJournalMagic                      — versioned; unknown magic rejected
//   record*                                — CRC-framed, appended + flushed
//
//   record  := u32 payload_size, u32 crc32(payload), payload
//   payload := u8 type, fields...          (BufferWriter layout)
//
// Record types:
//   create    — the StudySpec; must be the journal's first record
//   ask       — the trial issued for the next step (crash between ask and
//               tell leaves a dangling ask; recovery discards it and the
//               resumed tuner deterministically re-issues the same trial)
//   tell      — the step's outcome (trial id, noisy objective, full error,
//               cumulative rounds); completes the preceding ask
//   selection — the tuner's final pick; marks the study finished
//   snapshot  — all completed TrialRecords in one compact record; written
//               by compact(), replaces the ask/tell prefix
//
// I/O goes through Env (common/env.hpp): write failures surface as IoError
// (transient vs persistent — the study layer's retry/quarantine ladder keys
// off the kind), and tests route journals through a FaultInjectingEnv to
// exercise every failure mode deterministically.
//
// Durability: every append pushes a whole frame to the OS in one Env append
// before the service acknowledges the step — durable across PROCESS crashes
// (SIGKILL, OOM-kill, aborts), the contract the tests and CI enforce.
// Machine-level crashes (power loss) can still lose page-cache tails unless
// sync_on_commit is set, which fsyncs after every frame (orders of magnitude
// slower). Either way, recovery's tail-truncation handles whatever the
// filesystem preserved.
// On recovery, the first unreadable frame — short header, short payload,
// CRC mismatch, malformed or over-long payload — ends the valid prefix;
// the file is truncated there (torn tails heal) and everything before it
// is replayed. A journal whose create record is unreadable is rejected.
//
// Failed appends heal in place: the journal tracks the durable byte boundary
// (end of the last acknowledged frame) and, when an append or sync throws,
// truncates the file back to it before rethrowing — a torn partial frame
// never survives into the next attempt, so retrying the append after a
// transient error is safe. If the heal itself fails the journal marks itself
// broken (good() == false) and every later append throws a persistent
// IoError; the on-disk prefix stays recoverable.
//
// Compaction: compact() atomically rewrites the journal as
// {create, snapshot[, selection]} — bounded file size and recovery work for
// arbitrarily long studies. The whole sequence (recover, tmp write, rename)
// is idempotent: it can crash or fail at any point and simply be re-run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/tuning_driver.hpp"
#include "service/study_spec.hpp"

namespace fedtune::service {

// One byte-level journal change, for replication (cluster/replicator.hpp):
// kAppend carries one durable frame and the file offset it starts at;
// kRewrite carries the whole file (emitted after create, resume, and
// compaction — any point where the file is not a pure extension of what a
// follower may hold). A follower that applies the stream at matching
// offsets holds a byte-identical copy of the journal.
struct JournalMutation {
  enum class Kind : std::uint8_t { kAppend, kRewrite };
  Kind kind = Kind::kAppend;
  std::uint64_t offset = 0;  // kAppend: where `bytes` begins in the file
  std::string bytes;         // kAppend: one frame; kRewrite: the whole file
};

// Mutation consumer. Invoked synchronously after the bytes are durable, on
// whatever thread performed the append (the scheduler pumps sessions on a
// thread pool, so sinks must be thread-safe). Sinks must not throw: a
// replication hiccup must never fail a locally-durable step.
using JournalSink = std::function<void(const JournalMutation&)>;

// recover()'s reconstruction of a journal: the spec, the completed steps in
// order, and the terminal selection if the study finished.
struct RecoveredStudy {
  StudySpec spec;
  std::vector<core::TrialRecord> steps;
  bool finished = false;
  std::int64_t best_id = -1;
  double best_full_error = 1.0;
  // Bytes dropped from the tail (0 for a clean shutdown) — torn frames,
  // trailing garbage, or a dangling ask's frame.
  std::uint64_t truncated_bytes = 0;
};

class StudyJournal {
 public:
  StudyJournal(StudyJournal&&) = default;
  StudyJournal& operator=(StudyJournal&&) = default;

  // Starts a new journal (header + create record). Fails if `path` exists —
  // study names are unique per journal directory. A create that fails
  // partway removes the partial file before rethrowing, so the name is not
  // left claimed by an unrecoverable stub.
  static StudyJournal create(const std::string& path, const StudySpec& spec,
                             Env* env = nullptr, bool sync_on_commit = false);

  // Validates the journal frame by frame, truncates the torn/corrupt tail
  // (if any), and returns the reconstructed history. Throws
  // std::invalid_argument when the file is missing or its create record is
  // unreadable.
  static RecoveredStudy recover(const std::string& path, Env* env = nullptr);

  // Opens an existing journal for appending (call after recover()).
  static StudyJournal append_to(const std::string& path, Env* env = nullptr,
                                bool sync_on_commit = false);

  // Atomically rewrites the journal as {create, snapshot[, selection]}:
  // writes `path`.tmp, then renames over `path`. The journal must not be
  // open for appending. Safe to re-run after any partial failure.
  static void compact(const std::string& path, Env* env = nullptr,
                      bool sync_on_commit = false);

  static bool exists(const std::string& path, Env* env = nullptr);

  // Appends one record as a single frame-sized Env append (plus an fsync
  // when sync_on_commit). Throws IoError on failure after healing the file
  // back to the durable boundary.
  void append_ask(const hpo::Trial& trial);
  void append_tell(const core::TrialRecord& record);
  void append_selection(std::int64_t best_id, double best_full_error);
  void append_snapshot(std::span<const core::TrialRecord> steps);

  // Installs the replication sink; pass {} to detach. The sink sees every
  // subsequent durable frame as a kAppend at its offset. It does NOT see
  // bytes already on disk — callers that attach mid-life (create, resume,
  // reopen after compact) emit a kRewrite of the current file themselves
  // (StudySession::wire_journal_sink).
  void set_sink(JournalSink sink) { sink_ = std::move(sink); }

  // False once a failed append could not be healed; appends then throw.
  bool good() const { return !broken_ && file_ != nullptr; }

  // End of the last acknowledged frame — the recovery point.
  std::uint64_t durable_bytes() const { return durable_; }

 private:
  StudyJournal(Env& env, std::string path, std::unique_ptr<WritableFile> file,
               std::uint64_t durable, bool sync_on_commit)
      : env_(&env), path_(std::move(path)), file_(std::move(file)),
        durable_(durable), sync_on_commit_(sync_on_commit) {}

  void append_frame(const std::string& payload);
  // Close + truncate to durable_ + reopen; marks broken_ if that fails.
  void heal_to_durable();

  Env* env_;
  std::string path_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t durable_ = 0;
  bool sync_on_commit_ = false;
  bool broken_ = false;
  JournalSink sink_;
};

}  // namespace fedtune::service

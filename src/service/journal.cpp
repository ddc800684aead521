#include "service/journal.hpp"

#include <chrono>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtune::service {

namespace {

// Journal metrics are service-wide (no per-study label): the journal layer
// sees paths, not tenant identities, and per-path labels would make series
// cardinality track journal-directory history. Per-tenant latency lives one
// layer up in fedtune_study_ask_tell_seconds (src/README.md §Observability).
obs::Histogram& append_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_journal_append_seconds");
  return h;
}
obs::Histogram& fsync_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_journal_fsync_seconds");
  return h;
}
obs::Counter& append_bytes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "fedtune_journal_append_bytes_total");
  return c;
}
obs::Counter& append_failures_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "fedtune_journal_append_failures_total");
  return c;
}
obs::Histogram& recover_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_journal_recover_seconds");
  return h;
}
obs::Counter& recover_truncated_bytes_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "fedtune_journal_recover_truncated_bytes_total");
  return c;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// v3 of the journal format (v2 appended the eval-cache/limit spec fields;
// v3 dropped the snapshot record). Bump the low word on any layout change —
// recovery rejects unknown magic rather than misreading stale journals. A
// v2 journal holding a snapshot frame would otherwise be truncated at it
// (an unknown record type is a corruption boundary).
constexpr std::uint64_t kJournalMagic = 0xfed75d0a00000003ULL;

enum RecordType : std::uint8_t {
  kCreate = 1,
  kAsk = 2,
  kTell = 3,
  kSelection = 4,
};

// Frames larger than this are treated as corruption (a torn length word
// would otherwise ask recovery to trust a multi-gigabyte "payload").
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

void write_config(BufferWriter& w, const hpo::Config& config) {
  w.write_u64(config.size());
  for (const auto& [name, value] : config) {
    w.write_string(name);
    w.write_f64(value);
  }
}

hpo::Config read_config(BufferReader& r) {
  hpo::Config config;
  const std::uint64_t n = r.read_u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = r.read_string();
    config[name] = r.read_f64();
  }
  return config;
}

void write_trial(BufferWriter& w, const hpo::Trial& t) {
  w.write_i64(t.id);
  w.write_u64(t.target_rounds);
  w.write_i64(t.parent_id);
  w.write_u64(t.config_index);
  write_config(w, t.config);
}

hpo::Trial read_trial(BufferReader& r) {
  hpo::Trial t;
  t.id = static_cast<int>(r.read_i64());
  t.target_rounds = r.read_u64();
  t.parent_id = static_cast<int>(r.read_i64());
  t.config_index = r.read_u64();
  t.config = read_config(r);
  return t;
}

void write_record(BufferWriter& w, const core::TrialRecord& rec) {
  write_trial(w, rec.trial);
  w.write_f64(rec.noisy_objective);
  w.write_f64(rec.full_error);
  w.write_u64(rec.cumulative_rounds);
}

core::TrialRecord read_record(BufferReader& r) {
  core::TrialRecord rec;
  rec.trial = read_trial(r);
  rec.noisy_objective = r.read_f64();
  rec.full_error = r.read_f64();
  rec.cumulative_rounds = r.read_u64();
  return rec;
}

void write_spec(BufferWriter& w, const StudySpec& spec) {
  w.write_string(spec.name);
  w.write_u8(static_cast<std::uint8_t>(spec.method));
  w.write_u64(spec.seed);
  w.write_u64(spec.num_configs);
  w.write_u64(spec.budget_rounds);
  w.write_u64(spec.deadline_slices);
  w.write_u8(spec.external ? 1 : 0);
  w.write_string(spec.pool);
  w.write_u64(spec.rounds_per_config);
  w.write_u64(spec.r0);
  w.write_u64(spec.max_rounds);
  w.write_u64(spec.noise.eval_clients);
  w.write_f64(spec.noise.bias_b);
  w.write_f64(spec.noise.bias_delta);
  w.write_f64(spec.noise.epsilon);
  w.write_f64(spec.noise.eval_dropout);
  w.write_u8(static_cast<std::uint8_t>(spec.noise.weighting));
  w.write_u8(spec.use_eval_cache ? 1 : 0);
  w.write_u8(spec.warm_start ? 1 : 0);
  w.write_u64(spec.max_trials);
}

StudySpec read_spec(BufferReader& r) {
  StudySpec spec;
  spec.name = r.read_string();
  spec.method = static_cast<StudyMethod>(r.read_u8());
  spec.seed = r.read_u64();
  spec.num_configs = r.read_u64();
  spec.budget_rounds = r.read_u64();
  spec.deadline_slices = r.read_u64();
  spec.external = r.read_u8() != 0;
  spec.pool = r.read_string();
  spec.rounds_per_config = r.read_u64();
  spec.r0 = r.read_u64();
  spec.max_rounds = r.read_u64();
  spec.noise.eval_clients = r.read_u64();
  spec.noise.bias_b = r.read_f64();
  spec.noise.bias_delta = r.read_f64();
  spec.noise.epsilon = r.read_f64();
  spec.noise.eval_dropout = r.read_f64();
  spec.noise.weighting = static_cast<fl::Weighting>(r.read_u8());
  spec.use_eval_cache = r.read_u8() != 0;
  spec.warm_start = r.read_u8() != 0;
  spec.max_trials = r.read_u64();
  return spec;
}

}  // namespace

bool StudyJournal::exists(const std::string& path, Env* env) {
  return env_or_real(env).exists(path);
}

StudyJournal StudyJournal::create(const std::string& path,
                                  const StudySpec& spec, Env* env,
                                  bool sync_on_commit) {
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(!e.exists(path), "journal already exists: " << path);
  try {
    StudyJournal journal(e, path, e.open_writable(path, Env::WriteMode::kTruncate),
                         /*durable=*/0, sync_on_commit);
    const std::uint64_t magic = kJournalMagic;
    journal.file_->append(
        std::string_view(reinterpret_cast<const char*>(&magic), sizeof(magic)));
    journal.durable_ = sizeof(magic);
    BufferWriter payload;
    payload.write_u8(kCreate);
    write_spec(payload, spec);
    journal.append_frame(payload.bytes());
    return journal;
  } catch (const IoError&) {
    // A failed create must not leave a stub claiming the study name: the
    // spec was never acknowledged, so there is nothing worth recovering.
    try {
      e.remove_file(path);
    } catch (const IoError&) {
    }
    throw;
  }
}

StudyJournal StudyJournal::append_to(const std::string& path,
                                     std::uint64_t durable_bytes, Env* env,
                                     bool sync_on_commit) {
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(e.exists(path), "no journal at " << path);
  return StudyJournal(e, path, e.open_writable(path, Env::WriteMode::kAppend),
                      durable_bytes, sync_on_commit);
}

void StudyJournal::append_frame(const std::string& payload) {
  FEDTUNE_CHECK(payload.size() <= kMaxPayloadBytes);
  if (broken_ || file_ == nullptr) {
    throw IoError(IoErrorKind::kPersistent, "append", path_,
                  "journal is broken (an earlier failure could not be healed)");
  }
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  // One contiguous append per frame: the OS sees frame-at-a-time writes, so
  // only injected faults (or a mid-write crash) can tear a frame.
  std::string frame;
  frame.reserve(2 * sizeof(std::uint32_t) + payload.size());
  frame.append(reinterpret_cast<const char*>(&size), sizeof(size));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload);
  try {
    obs::TraceSpan span("journal.append", "journal");
    const auto t0 = std::chrono::steady_clock::now();
    file_->append(frame);
    append_seconds().observe(seconds_since(t0));
    if (sync_on_commit_) {
      const auto s0 = std::chrono::steady_clock::now();
      file_->sync();
      fsync_seconds().observe(seconds_since(s0));
    }
    append_bytes_total().add(frame.size());
  } catch (const IoError&) {
    append_failures_total().add(1);
    heal_to_durable();
    throw;
  }
  const std::uint64_t offset = durable_;
  durable_ += frame.size();
  if (sink_) {
    JournalMutation m;
    m.kind = JournalMutation::Kind::kAppend;
    m.offset = offset;
    m.bytes = std::move(frame);
    sink_(m);
  }
}

void StudyJournal::heal_to_durable() {
  try {
    if (file_ != nullptr) {
      try {
        file_->close();
      } catch (const IoError&) {  // close error does not block the truncate
      }
      file_.reset();
    }
    env_->truncate_file(path_, durable_);
    file_ = env_->open_writable(path_, Env::WriteMode::kAppend);
  } catch (const IoError&) {
    // Could not restore a clean frame boundary; refuse further appends. The
    // on-disk prefix is still recoverable — recover() truncates the tail.
    broken_ = true;
  }
}

void StudyJournal::append_ask(const hpo::Trial& trial) {
  BufferWriter payload;
  payload.write_u8(kAsk);
  write_trial(payload, trial);
  append_frame(payload.bytes());
}

void StudyJournal::append_tell(const core::TrialRecord& record) {
  BufferWriter payload;
  payload.write_u8(kTell);
  write_record(payload, record);
  append_frame(payload.bytes());
}

void StudyJournal::append_selection(std::int64_t best_id,
                                    double best_full_error) {
  BufferWriter payload;
  payload.write_u8(kSelection);
  payload.write_i64(best_id);
  payload.write_f64(best_full_error);
  append_frame(payload.bytes());
}

RecoveredStudy StudyJournal::recover(const std::string& path, Env* env) {
  obs::TraceSpan span("journal.recover", "journal");
  const auto t0 = std::chrono::steady_clock::now();
  Env& e = env_or_real(env);
  FEDTUNE_CHECK_MSG(e.exists(path), "no journal at " << path);
  const std::string bytes = e.read_file(path);

  FEDTUNE_CHECK_MSG(bytes.size() >= sizeof(std::uint64_t),
                    "journal too short for header: " << path);
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  FEDTUNE_CHECK_MSG(magic == kJournalMagic,
                    "unknown journal magic in " << path);

  RecoveredStudy study;
  bool have_spec = false;
  std::optional<hpo::Trial> pending_ask;
  std::size_t pos = sizeof(magic);
  std::size_t valid_end = pos;

  while (pos + 2 * sizeof(std::uint32_t) <= bytes.size()) {
    std::uint32_t size = 0, crc = 0;
    std::memcpy(&size, bytes.data() + pos, sizeof(size));
    std::memcpy(&crc, bytes.data() + pos + sizeof(size), sizeof(crc));
    const std::size_t payload_pos = pos + 2 * sizeof(std::uint32_t);
    if (size > kMaxPayloadBytes) break;                 // torn length word
    if (payload_pos + size > bytes.size()) break;       // torn payload
    if (crc32(bytes.data() + payload_pos, size) != crc) break;  // bit rot

    // Each case reads its whole payload and validates full consumption
    // BEFORE mutating the study: a frame rejected halfway (trailing bytes
    // inside a CRC-clean frame = writer/reader version skew, treated like
    // any other corruption) must leave no partial state behind.
    BufferReader r(std::span<const char>(bytes.data() + payload_pos, size));
    try {
      const auto consumed = [&r] {
        if (!r.at_end()) throw std::invalid_argument("payload trailing bytes");
      };
      const std::uint8_t type = r.read_u8();
      switch (type) {
        case kCreate: {
          // Valid only as the first record.
          if (have_spec) throw std::invalid_argument("duplicate create");
          StudySpec spec = read_spec(r);
          consumed();
          study.spec = std::move(spec);
          have_spec = true;
          break;
        }
        case kAsk: {
          // A re-issued ask after a crash-mid-step may repeat the dangling
          // one; the latest ask is the live one.
          if (!have_spec) throw std::invalid_argument("ask before create");
          hpo::Trial trial = read_trial(r);
          consumed();
          pending_ask = std::move(trial);
          break;
        }
        case kTell: {
          if (!pending_ask.has_value()) {
            throw std::invalid_argument("tell without ask");
          }
          core::TrialRecord rec = read_record(r);
          consumed();
          if (rec.trial.id != pending_ask->id) {
            throw std::invalid_argument("tell does not match ask");
          }
          study.steps.push_back(std::move(rec));
          pending_ask.reset();
          break;
        }
        case kSelection: {
          if (!have_spec) throw std::invalid_argument("selection before create");
          const std::int64_t best_id = r.read_i64();
          const double best_full_error = r.read_f64();
          consumed();
          study.best_id = best_id;
          study.best_full_error = best_full_error;
          study.finished = true;
          break;
        }
        default:
          throw std::invalid_argument("unknown record type");
      }
    } catch (const std::exception&) {
      break;
    }
    pos = payload_pos + size;
    valid_end = pos;
  }

  FEDTUNE_CHECK_MSG(have_spec, "journal has no valid create record: " << path);

  // Truncate the torn/corrupt tail so the next append starts at a clean
  // frame boundary. A dangling ask stays in the file (it is a valid frame);
  // recovery simply ignores it and the resumed tuner re-issues the trial.
  study.truncated_bytes = bytes.size() - valid_end;
  study.durable_bytes = valid_end;
  if (study.truncated_bytes > 0) {
    e.truncate_file(path, valid_end);
    recover_truncated_bytes_total().add(study.truncated_bytes);
  }
  recover_seconds().observe(seconds_since(t0));
  return study;
}

}  // namespace fedtune::service

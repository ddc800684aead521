#include "core/eval_cache.hpp"

#include <cstdio>
#include <cstring>

#include "common/check.hpp"
#include "common/crc32.hpp"
#include "common/serialize.hpp"
#include "obs/metrics.hpp"

namespace fedtune::core {

namespace {

// Cache-wide counters, labeled by the cache file's stem (the pool name in
// the StudyManager layout <dir>/<pool>.evalcache) — one cache per pool, so
// the label set is bounded by the registered pools.
struct CacheMetrics {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* inserts;
  obs::Counter* compactions;
  obs::Gauge* entries;
};

CacheMetrics make_cache_metrics(const std::string& path) {
  std::string stem = path;
  if (const std::size_t slash = stem.find_last_of('/');
      slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const std::size_t dot = stem.find_last_of('.');
      dot != std::string::npos && dot > 0) {
    stem = stem.substr(0, dot);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::LabelSet labels = {{"cache", stem}};
  return {&reg.counter("fedtune_evalcache_hits_total", labels),
          &reg.counter("fedtune_evalcache_misses_total", labels),
          &reg.counter("fedtune_evalcache_inserts_total", labels),
          &reg.counter("fedtune_evalcache_compactions_total", labels),
          &reg.gauge("fedtune_evalcache_entries", labels)};
}

// v1 of the cache format. Bump the low word on any layout change — open()
// rejects unknown magic rather than misreading a stale cache.
constexpr std::uint64_t kEvalCacheMagic = 0xfedc0de500000001ULL;

constexpr std::uint8_t kEntry = 1;

// Same torn-length guard as the journal: a torn size word must not ask the
// scanner to trust a multi-gigabyte "payload".
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

std::string encode_entry(const EvalKey& key, const EvalOutcome& outcome) {
  BufferWriter payload;
  payload.write_u8(kEntry);
  payload.write_string(key.fingerprint);
  payload.write_u64(key.fidelity);
  payload.write_u64(key.noise_signature);
  payload.write_f64(outcome.noisy_objective);
  payload.write_f64(outcome.full_error);
  return payload.bytes();
}

std::string frame_of(const std::string& payload) {
  const auto size = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::string frame;
  frame.reserve(2 * sizeof(std::uint32_t) + payload.size());
  frame.append(reinterpret_cast<const char*>(&size), sizeof(size));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(payload);
  return frame;
}

}  // namespace

std::string config_fingerprint(const hpo::Config& config) {
  std::string out;
  out.reserve(config.size() * 24);
  char buf[32];
  for (const auto& [name, value] : config) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += name;
    out += '=';
    out += buf;
    out += ';';
  }
  return out;
}

// --- MemoryEvalStore --------------------------------------------------------

std::optional<EvalOutcome> MemoryEvalStore::lookup(const EvalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

bool MemoryEvalStore::insert(const EvalKey& key, const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.emplace(key, outcome).second;
}

std::size_t MemoryEvalStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::pair<EvalKey, EvalOutcome>> MemoryEvalStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {map_.begin(), map_.end()};
}

// --- EvalCache --------------------------------------------------------------

EvalCache::EvalCache(Env& env, std::string path,
                     std::unique_ptr<WritableFile> file, std::uint64_t durable,
                     bool sync_on_commit)
    : env_(&env),
      path_(std::move(path)),
      file_(std::move(file)),
      durable_(durable),
      sync_on_commit_(sync_on_commit) {
  const CacheMetrics m = make_cache_metrics(path_);
  hits_counter_ = m.hits;
  misses_counter_ = m.misses;
  inserts_counter_ = m.inserts;
  compactions_counter_ = m.compactions;
  entries_gauge_ = m.entries;
}

std::unique_ptr<EvalCache> EvalCache::open(const std::string& path, Env* env,
                                           bool sync_on_commit) {
  Env& e = env_or_real(env);
  if (!e.exists(path)) {
    auto file = e.open_writable(path, Env::WriteMode::kTruncate);
    const std::uint64_t magic = kEvalCacheMagic;
    file->append(
        std::string_view(reinterpret_cast<const char*>(&magic), sizeof(magic)));
    return std::unique_ptr<EvalCache>(
        new EvalCache(e, path, std::move(file), sizeof(magic), sync_on_commit));
  }

  const std::string bytes = e.read_file(path);
  FEDTUNE_CHECK_MSG(bytes.size() >= sizeof(std::uint64_t),
                    "eval cache too short for header: " << path);
  std::uint64_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  FEDTUNE_CHECK_MSG(magic == kEvalCacheMagic,
                    "unknown eval-cache magic in " << path);

  std::map<EvalKey, EvalOutcome> map;
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

    BufferReader r(std::span<const char>(bytes.data() + payload_pos, size));
    try {
      const std::uint8_t type = r.read_u8();
      if (type != kEntry) throw std::invalid_argument("unknown entry type");
      EvalKey key;
      key.fingerprint = r.read_string();
      key.fidelity = r.read_u64();
      key.noise_signature = r.read_u64();
      EvalOutcome outcome;
      outcome.noisy_objective = r.read_f64();
      outcome.full_error = r.read_f64();
      if (!r.at_end()) throw std::invalid_argument("payload trailing bytes");
      map.emplace(key, outcome);  // first write wins across duplicates
    } catch (const std::exception&) {
      break;
    }
    pos = payload_pos + size;
    valid_end = pos;
  }

  // Heal the torn/corrupt tail so the next append starts at a clean frame
  // boundary (a crash mid-append is the expected way to get here).
  if (valid_end < bytes.size()) e.truncate_file(path, valid_end);

  std::unique_ptr<EvalCache> cache(
      new EvalCache(e, path, e.open_writable(path, Env::WriteMode::kAppend),
                    valid_end, sync_on_commit));
  cache->map_ = std::move(map);
  return cache;
}

std::optional<EvalOutcome> EvalCache::lookup(const EvalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    misses_counter_->add(1);
    return std::nullopt;
  }
  ++hits_;
  hits_counter_->add(1);
  return it->second;
}

bool EvalCache::insert(const EvalKey& key, const EvalOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!map_.emplace(key, outcome).second) return false;
  inserts_counter_->add(1);
  entries_gauge_->set(static_cast<double>(map_.size()));
  // The in-memory map is the logical store; the append is best-effort
  // persistence (failures degrade, never refuse the insert).
  append_entry(key, outcome);
  return true;
}

void EvalCache::append_entry(const EvalKey& key, const EvalOutcome& outcome) {
  if (broken_ || file_ == nullptr) {
    degraded_ = true;
    return;
  }
  const std::string frame = frame_of(encode_entry(key, outcome));
  try {
    file_->append(frame);
    if (sync_on_commit_) file_->sync();
    durable_ += frame.size();
  } catch (const IoError&) {
    degraded_ = true;
    heal_to_durable();
  }
}

void EvalCache::heal_to_durable() {
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
    // No clean frame boundary restorable; stop touching the file. compact()
    // can rebuild it from the in-memory map later.
    broken_ = true;
  }
}

std::size_t EvalCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t EvalCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t EvalCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

bool EvalCache::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

void EvalCache::compact() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string tmp = path_ + ".tmp";
  env_->remove_file(tmp);
  {
    auto file = env_->open_writable(tmp, Env::WriteMode::kTruncate);
    const std::uint64_t magic = kEvalCacheMagic;
    std::string out(reinterpret_cast<const char*>(&magic), sizeof(magic));
    for (const auto& [key, outcome] : map_) {
      out += frame_of(encode_entry(key, outcome));
    }
    file->append(out);
    file->sync();
    file->close();
    durable_ = out.size();
  }
  if (file_ != nullptr) {
    try {
      file_->close();
    } catch (const IoError&) {
    }
    file_.reset();
  }
  env_->rename_file(tmp, path_);
  file_ = env_->open_writable(path_, Env::WriteMode::kAppend);
  degraded_ = false;
  broken_ = false;
  compactions_counter_->add(1);
}

}  // namespace fedtune::core

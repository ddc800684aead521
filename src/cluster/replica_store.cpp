#include "cluster/replica_store.hpp"

#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace fedtune::cluster {

namespace {

constexpr std::string_view kExt = ".journal";

obs::Counter& applies_total(const char* kind) {
  return obs::MetricsRegistry::global().counter("fedtune_repl_apply_total",
                                                {{"kind", kind}});
}

obs::Counter& rejects_total() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "fedtune_repl_offset_rejects_total");
  return c;
}

}  // namespace

ReplicaStore::ReplicaStore(std::string journal_dir, Env* env)
    : dir_(std::move(journal_dir) + "/replica"), env_(&env_or_real(env)) {
  env_->create_directories(dir_);
}

std::string ReplicaStore::replica_path(const std::string& study) const {
  return dir_ + "/" + study + std::string(kExt);
}

std::uint64_t ReplicaStore::size(const std::string& study) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = replica_path(study);
  return env_->exists(path) ? env_->file_size(path) : 0;
}

bool ReplicaStore::has(const std::string& study) const {
  std::lock_guard<std::mutex> lock(mu_);
  return env_->exists(replica_path(study));
}

std::uint64_t ReplicaStore::append(const std::string& study,
                                   std::uint64_t base,
                                   std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = replica_path(study);
  const std::uint64_t have =
      env_->exists(path) ? env_->file_size(path) : 0;
  if (base != have) {
    rejects_total().add(1);
    throw std::invalid_argument("repl offset mismatch have=" +
                                std::to_string(have) +
                                " want=" + std::to_string(base));
  }
  auto file = env_->open_writable(
      path, have == 0 ? Env::WriteMode::kTruncate : Env::WriteMode::kAppend);
  file->append(bytes);
  file->close();
  applies_total("append").add(1);
  return have + bytes.size();
}

std::uint64_t ReplicaStore::install(const std::string& study,
                                    std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = replica_path(study);
  const std::string tmp = path + ".tmp";
  try {
    env_->remove_file(tmp);
  } catch (const IoError&) {
  }
  auto file = env_->open_writable(tmp, Env::WriteMode::kTruncate);
  file->append(bytes);
  file->close();
  env_->rename_file(tmp, path);
  applies_total("snapshot").add(1);
  return bytes.size();
}

void ReplicaStore::promote(const std::string& study,
                           const std::string& live_path) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = replica_path(study);
  if (!env_->exists(path)) {
    throw std::invalid_argument("no replica for study '" + study + "'");
  }
  if (env_->exists(live_path) &&
      env_->file_size(live_path) >= env_->file_size(path)) {
    // The local journal is at least as long as the replica — this node
    // already owns equal-or-newer history (e.g. it promoted earlier and
    // kept serving). Keep it; the replica is stale.
    env_->remove_file(path);
    return;
  }
  env_->rename_file(path, live_path);
}

void ReplicaStore::remove(const std::string& study) {
  std::lock_guard<std::mutex> lock(mu_);
  try {
    env_->remove_file(replica_path(study));
  } catch (const IoError&) {
  }
}

std::vector<std::string> ReplicaStore::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const std::string& fname : env_->list_dir(dir_)) {
    if (fname.size() <= kExt.size() || !fname.ends_with(kExt)) continue;
    names.push_back(fname.substr(0, fname.size() - kExt.size()));
  }
  return names;
}

}  // namespace fedtune::cluster

// StudySpec — the durable definition of one tuning study served by the
// StudyService (see src/README.md §StudyService).
//
// A study is reconstructible from its spec alone: the spec seeds every RNG
// stream (tuner, driver/evaluator) through fixed salts
// (common/rng_salts.hpp), so a journal that stores the spec plus the tell
// sequence replays the study bitwise. Everything here is serialized into
// the journal's create record (service/journal.hpp) — add new fields only
// together with a journal-magic bump.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "core/noise_model.hpp"

namespace fedtune::service {

// The five tuning methods a study can run. RS/TPE/HB/BOHB construction is
// shared with the experiment harness (sim::make_pool_tuner); SHA is a
// standalone single bracket (sim::make_pool_sha_tuner).
enum class StudyMethod : std::uint8_t {
  kRandomSearch = 0,
  kTpe = 1,
  kSha = 2,
  kHyperband = 3,
  kBohb = 4,
};

inline const char* method_name(StudyMethod m) {
  switch (m) {
    case StudyMethod::kRandomSearch: return "rs";
    case StudyMethod::kTpe: return "tpe";
    case StudyMethod::kSha: return "sha";
    case StudyMethod::kHyperband: return "hb";
    case StudyMethod::kBohb: return "bohb";
  }
  return "?";
}

inline std::optional<StudyMethod> method_from_name(const std::string& name) {
  if (name == "rs") return StudyMethod::kRandomSearch;
  if (name == "tpe") return StudyMethod::kTpe;
  if (name == "sha") return StudyMethod::kSha;
  if (name == "hb") return StudyMethod::kHyperband;
  if (name == "bohb") return StudyMethod::kBohb;
  return std::nullopt;
}

struct StudySpec {
  // Tenant-visible study id; doubles as the journal file stem. Restricted
  // to [A-Za-z0-9_.-] so it is filesystem- and protocol-safe.
  std::string name;
  StudyMethod method = StudyMethod::kRandomSearch;
  std::uint64_t seed = 0;

  // K configurations for RS/TPE, the bracket's n0 for SHA; ignored by
  // HB/BOHB (their bracket sweep fixes the counts).
  std::size_t num_configs = 8;

  // Admission-controlled budget: the study stops issuing trials once its
  // consumed training rounds reach this cap.
  std::size_t budget_rounds = std::numeric_limits<std::size_t>::max();

  // Admission-controlled deadline: the scheduler suspends the study after
  // granting it this many fair-share slices (in-memory accounting — a
  // resumed study gets a fresh allowance).
  std::size_t deadline_slices = std::numeric_limits<std::size_t>::max();

  // Managed studies evaluate trials on a registered candidate pool; external
  // studies are driven through ask/tell by the tenant, who evaluates trials
  // out of process.
  bool external = false;
  std::string pool;  // registered pool name (managed studies)

  // External-mode fidelity grid (managed studies derive it from the pool's
  // checkpoint grid): RS/TPE train to rounds_per_config; SHA/HB/BOHB run
  // eta=3 rungs from r0 to max_rounds.
  std::size_t rounds_per_config = 81;
  std::size_t r0 = 1;
  std::size_t max_rounds = 81;

  // Evaluation-noise model for managed studies (§2.2 knobs).
  core::NoiseModel noise;

  // Evaluation-cache knobs (managed studies; see core/eval_cache.hpp).
  // use_eval_cache: consult/populate the pool's shared cache when the
  // manager has one configured. warm_start: share the cross-tenant
  // namespace — false scopes this study's entries to itself (its own
  // kill/resume still benefits, but it neither reads nor seeds other
  // tenants' outcomes). max_trials: cap on trials issued, passed to
  // core::DriverOptions::max_trials (SIZE_MAX = uncapped); under DP it also
  // caps the planned evaluation count M.
  bool use_eval_cache = true;
  bool warm_start = true;
  std::size_t max_trials = std::numeric_limits<std::size_t>::max();
};

// True iff the name is usable as a study id (non-empty, [A-Za-z0-9_.-]).
inline bool valid_study_name(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace fedtune::service

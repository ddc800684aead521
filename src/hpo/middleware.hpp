// Tuner middleware — cross-cutting tuning behavior as stackable wrappers.
//
// Every concern that used to be a candidate for per-method reimplementation
// (result caching, budget caps, post-hoc refinement) composes as a
// decorator around an inner Tuner instead: TunerMiddleware owns the inner
// tuner and forwards the whole Tuner surface by default, and each concrete
// wrapper overrides only the calls it mediates. Stacks nest arbitrarily,
// e.g. CachingTuner(LimitTuner(SuccessiveHalving)).
//
// Forwarding contract (the wrapper-forwarding hazards this header exists to
// fix): set_selector() must reach the INNERMOST tuner — a selector stored
// only on the wrapper would silently disable DP selection for the method
// underneath — and planned_evaluations() must forward unchanged through
// CachingTuner: a cached tell still counts as one of the M evaluations the
// per-evaluation Laplace budget epsilon/M was split over, so serving hits
// must not shrink M (that would loosen the privacy accounting).
//
// Replay interaction: see the contract note in hpo/tuner.hpp. Wrappers obey
// the same purity rule as tuners — their observable behavior is a function
// of construction arguments and the ask/tell sequence. CachingTuner in
// surface mode is deliberately transparent (the service journals cache hits
// as ordinary tells and consults the store at the session layer), so a
// journal recorded through a wrapped stack replays through an identically
// constructed stack bitwise.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "hpo/search_space.hpp"
#include "hpo/tuner.hpp"

namespace fedtune::hpo {

// Canonical config fingerprint: "name=value;" pairs in Config's (ordered
// map) key order, values formatted with %.17g so every double round-trips
// bitwise. Two configs share a fingerprint iff they are bitwise-identical
// parameter maps — the key the evaluation cache is addressed by.
std::string config_fingerprint(const Config& config);

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

// Abstract evaluation store the caching layers talk to. Implementations:
// MemoryEvalStore (below) and the persistent core::EvalCache. Thread-safe.
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

// In-memory EvalStore for tests and driverless loops.
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

// Base decorator: owns the inner tuner, forwards everything. Derive and
// override only the mediated calls.
class TunerMiddleware : public Tuner {
 public:
  explicit TunerMiddleware(std::unique_ptr<Tuner> inner);

  std::optional<Trial> ask() override { return inner_->ask(); }
  void tell(const Trial& trial, double objective) override {
    inner_->tell(trial, objective);
  }
  bool done() const override { return inner_->done(); }
  std::optional<Trial> best_trial() const override {
    return inner_->best_trial();
  }
  std::size_t planned_evaluations() const override {
    return inner_->planned_evaluations();
  }
  std::size_t planned_selection_events() const override {
    return inner_->planned_selection_events();
  }
  // Store locally AND forward: the innermost tuner is the one that runs
  // selection events, and every layer keeps a copy in case it selects too.
  void set_selector(TopKSelector selector) override {
    Tuner::set_selector(selector);
    inner_->set_selector(std::move(selector));
  }

  Tuner& inner() { return *inner_; }
  const Tuner& inner() const { return *inner_; }

 protected:
  std::unique_ptr<Tuner> inner_;
};

// Trial ids issued by middleware layers themselves (LocalSearchTuner's
// refinement trials) start here, disjoint from every inner tuner's id range
// (methods number trials 0, 1, 2, ... per study).
inline constexpr int kMiddlewareIdBase = 1'000'000;

// CachingTuner — serves known (config, fidelity, noise-signature) outcomes
// from an EvalStore instead of paying for a fresh evaluation.
//
// Two modes, matching the two driver shapes in this codebase:
//   kSurface (service default): the wrapper is transparent — ask/tell pass
//     through and the *session* (core::TuningSession) consults the store
//     before scheduling an eval, journals the hit as an ordinary tell, and
//     inserts the authoritative (noisy, full) pair only after the tell is
//     durable. The wrapper performs no store I/O of its own; it exists so
//     the stack is explicit about composition and so forwarding stays
//     correct (planned_evaluations, set_selector) under the cache.
//   kAbsorb (driverless loops, e.g. run_tuning or the fig10 warm-start
//     bench): ask() resolves hits internally — the inner tuner is told the
//     cached noisy objective and asked again until a miss surfaces (or the
//     tuner finishes); the driver only ever sees trials that need real
//     work. tell() records the outcome into the store (first write wins)
//     before forwarding. Not for journaled studies: absorbed tells never
//     reach the journal, and a shared cache that advanced between runs
//     would change which trials surface.
class CachingTuner : public TunerMiddleware {
 public:
  enum class Mode { kSurface, kAbsorb };

  // `store` must outlive the tuner. `noise_signature` namespaces every key
  // (core::noise_signature for service studies; any stable constant for
  // noiseless driverless loops).
  CachingTuner(std::unique_ptr<Tuner> inner, EvalStore* store,
               std::uint64_t noise_signature, Mode mode = Mode::kSurface);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;

  EvalKey key_for(const Trial& trial) const;
  Mode mode() const { return mode_; }
  // Absorb-mode counters (surface mode leaves them 0: the session's
  // evaluator does the counting there).
  std::size_t cache_hits() const { return hits_; }
  std::size_t cache_misses() const { return misses_; }

 private:
  EvalStore* store_;
  std::uint64_t noise_signature_;
  Mode mode_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

// LimitTuner — caps what the inner tuner may spend: trials issued, training
// rounds consumed (parent-aware: a promoted trial costs its fidelity delta,
// like the runners charge it), and optionally wall-clock seconds via an
// injectable clock. A cap makes done() true; the inner tuner is otherwise
// untouched.
struct LimitOptions {
  std::size_t max_trials = std::numeric_limits<std::size_t>::max();
  std::size_t max_rounds = std::numeric_limits<std::size_t>::max();
  // Wall cap is DISABLED unless a clock is injected: reading a real clock
  // would break the replay contract (tuner.hpp), so callers that want wall
  // budgets must supply the time source (tests inject a fake; interactive
  // use can accept non-replayability explicitly).
  double max_wall_seconds = std::numeric_limits<double>::infinity();
  std::function<double()> clock;  // seconds, monotonic
};

class LimitTuner : public TunerMiddleware {
 public:
  LimitTuner(std::unique_ptr<Tuner> inner, LimitOptions options);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::size_t planned_evaluations() const override;

  std::size_t trials_issued() const { return issued_; }
  std::size_t rounds_consumed() const { return rounds_; }

 private:
  bool capped() const;

  LimitOptions options_;
  double start_seconds_ = 0.0;
  std::size_t issued_ = 0;
  std::size_t rounds_ = 0;
  std::map<int, std::size_t> told_rounds_;  // trial id -> target_rounds
  bool limited_ = false;
};

// LocalSearchTuner — hill-climbing refinement around the incumbent once the
// inner tuner is done. While the inner tuner has trials, everything
// forwards; afterwards the wrapper issues up to max_steps neighbors of the
// best configuration seen so far (by told objective), accepting a neighbor
// as the new incumbent when it improves. Refinement trials carry ids from
// kMiddlewareIdBase and are NOT forwarded to the inner tuner (its model
// never sees configs it did not propose).
//
// Neighbor generation:
//   pool mode (candidate pool installed): the nearest not-yet-visited pool
//     config to the incumbent by L2 distance in the space's unit-hypercube
//     encoding, ties broken by lowest index — deterministic, no RNG.
//   continuous mode: one coordinate of the incumbent's encoding perturbed
//     by a step drawn from the pure per-step stream
//     rng.split(kLocalSearch + step), then projected onto the space.
struct LocalSearchOptions {
  std::size_t max_steps = 8;
  double step_scale = 0.15;  // continuous-mode perturbation, encoded units
};

class LocalSearchTuner : public TunerMiddleware {
 public:
  // Continuous mode; install a pool via set_candidate_pool for pool mode.
  LocalSearchTuner(std::unique_ptr<Tuner> inner, SearchSpace space,
                   LocalSearchOptions options, Rng rng);

  // Copies the pool's configs: unlike the base tuners, this one keeps its
  // own list, so the borrowed pool need not outlive it.
  void set_candidate_pool(const CandidatePool& pool);

  std::optional<Trial> ask() override;
  void tell(const Trial& trial, double objective) override;
  bool done() const override;
  std::optional<Trial> best_trial() const override;
  std::size_t planned_evaluations() const override;

  std::size_t refinement_steps_taken() const { return steps_taken_; }

 private:
  std::optional<Trial> propose_neighbor();

  SearchSpace space_;
  LocalSearchOptions options_;
  Rng rng_;
  std::vector<Config> pool_configs_;           // empty = continuous mode
  std::vector<std::vector<double>> pool_encoded_;
  std::set<std::string> visited_;              // fingerprints already told
  std::optional<Trial> incumbent_;
  double incumbent_objective_ = std::numeric_limits<double>::infinity();
  std::optional<Trial> outstanding_;           // refinement trial in flight
  std::size_t steps_taken_ = 0;
  bool exhausted_ = false;  // no further neighbor exists
};

}  // namespace fedtune::hpo

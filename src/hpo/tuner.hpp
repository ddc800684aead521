// Tuner interface — sequential ask/tell hyperparameter optimization.
//
// A driver repeatedly calls ask() for the next Trial, trains/evaluates it,
// and reports the objective (error rate; lower is better) via tell(). Trials
// carry a fidelity (target_rounds) and, for Successive-Halving promotions, a
// parent trial whose training checkpoint should be resumed.
//
// Selection events (picking the top-k survivors at a rung, or the final
// winner) go through a TopKSelector so that differentially-private selection
// (privacy::one_shot_top_k) can be injected without hpo depending on the
// privacy module. The selector receives *accuracies* (higher is better).
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "hpo/search_space.hpp"

namespace fedtune::hpo {

struct Trial {
  int id = 0;
  Config config;
  std::size_t target_rounds = 0;  // cumulative fidelity to train to
  int parent_id = -1;             // resume this trial's checkpoint, or -1
  // Index into the candidate pool when pool-backed, else SIZE_MAX.
  std::size_t config_index = std::numeric_limits<std::size_t>::max();
};

// Returns indices of the k best values (values are accuracies in [0,1]).
using TopKSelector = std::function<std::vector<std::size_t>(
    std::span<const double> accuracies, std::size_t k)>;

// Exact (non-private) top-k by value, descending.
TopKSelector exact_top_k_selector();

// Determinism / replay contract (relied on by service/journal.hpp): a
// tuner's observable behavior — the trial sequence from ask(), selection
// outcomes, best_trial() — is a pure function of its construction arguments
// (including the Rng seed) and the interleaved ask()/tell() call sequence.
// Implementations must not read clocks, addresses, global state, or any
// other input outside those two; the service recovers a crashed study by
// re-constructing the tuner and replaying its journaled tell values, and
// the result must be bitwise identical to the uninterrupted run.
//
// Evaluation-cache interaction (core/eval_cache.hpp, consulted by
// core::TuningSession): a shared cross-tenant cache is MUTABLE global
// state, so it must never influence the replayed prefix. The service keeps
// the contract by making hits indistinguishable from evaluations after the
// fact:
//   - A cache hit is journaled as an ordinary tell (the served objective is
//     the recorded value); replay applies journaled objectives and never
//     consults the cache, so the replayed trial/tell sequence is exact even
//     if the shared cache advanced concurrently.
//   - An entry is keyed (config fingerprint, fidelity, noise signature) and
//     only served at matching fidelity, so a hit's objective is bitwise the
//     value a live evaluation at that fidelity would have produced.
//   - A miss's outcome is inserted into the cache only AFTER its tell is
//     durable in the journal, and replay re-inserts journaled outcomes
//     (first write wins), so the cache state a study observes at step k is
//     a function of (cache at admission, durable journal prefix) — hit/miss
//     decisions, and therefore round accounting, match the uninterrupted
//     run exactly across kill/resume.
class Tuner {
 public:
  virtual ~Tuner() = default;

  virtual std::optional<Trial> ask() = 0;
  virtual void tell(const Trial& trial, double objective) = 0;
  virtual bool done() const = 0;

  // Best completed trial according to the tuner's own (possibly noisy)
  // information; nullopt until the tuner has enough tell()s to name one
  // (at least one completed trial — rung-based methods additionally need a
  // finished bracket).
  virtual std::optional<Trial> best_trial() const = 0;

  // Planned number of evaluation calls (the M in the per-evaluation Laplace
  // budget split) — known up front for all methods in this library.
  virtual std::size_t planned_evaluations() const = 0;

  // Planned number of top-k selection events (the T in the one-shot
  // mechanism); 1 for methods that only pick a final winner.
  virtual std::size_t planned_selection_events() const { return 1; }

  // Installs the selection mechanism (default: exact).
  virtual void set_selector(TopKSelector selector) { selector_ = std::move(selector); }

 protected:
  TopKSelector selector_ = exact_top_k_selector();
};

// Optional candidate pool: tuners draw configurations from a finite,
// pre-trained set instead of the continuous space (the paper's bootstrap
// protocol; see DESIGN.md). Draws are with replacement for random sampling.
//
// The pool BORROWS its configs: the vector (or array) they live in must
// outlive every tuner the pool is installed in. Pool simulations build one
// tuner per trial over the same shared ConfigPool, so copying the configs
// into each tuner would dominate their set-up. service::StudySession keeps
// the contract by declaring its pool resources before its tuner.
struct CandidatePool {
  std::span<const Config> configs;
};

}  // namespace fedtune::hpo

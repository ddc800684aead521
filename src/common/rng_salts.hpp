// Registry of the RNG split-salt constants used across the library.
//
// Rng::split(salt) derives a child stream from the parent *seed* and the
// salt, so two streams collide exactly when they are split from the same
// parent with the same salt. Every named salt that seeds a long-lived
// stream family therefore lives here, in one place, so a new subsystem can
// pick a fresh constant without auditing the whole tree.
//
// Convention: salts that key a *family* of streams (one per round, per
// dispatch, ...) are bases — the per-instance index is added to the base
// (`split(kTrainerRound + round)`), so each base needs a region of the salt
// space to itself. Bases below are spelled as unrelated 64-bit constants
// (ASCII mnemonics or hex tags), which keeps any realistic index range from
// walking one family into another.
#pragma once

#include <cstdint>

namespace fedtune::salts {

// --- fl/trainer.cpp --------------------------------------------------------
// Model parameter initialization: init_rng = trainer_rng.split(kModelInit).
inline constexpr std::uint64_t kModelInit = 0xfeedULL;
// Per-round training streams: round_rng = trainer_rng.split(kTrainerRound +
// round); each client then trains with round_rng.split(client_id).
inline constexpr std::uint64_t kTrainerRound = 0x726f756e64ULL;  // "round"

// --- sim/pool_hub.cpp ------------------------------------------------------
// IID-repartition view seeds: Rng(kIidView ^ bit_cast<u64>(p)). Not a split
// salt, but the same uniqueness contract applies.
inline constexpr std::uint64_t kIidView = 0x1d1d0000ULL;

// --- runtime/ (SysSim) -----------------------------------------------------
// Hardware-tier assignment: tier_rng = model_rng.split(kLatencyTier)
// .split(client_id) — one draw per client, fixed for the model's lifetime.
inline constexpr std::uint64_t kLatencyTier = 0x74696572ULL;  // "tier"
// Per-work-unit latency draws: draw_rng = model_rng.split(kLatencyDraw)
// .split(client_id).split(work_key). work_key is the round index for
// synchronous policies and the dispatch index for async — pure in
// (model seed, client, key), independent of call order.
inline constexpr std::uint64_t kLatencyDraw = 0x6c617465ULL;  // "late"
// Per-round scheduler streams (cohort sampling + per-client training):
// round_rng = scheduler_rng.split(kSchedulerRound + round).
inline constexpr std::uint64_t kSchedulerRound = 0x73636865ULL;  // "sche"
// Async dispatch streams (client selection + training): dispatch_rng =
// scheduler_rng.split(kSchedulerDispatch + dispatch_index).
inline constexpr std::uint64_t kSchedulerDispatch = 0x64697370ULL;  // "disp"

// --- core/trial_runner.cpp -------------------------------------------------
// Runtime-mode streams derived from the runner rng: the shared LatencyModel
// uses runner_rng.split(kRunnerLatency); each trial's RoundScheduler uses
// runner_rng.split(kRunnerScheduler).split(trial_id). The trainer itself
// keeps the pre-existing runner_rng.split(trial_id) stream, which these can
// never collide with (different split depth / salt region).
inline constexpr std::uint64_t kRunnerLatency = 0x726c6174ULL;    // "rlat"
inline constexpr std::uint64_t kRunnerScheduler = 0x72736368ULL;  // "rsch"

// --- core/noisy_evaluator.cpp ----------------------------------------------
// Per-evaluation streams: evaluation i draws from eval_rng.split(kEvalCall +
// i), so journal replay can fast-forward the eval counter without re-running
// evaluations, and paper figures and service studies draw the same streams.
inline constexpr std::uint64_t kEvalCall = 0x6576616cULL;  // "eval"

// --- common/env.cpp (FaultInjectingEnv) ------------------------------------
// Torn-write prefix lengths: tear_rng = Rng(plan.seed).split(kFaultTear)
// .split(op_index). Pure per-op streams — the tear at op k is a function of
// (plan seed, k) alone, so every failure run is bitwise reproducible.
inline constexpr std::uint64_t kFaultTear = 0x74656172ULL;  // "tear"

// --- service/study.cpp -----------------------------------------------------
// Study streams derived from the study seed: the tuner is constructed with
// Rng(spec.seed).split(kStudyTuner); the driver/evaluator seed is
// Rng(spec.seed).split(kStudyDriver).seed(). Keyed off the spec alone so a
// journal-recovered study re-derives identical streams.
inline constexpr std::uint64_t kStudyTuner = 0x73747564ULL;   // "stud"
inline constexpr std::uint64_t kStudyDriver = 0x73647276ULL;  // "sdrv"
// Retry-backoff jitter for transient journal I/O errors:
// jitter_rng = Rng(spec.seed).split(kStudyRetryJitter). Seeded off the spec
// so degraded-mode runs are as reproducible as healthy ones.
inline constexpr std::uint64_t kStudyRetryJitter = 0x726a7469ULL;  // "rjti"

}  // namespace fedtune::salts

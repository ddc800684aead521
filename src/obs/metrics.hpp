// MetricsRegistry — lock-light counters, gauges, and log-bucketed
// histograms for live service observability.
//
// Design constraints (the reason this is not a std::map<std::string,double>
// behind a mutex):
//   - Hot paths (journal appends, evaluator calls, scheduler steps, pool
//     tasks) pay ONE relaxed atomic add per event. No locks, no allocation,
//     no string formatting on the recording side.
//   - Contention is absorbed by sharding: every counter/histogram owns a
//     small array of cacheline-aligned cells; each thread picks a stable
//     cell (thread-id hash), so concurrent writers from the ThreadPool
//     rarely touch the same line. Cells are merged only on scrape.
//   - Registration is the slow path: MetricsRegistry::counter()/gauge()/
//     histogram() take a mutex and intern (name, labels) once; callers hold
//     the returned reference, which is stable for the registry's lifetime.
//
// Histograms are log-bucketed: bucket i covers [kMin * g^i, kMin * g^(i+1))
// with g = 2^(1/kBucketsPerOctave). Quantile estimates interpolate inside
// the bucket containing the target rank, so the estimate is within one
// bucket width (a factor of g) of the exact order statistic — the bound
// tests/test_obs.cpp enforces against a sorted-sample oracle.
//
// Determinism contract: metrics are observational only. Nothing in this
// subsystem feeds back into RNG streams, tuner decisions, or journal bytes,
// so enabling metrics can never perturb the replay contract (test-enforced
// in tests/test_service.cpp).
//
// Metric naming scheme and label-cardinality rules: src/README.md
// §Observability.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fedtune::obs {

// Shard count for per-thread cells. A power of two so the thread-id hash
// reduces with a mask. 8 shards * 64 B = one cacheline per likely-concurrent
// writer at the service's typical pool sizes.
inline constexpr std::size_t kMetricShards = 8;

// Stable per-thread shard index in [0, kMetricShards).
std::size_t this_thread_shard();

// Monotonic counter. add() is one relaxed fetch_add on this thread's cell;
// value() sums the cells (racy reads are fine: each cell is monotone, so a
// scrape sees a value between "before" and "after" any concurrent adds).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    cells_[this_thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_{};
};

// Last-write-wins double value (queue depths, budgets, spend). A gauge is a
// single atomic — sets are rare relative to counter adds.
class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  void add(double delta) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);
  std::atomic<std::uint64_t> bits_{0};
};

// Log-bucketed histogram geometry, shared by Histogram and its snapshots.
inline constexpr std::size_t kBucketsPerOctave = 4;
inline constexpr std::size_t kHistogramBuckets = 180;  // 45 octaves
// Lower edge of bucket 1. Chosen for seconds-valued observations: 1 ns up
// to ~3.9e4 s (2^45 ns) before the overflow bucket. Bucket 0 is the
// underflow bucket (v < kHistogramMin, including 0 and negatives).
inline constexpr double kHistogramMin = 1e-9;

// A merged, immutable view of a histogram at one instant.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;

  // Estimated q-quantile (q in [0, 1]): geometric midpoint of the bucket
  // holding the ceil(q * count)-th observation. Within one bucket width
  // (factor 2^(1/kBucketsPerOctave)) of the exact order statistic for
  // values inside [kHistogramMin, max). 0 when empty.
  double quantile(double q) const;
  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
};

// Sharded log-bucketed histogram. observe() is one relaxed add on this
// thread's cell row plus a sum accumulation; snapshot() merges the shards.
class Histogram {
 public:
  void observe(double v);
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const { return snapshot().count; }
  double quantile(double q) const { return snapshot().quantile(q); }

  // Bucket index for a value (exposed for tests): 0 is underflow,
  // kHistogramBuckets - 1 is overflow.
  static std::size_t bucket_index(double v);
  // Lower edge of bucket i (kHistogramMin * g^(i-1); 0 for the underflow
  // bucket).
  static double bucket_lower(std::size_t i);

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum_bits{0};  // double, CAS-accumulated
  };
  std::array<Shard, kMetricShards> shards_{};
};

using LabelSet = std::vector<std::pair<std::string, std::string>>;

// The registry: interns (name, labels) -> metric instances with stable
// addresses and renders Prometheus-style text exposition. One global
// instance serves the whole process; tests may build private registries.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent: the same (name, labels) returns the same instance. Label
  // order is canonicalized (sorted by key), so call-site order is free.
  Counter& counter(const std::string& name, LabelSet labels = {});
  Gauge& gauge(const std::string& name, LabelSet labels = {});
  Histogram& histogram(const std::string& name, LabelSet labels = {});

  // Prometheus text exposition, sorted by series key. Counters/gauges emit
  // `name{labels} value`; histograms emit summary-style quantile series
  // (quantile="0.5|0.9|0.99") plus `name_count` and `name_sum` — compact
  // enough for a line protocol, standard enough for promtool.
  std::string prometheus_text() const;

  // Number of registered series (label-cardinality guardrail for tests).
  std::size_t series() const;

  static MetricsRegistry& global();

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    std::string name;    // metric name without labels
    std::string labels;  // rendered `{k="v",...}` or empty
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Series& intern(Kind kind, const std::string& name, LabelSet labels);

  mutable std::mutex mu_;
  std::map<std::string, Series> series_;  // key = name + rendered labels
};

// Renders labels canonically: sorted by key, `{k="v",k2="v2"}`; empty set
// renders as "". Values are escaped per the Prometheus text format.
std::string render_labels(LabelSet labels);

}  // namespace fedtune::obs

// Observability tests: histogram quantile correctness against a
// sorted-sample oracle, shard-merge equivalence, counter/gauge behavior
// under real ThreadPool concurrency, Prometheus exposition content, and the
// TraceRecorder: structural JSON validity, determinism under an injected
// clock, and ring wrap accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <future>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtune::obs {
namespace {

// ------------------------------------------------------------- histogram --

// The documented bound: a quantile estimate is within one bucket width — a
// factor g = 2^(1/kBucketsPerOctave) — of the exact order statistic, for
// values inside the bucketed range.
constexpr double kBucketGrowth = 1.1892071150027210667;  // 2^(1/4)

double oracle_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, n);
  return sorted[rank - 1];
}

TEST(ObsHistogram, QuantileWithinBucketWidthOfOracle) {
  Rng rng(42);
  // Log-uniform samples spanning ~9 decades — exercises many octaves.
  std::vector<double> samples;
  Histogram h;
  for (std::size_t i = 0; i < 20000; ++i) {
    const double v = std::exp(rng.uniform(std::log(1e-7), std::log(1e2)));
    samples.push_back(v);
    h.observe(v);
  }
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, samples.size());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double est = snap.quantile(q);
    const double exact = oracle_quantile(samples, q);
    // One bucket width of slack on either side, plus epsilon for the
    // rank-vs-boundary coincidence where the oracle sits exactly on an
    // edge the estimator rounds across.
    EXPECT_GE(est, exact / (kBucketGrowth * (1 + 1e-12)))
        << "q=" << q << " est=" << est << " exact=" << exact;
    EXPECT_LE(est, exact * kBucketGrowth * (1 + 1e-12))
        << "q=" << q << " est=" << est << " exact=" << exact;
  }
  // Sum is accumulated exactly (modulo fp addition order).
  double sum = 0.0;
  for (const double v : samples) sum += v;
  EXPECT_NEAR(snap.sum, sum, std::abs(sum) * 1e-9);
}

TEST(ObsHistogram, UnderflowOverflowAndZeroLand) {
  Histogram h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(1e-12);  // below kHistogramMin
  h.observe(1e12);   // above the top octave
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.buckets[0], 3u);
  EXPECT_EQ(snap.buckets[kHistogramBuckets - 1], 1u);
}

TEST(ObsHistogram, BucketIndexRoundTripsBucketLower) {
  for (std::size_t i = 1; i + 1 < kHistogramBuckets; ++i) {
    const double lo = Histogram::bucket_lower(i);
    // A value just inside the bucket maps back to it.
    EXPECT_EQ(Histogram::bucket_index(lo * 1.0001), i) << "bucket " << i;
  }
}

// Merge-of-shards == single-shard: the same observations distributed over
// many pool threads (distinct shard cells) must produce the identical
// merged snapshot a single-threaded histogram produces.
TEST(ObsHistogram, ShardMergeEqualsSingleThreaded) {
  std::vector<double> samples;
  Rng rng(7);
  for (std::size_t i = 0; i < 8192; ++i) {
    samples.push_back(std::exp(rng.uniform(std::log(1e-6), std::log(10.0))));
  }

  Histogram single;
  for (const double v : samples) single.observe(v);

  Histogram sharded;
  ThreadPool::global().parallel_for_chunked(
      samples.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) sharded.observe(samples[i]);
      },
      /*grain=*/512);

  const HistogramSnapshot a = single.snapshot();
  const HistogramSnapshot b = sharded.snapshot();
  EXPECT_EQ(a.count, b.count);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
  // Sum order differs across shards; bound the fp drift, not the bytes.
  EXPECT_NEAR(a.sum, b.sum, std::abs(a.sum) * 1e-9);
}

// ------------------------------------------------------ counters & gauges --

TEST(ObsCounter, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 10000;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(ThreadPool::global().submit([&c] {
      for (std::size_t i = 0; i < kAddsPerTask; ++i) c.add(1);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(c.value(), kTasks * kAddsPerTask);
}

TEST(ObsGauge, ConcurrentDeltasBalance) {
  Gauge g;
  g.set(1000.0);
  constexpr std::size_t kTasks = 32;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(ThreadPool::global().submit([&g] {
      for (int i = 0; i < 1000; ++i) {
        g.add(1.0);
        g.add(-1.0);
      }
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_DOUBLE_EQ(g.value(), 1000.0);
}

// -------------------------------------------------------------- registry --

TEST(ObsRegistry, InternIsIdempotentAndLabelOrderFree) {
  MetricsRegistry reg;
  Counter& a = reg.counter("reqs_total", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("reqs_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  Counter& c = reg.counter("reqs_total", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series(), 2u);
}

TEST(ObsRegistry, PrometheusTextContainsSeries) {
  MetricsRegistry reg;
  reg.counter("fedtune_test_requests_total", {{"study", "s1"}}).add(3);
  reg.gauge("fedtune_test_depth").set(4.5);
  Histogram& h = reg.histogram("fedtune_test_latency_seconds");
  for (int i = 0; i < 100; ++i) h.observe(0.001 * (i + 1));

  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("fedtune_test_requests_total{study=\"s1\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fedtune_test_depth 4.5"), std::string::npos) << text;
  EXPECT_NE(text.find("fedtune_test_latency_seconds{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fedtune_test_latency_seconds{quantile=\"0.99\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fedtune_test_latency_seconds_count 100"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fedtune_test_latency_seconds_sum"), std::string::npos)
      << text;
}

TEST(ObsRegistry, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("esc_total", {{"k", "a\"b\\c\nd"}}).add(1);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("esc_total{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << text;
}

// ----------------------------------------------------------------- trace --

// Minimal structural JSON validator — enough to prove the exporter emits
// well-formed trace_event JSON (balanced containers, legal strings/numbers/
// literals, correct separators).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ObsTrace, ExportsValidChromeTraceJson) {
  TraceRecorder rec(64);
  rec.set_enabled(true);
  std::uint64_t tick = 0;
  rec.set_clock([&tick] { return tick += 10; });

  rec.begin("phase-a", "test");
  rec.instant("marker \"quoted\"\n", "test");
  rec.end("phase-a", "test");
  {
    TraceSpan span("scoped", "test", &rec);
  }
  const std::string json = rec.chrome_trace_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(rec.events(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(ObsTrace, DeterministicUnderInjectedClock) {
  const auto run = [] {
    TraceRecorder rec(256);
    rec.set_enabled(true);
    std::uint64_t tick = 0;
    rec.set_clock([&tick] { return tick += 7; });
    for (int i = 0; i < 20; ++i) {
      rec.begin("step", "det");
      rec.instant("mid", "det");
      rec.end("step", "det");
    }
    return rec.chrome_trace_json();
  };
  // Same operations + same injected clock => byte-identical timelines.
  EXPECT_EQ(run(), run());
}

TEST(ObsTrace, RingWrapCountsDropped) {
  TraceRecorder rec(16);  // 16 is the minimum ring capacity
  rec.set_enabled(true);
  std::uint64_t tick = 0;
  rec.set_clock([&tick] { return ++tick; });
  for (int i = 0; i < 40; ++i) rec.instant("e", "wrap");
  EXPECT_EQ(rec.events(), 16u);  // ring retains the newest capacity events
  EXPECT_EQ(rec.dropped(), 24u);
  const std::string json = rec.chrome_trace_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
}

TEST(ObsTrace, DisabledRecorderRecordsNothing) {
  TraceRecorder rec(64);
  rec.begin("ignored", "test");
  { TraceSpan span("ignored", "test", &rec); }
  EXPECT_EQ(rec.events(), 0u);
  // Enabling later starts from a clean ring.
  rec.set_enabled(true);
  rec.instant("first", "test");
  EXPECT_EQ(rec.events(), 1u);
}

TEST(ObsTrace, InternDeduplicatesAndIsStable) {
  TraceRecorder rec(16);
  const char* a = rec.intern("study.step:tenant-0");
  const char* b = rec.intern("study.step:tenant-0");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "study.step:tenant-0");
  const char* c = rec.intern("study.step:tenant-1");
  EXPECT_NE(a, c);
}

TEST(ObsTrace, ConcurrentRecordingStaysWellFormed) {
  TraceRecorder rec(1024);
  rec.set_enabled(true);
  constexpr std::size_t kTasks = 16;
  std::vector<std::future<void>> futures;
  futures.reserve(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    futures.push_back(ThreadPool::global().submit([&rec] {
      for (int i = 0; i < 200; ++i) {
        TraceSpan span("work", "mt", &rec);
        rec.instant("tick", "mt");
      }
    }));
  }
  for (auto& f : futures) f.get();
  const std::string json = rec.chrome_trace_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid());
  EXPECT_GT(rec.events(), 0u);
}

}  // namespace
}  // namespace fedtune::obs

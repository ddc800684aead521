#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace fedtune::obs {

namespace {

// Thread shard ids are handed out round-robin on first use, so up to
// kMetricShards concurrent threads get distinct cells even when thread ids
// hash badly.
std::atomic<std::size_t> g_next_shard{0};

}  // namespace

std::size_t this_thread_shard() {
  thread_local const std::size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) &
      (kMetricShards - 1);
  return shard;
}

std::uint64_t Gauge::to_bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double Gauge::from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

std::size_t Histogram::bucket_index(double v) {
  if (!(v >= kHistogramMin)) return 0;  // underflow; NaN lands here too
  const double octaves = std::log2(v / kHistogramMin);
  const auto i = static_cast<std::size_t>(
      octaves * static_cast<double>(kBucketsPerOctave));
  return std::min(i + 1, kHistogramBuckets - 1);
}

double Histogram::bucket_lower(std::size_t i) {
  if (i == 0) return 0.0;
  return kHistogramMin *
         std::exp2(static_cast<double>(i - 1) /
                   static_cast<double>(kBucketsPerOctave));
}

void Histogram::observe(double v) {
  Shard& shard = shards_[this_thread_shard()];
  shard.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  // Sum accumulates via CAS on the double's bits. Contention is already
  // spread by the shard; the loop almost always succeeds first try.
  std::uint64_t cur = shard.sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    double s = 0.0;
    std::memcpy(&s, &cur, sizeof(s));
    s += v;
    std::uint64_t next = 0;
    std::memcpy(&next, &s, sizeof(next));
    if (shard.sum_bits.compare_exchange_weak(cur, next,
                                             std::memory_order_relaxed)) {
      break;
    }
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      const std::uint64_t n =
          shard.buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    const std::uint64_t bits =
        shard.sum_bits.load(std::memory_order_relaxed);
    double s = 0.0;
    std::memcpy(&s, &bits, sizeof(s));
    snap.sum += s;
  }
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target order statistic, 1-based.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets[i];
    if (seen >= target) {
      if (i == 0) return 0.0;  // underflow bucket: values below kHistogramMin
      if (i == kHistogramBuckets - 1) return Histogram::bucket_lower(i);
      // Geometric midpoint of [lower, lower * g): halves the worst-case
      // log-domain error vs returning an edge.
      const double lo = Histogram::bucket_lower(i);
      const double hi = Histogram::bucket_lower(i + 1);
      return std::sqrt(lo * hi);
    }
  }
  return Histogram::bucket_lower(kHistogramBuckets - 1);
}

std::string render_labels(LabelSet labels) {
  if (labels.empty()) return "";
  std::sort(labels.begin(), labels.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += "\"";
  }
  out += "}";
  return out;
}

MetricsRegistry::Series& MetricsRegistry::intern(Kind kind,
                                                 const std::string& name,
                                                 LabelSet labels) {
  const std::string rendered = render_labels(std::move(labels));
  const std::string key = name + rendered;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(key);
  if (it == series_.end()) {
    Series s;
    s.kind = kind;
    s.name = name;
    s.labels = rendered;
    switch (kind) {
      case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        s.histogram = std::make_unique<Histogram>();
        break;
    }
    it = series_.emplace(key, std::move(s)).first;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, LabelSet labels) {
  return *intern(Kind::kCounter, name, std::move(labels)).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, LabelSet labels) {
  return *intern(Kind::kGauge, name, std::move(labels)).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      LabelSet labels) {
  return *intern(Kind::kHistogram, name, std::move(labels)).histogram;
}

std::size_t MetricsRegistry::series() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Splices extra labels into an already-rendered label block:
// splice_label("{a=\"b\"}", "quantile=\"0.5\"") -> {a="b",quantile="0.5"}.
std::string splice_label(const std::string& rendered,
                         const std::string& extra) {
  if (rendered.empty()) return "{" + extra + "}";
  return rendered.substr(0, rendered.size() - 1) + "," + extra + "}";
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [key, s] : series_) {
    switch (s.kind) {
      case Kind::kCounter:
        out += s.name + s.labels + " " +
               std::to_string(s.counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += s.name + s.labels + " " + format_double(s.gauge->value()) +
               "\n";
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot snap = s.histogram->snapshot();
        for (const double q : {0.5, 0.9, 0.99}) {
          out += s.name +
                 splice_label(s.labels, "quantile=\"" + format_double(q) +
                                            "\"") +
                 " " + format_double(snap.quantile(q)) + "\n";
        }
        out += s.name + "_sum" + s.labels + " " + format_double(snap.sum) +
               "\n";
        out += s.name + "_count" + s.labels + " " +
               std::to_string(snap.count) + "\n";
        break;
      }
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked intentionally: metric handles are held by components destroyed
  // at arbitrary points during shutdown (static teardown order).
  static auto* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace fedtune::obs

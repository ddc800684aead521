// Shared helpers for the perfbench subcommands: clocks, CPU accounting,
// flag parsing, and a minimal JSON writer for the result files run.py reads.
//
// Subcommands write raw samples (not percentiles) to their --out file, or
// as JSON lines on stdout (serve-gen); all statistics are computed in
// perfbench/benchlib.py so the percentile rule lives in one place and is
// unit-tested there.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU seconds of this process (all threads).
inline double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// `--key value` pairs and bare `--flag`s. A flag followed by another
// `--...` token (or nothing) is boolean.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string k = argv[i];
      if (k.rfind("--", 0) != 0) throw std::invalid_argument("bad arg " + k);
      k = k.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        kv_[k] = argv[++i];
      } else {
        kv_[k] = "";
      }
    }
  }
  bool has(const std::string& k) const { return kv_.count(k) != 0; }
  std::string str(const std::string& k, const std::string& def = "") const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? def : it->second;
  }
  std::string need(const std::string& k) const {
    const auto it = kv_.find(k);
    if (it == kv_.end() || it->second.empty()) {
      throw std::invalid_argument("missing --" + k);
    }
    return it->second;
  }
  double num(const std::string& k, double def) const {
    return has(k) ? std::stod(str(k)) : def;
  }
  double real(const std::string& k) const { return std::stod(need(k)); }
  std::uint64_t u64(const std::string& k, std::uint64_t def) const {
    return has(k) ? std::stoull(str(k)) : def;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// Flat-ish JSON object writer: numbers, strings, number arrays and nested
// objects (as pre-rendered JSON text).
class Json {
 public:
  Json& num(const std::string& k, double v) { return raw(k, number(v, "%.17g")); }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Json& arr(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += number(v[i], "%.9g");
    }
    return raw(k, s + "]");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  Json& raw(const std::string& k, const std::string& json_value) {
    if (!body_.empty()) body_ += ',';
    body_.append(quote(k)).append(1, ':').append(json_value);
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

  void write(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    f << text() << "\n";
    if (!f) throw std::runtime_error("cannot write " + path);
  }

  // Infinity marks a failed or unserved request's latency; Python's json
  // module reads it back as float("inf").
  static std::string number(double v, const char* fmt) {
    if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
    char buf[40];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
  }

  static std::string quote(const std::string& s) {
    std::string o = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        o += '\\';
        o += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        o += buf;
      } else {
        o += c;
      }
    }
    return o + "\"";
  }

 private:
  std::string body_;
};

// Samples keyed by name (per-verb latencies, per-dataset timings, ...).
using SampleMap = std::map<std::string, std::vector<double>>;

inline Json samples_json(const SampleMap& m) {
  Json j;
  for (const auto& [k, v] : m) j.arr(k, v);
  return j;
}

// Prints the readiness marker run.py times set-up against.
inline void announce_ready() {
  std::printf("READY\n");
  std::fflush(stdout);
}

}  // namespace perfbench

#include "service/service_handler.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "cluster/placement.hpp"
#include "cluster/replica_store.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtune::service {

namespace {

// Strict u64 parse for wire integers (repl offsets, create-study counts):
// digits only, bounded width. A bare std::stoul accepts "8x" as 8 and wraps
// "-1" to SIZE_MAX, and it throws on garbage.
std::optional<std::uint64_t> parse_u64(const std::string& word) {
  if (word.empty() || word.size() > 19) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::vector<std::string> split_words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string w;
  while (in >> w) words.push_back(w);
  return words;
}

// Hex-float (%a) round-trips doubles exactly: the trace line is a bitwise
// fingerprint of the study's trajectory.
std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

ServiceHandler::ServiceHandler(StudyManager& manager, std::string default_pool,
                               std::string metrics_file, std::string trace_out)
    : manager_(manager),
      default_pool_(std::move(default_pool)),
      metrics_file_(std::move(metrics_file)),
      trace_out_(std::move(trace_out)) {}

void ServiceHandler::flush_observability() {
  if (!metrics_file_.empty()) {
    write_text_file(metrics_file_,
                    obs::MetricsRegistry::global().prometheus_text());
  }
  if (!trace_out_.empty()) {
    obs::TraceRecorder::global().write_chrome_trace(trace_out_);
  }
}

std::string ServiceHandler::handle(const std::string& line, bool* running) {
  const std::vector<std::string> words = split_words(line);
  if (words.empty()) return "err empty request";
  const std::string& verb = words[0];
  try {
    if (verb == "ping") return "ok pong";
    if (verb == "shutdown") {
      *running = false;
      return "ok bye";
    }
    if (verb == "list") {
      std::string out = "ok";
      for (const std::string& name : manager_.list()) {
        const StudySession* s = manager_.find(name);
        out += " " + name + ":" + state_name(s->state()) + ":" +
               health_name(s->health());
      }
      return out;
    }
    if (verb == "pump") {
      return "ok steps=" + std::to_string(manager_.pump());
    }
    if (verb == "cache-stats") return cache_stats();
    if (verb == "metrics") return metrics();
    if (verb == "trace-export") return trace_export(words);
    if (verb == "create-study") return create_study(words);
    if (verb == "cluster-info") return cluster_info(words);
    if (verb == "repl-append") return repl_append(words);
    if (verb == "repl-ack") return repl_ack(words);
    if (verb == "repl-snapshot") return repl_snapshot(words);
    if (words.size() < 2) return "err missing study name";
    const std::string& name = words[1];
    if (verb == "promote") return promote(name);
    // A study without a session is already parked: suspend must not load it
    // just to drop it.
    if (verb == "suspend") {
      manager_.suspend_study(name);
      return "ok suspended " + name;
    }
    if (verb == "resume") {
      // A QUARANTINED session is dropped and rebuilt from its journal below:
      // the in-memory engine may be ahead of the durable history after a
      // failed append, so flipping the state back would be wrong.
      if (const StudySession* active = manager_.find(name);
          active != nullptr && active->quarantined()) {
        manager_.suspend_study(name);
      }
    }
    StudySession* session = take_over(name);
    if (session == nullptr) return "err no active study '" + name + "'";
    if (verb == "resume") {
      // Un-park a session the scheduler suspended (e.g. past its deadline):
      // resume grants a fresh allowance.
      session->resume_from_suspend();
      return "ok resumed " + name +
             " steps=" + std::to_string(session->steps()) +
             " health=" + health_name(session->health());
    }
    if (verb == "status") return status(*session);
    if (verb == "best") return best(*session);
    if (verb == "trace") return "ok " + format_trace(*session);
    if (verb == "ask") return ask(*session);
    if (verb == "tell") return tell(*session, words);
    if (verb == "drive") return drive(*session, words);
    return "err unknown verb '" + verb + "'";
  } catch (const std::exception& ex) {
    // Collapse to one line: multi-line messages would break the framing.
    std::string msg = ex.what();
    for (char& c : msg) {
      if (c == '\n') c = ' ';
    }
    return "err " + msg;
  }
}

// Prometheus exposition. The only multi-line response in the protocol:
// `ok lines=N` then N raw lines, so clients framed on single lines can
// still parse the header and skip the body by count.
std::string ServiceHandler::metrics() {
  const std::string text = obs::MetricsRegistry::global().prometheus_text();
  if (!metrics_file_.empty()) write_text_file(metrics_file_, text);
  std::string body = text;
  while (!body.empty() && body.back() == '\n') body.pop_back();
  if (body.empty()) return "ok lines=0";
  const std::size_t n =
      1 + static_cast<std::size_t>(
              std::count(body.begin(), body.end(), '\n'));
  return "ok lines=" + std::to_string(n) + "\n" + body;
}

std::string ServiceHandler::trace_export(
    const std::vector<std::string>& words) {
  const std::string path = words.size() >= 2 ? words[1] : trace_out_;
  if (path.empty()) {
    return "err no trace path (pass PATH or start with --trace-out)";
  }
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  if (!rec.write_chrome_trace(path)) {
    return "err cannot write trace to '" + path + "'";
  }
  return "ok events=" + std::to_string(rec.events()) +
         " dropped=" + std::to_string(rec.dropped()) + " path=" + path;
}

std::string ServiceHandler::cache_stats() {
  std::ostringstream out;
  out << "ok";
  bool any = false;
  for (const std::string& pool : manager_.pool_names()) {
    const auto cache = manager_.eval_cache(pool);
    if (cache == nullptr) continue;
    any = true;
    const std::size_t hits = cache->hits();
    const std::size_t misses = cache->misses();
    const std::size_t lookups = hits + misses;
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.3f",
                  lookups == 0 ? 0.0
                               : static_cast<double>(hits) /
                                     static_cast<double>(lookups));
    out << " " << pool << ":entries=" << cache->entries()
        << ",hits=" << hits << ",misses=" << misses << ",hit_rate=" << rate
        << (cache->degraded() ? ",degraded" : "");
  }
  if (!any) return "ok no eval caches (start with --eval-cache DIR)";
  return out.str();
}

std::string ServiceHandler::create_study(
    const std::vector<std::string>& words) {
  if (words.size() < 2) return "err usage: create-study NAME [k=v...]";
  StudySpec spec;
  spec.name = words[1];
  spec.pool = default_pool_;
  spec.num_configs = 8;
  // The integer-valued keys, all parsed strictly (seed is a u64, the rest
  // are size_t: one pointer type serves both on LP64).
  static_assert(std::is_same_v<std::size_t, std::uint64_t>);
  const auto count_field = [&spec](const std::string& key) -> std::uint64_t* {
    if (key == "configs") return &spec.num_configs;
    if (key == "budget") return &spec.budget_rounds;
    if (key == "seed") return &spec.seed;
    if (key == "eval-clients") return &spec.noise.eval_clients;
    if (key == "deadline") return &spec.deadline_slices;
    if (key == "max-trials") return &spec.max_trials;
    return nullptr;
  };
  for (std::size_t i = 2; i < words.size(); ++i) {
    const std::string& w = words[i];
    const std::size_t eq = w.find('=');
    if (w == "external") {
      spec.external = true;
      continue;
    }
    if (eq == std::string::npos) return "err malformed option '" + w + "'";
    const std::string key = w.substr(0, eq);
    const std::string value = w.substr(eq + 1);
    if (key == "method") {
      const auto m = method_from_name(value);
      if (!m.has_value()) return "err unknown method '" + value + "'";
      spec.method = *m;
    } else if (key == "pool") {
      spec.pool = value;
    } else if (key == "epsilon") {
      spec.noise.epsilon = std::stod(value);
    } else if (key == "bias-b") {
      spec.noise.bias_b = std::stod(value);
    } else if (std::uint64_t* field = count_field(key)) {
      const std::optional<std::uint64_t> n = parse_u64(value);
      if (!n.has_value()) return "err bad value for '" + key + "'";
      *field = *n;
    } else if (key == "cache") {
      if (value != "on" && value != "off") {
        return "err cache must be on|off";
      }
      spec.use_eval_cache = value == "on";
    } else if (key == "warm") {
      if (value != "on" && value != "off") {
        return "err warm must be on|off";
      }
      spec.warm_start = value == "on";
    } else {
      return "err unknown option '" + key + "'";
    }
  }
  StudySession& s = manager_.create_study(std::move(spec));
  return "ok created " + s.spec().name;
}

std::string ServiceHandler::status(const StudySession& s) {
  std::ostringstream out;
  out << "ok state=" << state_name(s.state())
      << " health=" << health_name(s.health())
      << " method=" << method_name(s.spec().method)
      << " steps=" << s.steps() << " rounds=" << s.rounds_used();
  if (s.spec().budget_rounds !=
      std::numeric_limits<std::size_t>::max()) {
    out << " budget=" << s.spec().budget_rounds;
  }
  if (const auto b = s.best()) {
    out << " best_id=" << b->first.id << " best_error=" << b->second;
  }
  if (s.cache_active()) {
    out << " cache_hits=" << s.cache_hits()
        << " cache_misses=" << s.cache_misses();
  }
  if (s.io_retries() > 0) out << " retries=" << s.io_retries();
  if (!s.last_error().empty()) {
    // Last key on the line, spaces collapsed so the value stays one token.
    std::string msg = s.last_error();
    for (char& c : msg) {
      if (c == ' ' || c == '\n') c = '_';
    }
    out << " last_error=" << msg;
  }
  return out.str();
}

std::string ServiceHandler::best(const StudySession& s) {
  const auto b = s.best();
  if (!b.has_value()) return "err no completed trials";
  std::ostringstream out;
  out << "ok id=" << b->first.id << " config_index=" << b->first.config_index
      << " target_rounds=" << b->first.target_rounds
      << " error=" << hex_double(b->second);
  return out.str();
}

std::string ServiceHandler::format_trace(const StudySession& s) {
  const core::TuneResult& result = s.result();
  std::ostringstream out;
  out << "n=" << result.records.size();
  for (const core::TrialRecord& r : result.records) {
    out << " " << r.trial.id << ":" << r.trial.config_index << ":"
        << r.trial.target_rounds << ":" << hex_double(r.noisy_objective)
        << ":" << hex_double(r.full_error) << ":" << r.cumulative_rounds;
  }
  if (s.finished()) {
    out << " | best=" << (result.best ? result.best->id : -1)
        << " best_full=" << hex_double(result.best_full_error);
  }
  return out.str();
}

std::string ServiceHandler::ask(StudySession& s) {
  const std::optional<hpo::Trial> t = s.ask();
  if (!t.has_value()) {
    return s.finished() ? "err study finished" : "err study not running";
  }
  std::ostringstream out;
  out << "ok id=" << t->id << " target_rounds=" << t->target_rounds
      << " parent=" << t->parent_id << " config=";
  bool first = true;
  for (const auto& [key, value] : t->config) {
    out << (first ? "" : ",") << key << "=" << hex_double(value);
    first = false;
  }
  return out.str();
}

std::string ServiceHandler::tell(StudySession& s,
                                 const std::vector<std::string>& words) {
  if (words.size() != 4) return "err usage: tell NAME TRIAL_ID OBJECTIVE";
  const int trial_id = std::stoi(words[2]);
  const double objective = std::stod(words[3]);
  const core::TrialRecord r = s.tell(trial_id, objective);
  return "ok recorded trial=" + std::to_string(r.trial.id) +
         " steps=" + std::to_string(s.steps());
}

StudySession* ServiceHandler::take_over(const std::string& name) {
  if (StudySession* live = manager_.find(name)) return live;
  // Failover: a replica left by a dead primary becomes the live journal
  // first. Journal replay then reconstructs the session, so every
  // already-completed trial comes back without a live evaluation.
  if (cluster_.replicas != nullptr && cluster_.replicas->has(name)) {
    cluster_.replicas->promote(name, manager_.journal_path(name));
  }
  return manager_.find_or_resume(name);
}

std::string ServiceHandler::repl_append(
    const std::vector<std::string>& words) {
  if (cluster_.replicas == nullptr) return "err not a cluster member";
  if (words.size() != 4) {
    return "err usage: repl-append STUDY BASE_OFFSET HEXBYTES";
  }
  const auto base = parse_u64(words[2]);
  if (!base.has_value()) return "err bad offset '" + words[2] + "'";
  const auto bytes = cluster::hex_decode(words[3]);
  if (!bytes.has_value()) return "err bad hex payload";
  // A study actively served here must not also be overwritten as a replica
  // (split brain: two primaries for one study). Reject; the sender's
  // placement or the operator has to resolve who owns it.
  if (manager_.find(words[1]) != nullptr) {
    return "err study '" + words[1] + "' is active here (dual primary?)";
  }
  const std::uint64_t size =
      cluster_.replicas->append(words[1], *base, *bytes);
  return "ok acked=" + std::to_string(size);
}

std::string ServiceHandler::repl_ack(const std::vector<std::string>& words) {
  if (cluster_.replicas == nullptr) return "err not a cluster member";
  if (words.size() != 2) return "err usage: repl-ack STUDY";
  return "ok offset=" + std::to_string(cluster_.replicas->size(words[1]));
}

std::string ServiceHandler::repl_snapshot(
    const std::vector<std::string>& words) {
  if (cluster_.replicas == nullptr) return "err not a cluster member";
  if (words.size() != 3) return "err usage: repl-snapshot STUDY HEXBYTES";
  const auto bytes = cluster::hex_decode(words[2]);
  if (!bytes.has_value()) return "err bad hex payload";
  if (manager_.find(words[1]) != nullptr) {
    return "err study '" + words[1] + "' is active here (dual primary?)";
  }
  const std::uint64_t size = cluster_.replicas->install(words[1], *bytes);
  return "ok acked=" + std::to_string(size);
}

std::string ServiceHandler::promote(const std::string& name) {
  if (StudySession* active = manager_.find(name)) {
    return "ok promoted " + name + " already-active steps=" +
           std::to_string(active->steps()) +
           " live_evals=" + std::to_string(active->live_evaluations());
  }
  const StudySession* s = take_over(name);
  if (s == nullptr) return "err no replica or journal for study '" + name + "'";
  // live_evals counts evaluations performed by THIS session since replay:
  // 0 proves the takeover re-served history from the journal instead of
  // re-running trials.
  return "ok promoted " + name + " steps=" + std::to_string(s->steps()) +
         " live_evals=" + std::to_string(s->live_evaluations());
}

std::string ServiceHandler::cluster_info(
    const std::vector<std::string>& words) {
  if (cluster_.placement == nullptr) return "err not a cluster member";
  std::ostringstream out;
  if (words.size() >= 2) {
    const cluster::StudyPlacement p = cluster_.placement->place(words[1]);
    out << "ok study=" << words[1] << " primary=" << p.primary.id << "@"
        << p.primary.endpoint();
    if (p.follower.has_value()) {
      out << " follower=" << p.follower->id << "@" << p.follower->endpoint();
    }
    return out.str();
  }
  out << "ok self=" << cluster_.self_id;
  for (const cluster::ClusterMember& m :
       cluster_.placement->roster().members()) {
    out << " " << m.id << "@" << m.endpoint();
  }
  if (cluster_.replicas != nullptr) {
    out << " replicas=" << cluster_.replicas->list().size();
  }
  return out.str();
}

std::string ServiceHandler::drive(StudySession& s,
                                  const std::vector<std::string>& words) {
  if (words.size() != 3) return "err usage: drive NAME STEPS";
  const std::size_t steps = std::stoul(words[2]);
  std::size_t ran = 0;
  for (; ran < steps; ++ran) {
    if (!s.run_one_step()) break;
  }
  return "ok ran=" + std::to_string(ran) +
         " state=" + state_name(s.state());
}

}  // namespace fedtune::service

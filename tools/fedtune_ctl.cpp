// fedtune_ctl — client for the fedtune_studyd daemon: sends one protocol
// request over a Unix socket or TCP and prints the response.
//
//   fedtune_ctl --socket PATH [--timeout SEC] VERB [ARGS...]
//   fedtune_ctl --tcp HOST:PORT [--tenant N] [--token T]
//               [--timeout SEC] VERB [ARGS...]
//       e.g.  fedtune_ctl --socket /tmp/studyd.sock create-study s1
//                 method=rs configs=24 seed=7
//             fedtune_ctl --tcp 127.0.0.1:7447 --tenant 3
//                 --token s3cret status s1
//             fedtune_ctl --socket /tmp/studyd.sock cache-stats
//       (cache-stats reports the shared evaluation caches per pool:
//        entries, hits, misses, hit rate — daemon must run --eval-cache)
//   fedtune_ctl (--socket PATH | --tcp HOST:PORT) wait NAME TIMEOUT_SECONDS
//       polls `status NAME` until the study reports state=finished (exit 0)
//       or the timeout expires (exit 1) — the CI smoke test's join point.
//
// Transport: both --socket and --tcp speak the length-prefixed frame
// protocol (src/net/frame.hpp) through net::Client — the request verb maps
// to its opcode, the args to the payload, and the kOk/kErr answer prints as
// `ok ...` / `err ...`, so scripts see identical output on every
// transport. With --token (needed when the daemon runs --auth-file) the
// client sends a kHello first; --tenant sets the tenant id (default 0).
//
// Connection failures retry with jittered exponential backoff until the
// --timeout deadline (default 5 s) — a daemon that is restarting (e.g.
// replaying journals after a crash) looks like a connect failure for a
// moment, and a control plane that gives up on the first ECONNREFUSED turns
// every recovery into an outage. The jitter decorrelates concurrent clients
// hammering a freshly bound socket.
//
// Responses are one line except `metrics`, which answers `ok lines=N`
// followed by N raw Prometheus exposition lines, all inside one frame.
//
// Exit codes (distinct, for scripting):
//   0  the daemon answered `ok ...` (or the wait succeeded)
//   1  the daemon answered `err ...` (or non-frame bytes), or a wait timed
//      out
//   2  usage error (bad flags/arguments)
//   3  connection failure past the --timeout deadline (daemon unreachable)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "flag_parse.hpp"

#include "cluster/placement.hpp"
#include "net/client.hpp"

namespace {

struct Endpoint {
  std::string unix_path;  // non-empty → Unix transport
  std::string tcp_host;   // non-empty → TCP transport
  std::uint16_t tcp_port = 0;
  std::uint64_t tenant = 0;
  std::string token;

  std::string describe() const {
    if (!unix_path.empty()) return unix_path;
    return tcp_host + ":" + std::to_string(tcp_port);
  }
};

// Verbs whose first argument is a study name — the ones --cluster routes by
// placement (and fails over to the follower for).
bool study_scoped_verb(const std::string& verb) {
  return verb == "create-study" || verb == "status" || verb == "best" ||
         verb == "trace" || verb == "suspend" || verb == "resume" ||
         verb == "ask" || verb == "tell" || verb == "drive" ||
         verb == "promote";
}

// One connection, an optional kHello, one request "VERB ARGS..."; nullopt
// when the daemon could not be reached. A refused hello is the answer.
std::optional<std::string> roundtrip(const Endpoint& ep,
                                     const std::string& line) {
  fedtune::net::Client client;
  const bool up = ep.unix_path.empty()
                      ? client.connect_tcp(ep.tcp_host, ep.tcp_port)
                      : client.connect_unix(ep.unix_path);
  if (!up) return std::nullopt;
  client.set_tenant(ep.tenant);
  if (!ep.token.empty()) {
    const auto ack = client.hello(ep.tenant, ep.token);
    if (!ack.has_value() || ack->rfind("ok", 0) != 0) return ack;
  }
  const std::size_t sp = line.find(' ');
  return client.request(line.substr(0, sp),
                        sp == std::string::npos ? "" : line.substr(sp + 1));
}

// roundtrip() with jittered exponential-backoff retries on connection
// failure, bounded by `timeout_seconds`. One attempt is always made, so a
// zero/negative timeout degrades to plain roundtrip().
std::optional<std::string> roundtrip_retry(const Endpoint& ep,
                                           const std::string& line,
                                           double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  // Jitter decorrelates concurrent clients; it is seeded per process, not
  // deterministically — this is politeness, not replay.
  std::minstd_rand jitter_rng(
      static_cast<unsigned>(::getpid()) * 2654435761u + 1u);
  double delay_ms = 10.0;
  for (;;) {
    const auto response = roundtrip(ep, line);
    if (response.has_value()) return response;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(deadline - now).count();
    const double factor =
        0.5 + static_cast<double>(jitter_rng() % 1000u) / 1000.0;
    const double sleep_ms = std::min(delay_ms * factor, remaining_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms));
    delay_ms = std::min(delay_ms * 2.0, 500.0);
  }
}

int wait_for_finish(const Endpoint& ep, const std::string& name,
                    double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto response = roundtrip(ep, "status " + name);
    if (response.has_value() &&
        response->find("state=finished") != std::string::npos) {
      std::cout << *response << "\n";
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "error: study '" << name << "' did not finish within "
            << timeout_seconds << "s\n";
  return 1;
}

// Failover round trip: try each candidate in order (primary first, then the
// follower), looping with backoff until one answers or the deadline passes.
// A dead primary therefore costs one failed connect per loop; the follower
// answers the same request — auto-promoting server-side when the study only
// exists there as a replica.
std::optional<std::string> roundtrip_failover(
    const std::vector<Endpoint>& candidates, const std::string& line,
    double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  double delay_ms = 10.0;
  for (;;) {
    for (const Endpoint& ep : candidates) {
      const auto response = roundtrip(ep, line);
      if (response.has_value()) return response;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(deadline - now).count();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(delay_ms, remaining_ms)));
    delay_ms = std::min(delay_ms * 2.0, 500.0);
  }
}

int wait_for_finish_any(const std::vector<Endpoint>& candidates,
                        const std::string& name, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const Endpoint& ep : candidates) {
      const auto response = roundtrip(ep, "status " + name);
      if (response.has_value() &&
          response->find("state=finished") != std::string::npos) {
        std::cout << *response << "\n";
        return 0;
      }
      if (response.has_value()) break;  // reached a live server; don't poll
                                        // the follower into promoting too
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cerr << "error: study '" << name << "' did not finish within "
            << timeout_seconds << "s\n";
  return 1;
}

Endpoint endpoint_for(const fedtune::cluster::ClusterMember& m,
                      const Endpoint& base) {
  Endpoint ep = base;
  ep.unix_path.clear();
  ep.tcp_host = m.host;
  ep.tcp_port = m.port;
  return ep;
}

}  // namespace

int main(int argc, char** argv) {
  Endpoint ep;
  double timeout_seconds = 5.0;
  std::string cluster_file;
  std::vector<std::string> words;
  // A daemon that closes mid-write must cost this client an EPIPE errno,
  // not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--socket") {
      ep.unix_path = next();
    } else if (a == "--tcp") {
      const std::string spec = next();
      const std::size_t colon = spec.rfind(':');
      int port = -1;
      try {
        if (colon != std::string::npos) {
          ep.tcp_host = spec.substr(0, colon);
          port = std::stoi(spec.substr(colon + 1));
        }
      } catch (const std::exception&) {
        port = -1;
      }
      if (port < 0 || port > 65535 || ep.tcp_host.empty()) {
        std::cerr << "error: bad --tcp spec '" << spec
                  << "' (want HOST:PORT)\n";
        return 2;
      }
      ep.tcp_port = static_cast<std::uint16_t>(port);
    } else if (a == "--cluster") {
      cluster_file = next();
    } else if (a == "--tenant") {
      ep.tenant = fedtune::tools::parse_u64_flag(a, next());
    } else if (a == "--token") {
      ep.token = next();
    } else if (a == "--timeout") {
      timeout_seconds = fedtune::tools::parse_double_flag(a, next());
    } else if (a == "--help" || a == "-h") {
      std::cout
          << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT | "
             "--cluster FILE)\n"
             "                   [--tenant N] [--token T]\n"
             "                   [--timeout SEC] VERB [ARGS...]\n"
             "       fedtune_ctl (--socket PATH | --tcp HOST:PORT) wait "
             "NAME TIMEOUT_SEC\n"
             "\n"
             "transport:\n"
             "  --socket PATH             Unix socket\n"
             "  --tcp HOST:PORT           TCP\n"
             "  --cluster FILE            roster file (ID HOST:PORT lines); "
             "study\n"
             "                            verbs route to the study's primary "
             "and\n"
             "                            fail over to its follower\n"
             "  --tenant N --token T      authenticate as tenant N (sends "
             "kHello)\n"
             "\n"
             "daemon verbs (forwarded over the socket):\n"
             "  ping                      liveness check\n"
             "  list                      active studies as "
             "NAME:STATE:HEALTH\n"
             "  create-study NAME [k=v..] new study (method=, configs=, "
             "budget=,\n"
             "                            seed=, pool=, eval-clients=, "
             "epsilon=,\n"
             "                            bias-b=, deadline=, cache=on|off,\n"
             "                            warm=on|off, max-trials=, "
             "external)\n"
             "  status NAME               state/health/steps/rounds/best; "
             "adds\n"
             "                            cache_hits=/cache_misses= with the "
             "eval\n"
             "                            cache, retries=/last_error= when "
             "degraded\n"
             "  best NAME                 current best trial (hex-float "
             "exact)\n"
             "  trace NAME                full trial trajectory, hex-float "
             "exact\n"
             "  ask NAME                  next trial of an external study\n"
             "  tell NAME ID OBJ          report an external trial's "
             "objective\n"
             "  drive NAME STEPS          run STEPS managed steps "
             "synchronously\n"
             "  pump                      one fair-share scheduler cycle\n"
             "  suspend NAME              park a study (journal keeps "
             "state)\n"
             "  resume NAME               un-park / rebuild a journaled "
             "study\n"
             "  cache-stats               shared eval-cache counters per "
             "pool\n"
             "  metrics                   Prometheus exposition "
             "(multi-line)\n"
             "  trace-export [PATH]       write Chrome trace JSON on the "
             "daemon\n"
             "  shutdown                  stop the daemon\n"
             "\n"
             "client-side verbs:\n"
             "  wait NAME TIMEOUT_SEC     poll status until state=finished\n"
             "  route NAME                print the study's placement "
             "(--cluster)\n"
             "\n"
             "exit codes: 0 ok, 1 daemon err/wait timeout, 2 usage,\n"
             "            3 connect failure past --timeout\n";
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag '" << a << "'\n";
      return 2;
    } else {
      words.push_back(a);
    }
  }
  const int given = (!ep.unix_path.empty() ? 1 : 0) +
                    (!ep.tcp_host.empty() ? 1 : 0) +
                    (!cluster_file.empty() ? 1 : 0);
  if (given == 0 || words.empty()) {
    std::cerr << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT | "
                 "--cluster FILE) [--tenant N] [--token T] "
                 "[--timeout SEC] VERB [ARGS...]\n";
    return 2;
  }
  if (given > 1) {
    std::cerr
        << "error: pass exactly one of --socket / --tcp / --cluster\n";
    return 2;
  }

  // --cluster: compute the study's placement client-side and talk to the
  // primary, falling over to the follower when the primary stops answering.
  if (!cluster_file.empty()) {
    std::optional<fedtune::cluster::Placement> placement;
    try {
      placement.emplace(fedtune::cluster::Roster::load(cluster_file));
    } catch (const std::exception& ex) {
      std::cerr << "error: " << ex.what() << "\n";
      return 2;
    }
    const std::string& verb = words[0];
    if (verb == "route") {
      if (words.size() != 2) {
        std::cerr << "usage: fedtune_ctl --cluster FILE route NAME\n";
        return 2;
      }
      const auto p = placement->place(words[1]);
      std::cout << "ok study=" << words[1] << " primary=" << p.primary.id
                << "@" << p.primary.endpoint();
      if (p.follower.has_value()) {
        std::cout << " follower=" << p.follower->id << "@"
                  << p.follower->endpoint();
      }
      std::cout << "\n";
      return 0;
    }
    std::vector<Endpoint> candidates;
    const bool scoped = (study_scoped_verb(verb) || verb == "wait") &&
                        words.size() >= 2;
    if (scoped) {
      const auto p = placement->place(words[1]);
      candidates.push_back(endpoint_for(p.primary, ep));
      if (p.follower.has_value()) {
        candidates.push_back(endpoint_for(*p.follower, ep));
      }
    } else {
      // Fleet-wide verbs (ping, list, metrics, ...): first live member.
      for (const auto& m : placement->roster().members()) {
        candidates.push_back(endpoint_for(m, ep));
      }
    }
    if (verb == "wait") {
      if (words.size() != 3) {
        std::cerr << "usage: fedtune_ctl --cluster FILE wait NAME "
                     "TIMEOUT_SEC\n";
        return 2;
      }
      return wait_for_finish_any(
          candidates, words[1],
          fedtune::tools::parse_double_flag("wait TIMEOUT_SEC", words[2]));
    }
    std::string line = words[0];
    for (std::size_t i = 1; i < words.size(); ++i) line += " " + words[i];
    const auto response =
        roundtrip_failover(candidates, line, timeout_seconds);
    if (!response.has_value()) {
      std::cerr << "error: no cluster member answered within "
                << timeout_seconds << "s\n";
      return 3;
    }
    std::cout << *response << "\n";
    return response->rfind("ok", 0) == 0 ? 0 : 1;
  }

  if (words[0] == "wait") {
    if (words.size() != 3) {
      std::cerr << "usage: fedtune_ctl (--socket PATH | --tcp HOST:PORT) "
                   "wait NAME TIMEOUT_SEC\n";
      return 2;
    }
    return wait_for_finish(
        ep, words[1],
        fedtune::tools::parse_double_flag("wait TIMEOUT_SEC", words[2]));
  }
  std::string line = words[0];
  for (std::size_t i = 1; i < words.size(); ++i) line += " " + words[i];
  const auto response = roundtrip_retry(ep, line, timeout_seconds);
  if (!response.has_value()) {
    // Distinct from a daemon-side `err` (1) and from usage (2): scripts can
    // tell "unreachable" apart from "reached but refused".
    std::cerr << "error: cannot reach daemon at " << ep.describe()
              << " within " << timeout_seconds << "s\n";
    return 3;
  }
  std::cout << *response << "\n";
  return response->rfind("ok", 0) == 0 ? 0 : 1;
}

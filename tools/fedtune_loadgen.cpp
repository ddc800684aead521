// fedtune_loadgen — synthetic multi-tenant load driver for the networked
// StudyService: opens N concurrent TCP (or Unix) connections, runs M
// sequential external studies per tenant with T ask/tell trials each, and
// reports throughput plus ask→tell latency percentiles as bench JSON.
//
//   fedtune_loadgen (--tcp HOST:PORT | --socket PATH) [--tenants N]
//                   [--studies M] [--trials T] [--token TOK]
//                   [--timeout SEC] [--json PATH]
//
// Each tenant is one connection driven by a non-blocking state machine on
// the shared epoll loop — 1000 tenants is 1000 sockets, not 1000 threads.
// Tenant i (ids 1..N) runs studies t{i}_s{k}: create-study (external, so
// the daemon does no pool evaluation and the measurement isolates the
// network front-end + journal path), then T ask/tell rounds, then suspend
// (bounding the daemon's active-session count to the connection count).
// Objectives are a deterministic function of (tenant, study, trial), so a
// run is replayable.
//
// One ask→tell sample is the full control-plane cycle: send `ask`, receive
// the trial, send `tell`, receive the commit ack — the latency a real
// external tuner loop would observe per trial. Requests are frames
// (net/frame.hpp) written by hand, not through the blocking net::Client,
// because every tenant shares one non-blocking event loop. With --token,
// every tenant opens with a kHello frame (pair it with a daemon
// --auth-file listing tenants 1..N).
//
// Output (stdout or --json): tenants/studies/trials, completed_studies,
// failed_requests, dropped_connections, frames sent/received, elapsed,
// frames_per_sec, ask_tell_p50_us/p99_us. Exit 0 only if every study
// completed and no connection was dropped.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flag_parse.hpp"

#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace {

using namespace fedtune;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  std::string unix_path;
  // Failover target (--failover HOST:PORT): when the primary connection
  // drops mid-study, the tenant reconnects here, probes the study with
  // `status` (which auto-promotes the follower's replica server-side), and
  // resumes its ask/tell loop where the journal left off.
  std::string failover_host;
  std::uint16_t failover_port = 0;
  std::size_t tenants = 8;
  std::size_t studies = 1;   // per tenant, sequential
  std::size_t trials = 4;    // ask/tell rounds per study
  std::string token;
  double timeout_s = 120.0;
  std::string json_path;  // empty = stdout
  // Study-name prefix: names are {prefix}{tenant}_s{k}. Vary it to rerun
  // against a daemon whose journal dir already has a previous run's names.
  std::string prefix = "t";
};

struct Stats {
  std::size_t completed_studies = 0;
  std::size_t failed_requests = 0;
  std::size_t dropped_connections = 0;
  std::size_t failovers = 0;
  std::size_t frames_sent = 0;
  std::size_t frames_received = 0;
  std::vector<double> ask_tell_us;
  // Connection-drop → first served response on the failover target: the
  // client-observed failover latency (includes the server-side promotion).
  std::vector<double> failover_us;
};

enum class State : std::uint8_t {
  kConnecting,
  kHello,
  kProbe,  // post-failover `status`: where did the replicated journal leave us?
  kCreate,
  kAsk,
  kTell,
  kSuspend,
  kDone,
  kFailed,
};

struct Client {
  int fd = -1;
  std::uint64_t tenant = 0;
  State state = State::kConnecting;
  std::size_t study = 0;
  std::size_t trial = 0;
  long trial_id = -1;
  std::size_t endpoint = 0;   // 0 = --tcp target, 1 = --failover target
  std::size_t failovers = 0;  // re-routes this client has performed
  bool failover_pending = false;
  Clock::time_point failover_start;
  Clock::time_point ask_start;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
};

void raise_fd_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return;
  const rlim_t want = 65536;
  const rlim_t target = lim.rlim_max == RLIM_INFINITY
                            ? want
                            : (lim.rlim_max < want ? lim.rlim_max : want);
  if (lim.rlim_cur >= target) return;
  lim.rlim_cur = target;
  ::setrlimit(RLIMIT_NOFILE, &lim);  // best effort
}

class LoadGen {
 public:
  LoadGen(const Options& opts) : opts_(opts) {}

  int run() {
    if (!loop_.ok()) {
      std::cerr << "error: epoll unavailable\n";
      return 1;
    }
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opts_.timeout_s));
    clients_.resize(opts_.tenants);
    for (std::size_t i = 0; i < opts_.tenants; ++i) {
      clients_[i] = std::make_unique<Client>();
      clients_[i]->tenant = i + 1;
      if (!start_connect(*clients_[i])) fail(*clients_[i], "connect");
    }
    while (live_ > 0 && Clock::now() < deadline) {
      loop_.run_once(50);
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const bool timed_out = live_ > 0;
    if (timed_out) {
      std::cerr << "error: " << live_ << " tenants still pending at the "
                << opts_.timeout_s << "s deadline\n";
      for (auto& c : clients_) {
        if (c->state != State::kDone && c->state != State::kFailed) {
          close_client(*c, /*dropped=*/true);
        }
      }
    }
    emit_json(elapsed);
    const std::size_t want = opts_.tenants * opts_.studies;
    const bool ok = !timed_out && stats_.completed_studies == want &&
                    stats_.dropped_connections == 0 &&
                    stats_.failed_requests == 0;
    if (!ok) {
      std::cerr << "loadgen: completed " << stats_.completed_studies << "/"
                << want << " studies, " << stats_.dropped_connections
                << " dropped connections, " << stats_.failed_requests
                << " failed requests\n";
    }
    return ok ? 0 : 1;
  }

 private:
  std::string study_name(const Client& c) const {
    return opts_.prefix + std::to_string(c.tenant) + "_s" +
           std::to_string(c.study);
  }

  // Deterministic objective in (0, 1): the run is replayable and the
  // daemon-side journals are identical across runs. Keyed on the
  // SERVER-assigned trial id, not the client's local trial counter — after
  // a failover the client's counter and the journal can disagree by one
  // (an ack lost in the crash), and the trace stays bitwise identical only
  // if trial N is always told the same objective.
  double objective(const Client& c) const {
    const double x =
        0.1 + 0.7919 * static_cast<double>(
                           c.tenant * 10007 + c.study * 101 +
                           static_cast<std::size_t>(
                               c.trial_id < 0 ? 0 : c.trial_id));
    return std::fmod(x, 1.0);
  }

  bool start_connect(Client& c) {
    int fd = -1;
    if (!opts_.unix_path.empty()) {
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) return false;
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (opts_.unix_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return false;
      }
      std::strncpy(addr.sun_path, opts_.unix_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
              0 &&
          errno != EINPROGRESS && errno != EAGAIN) {
        ::close(fd);
        return false;
      }
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) return false;
      const std::string& host =
          c.endpoint == 0 ? opts_.tcp_host : opts_.failover_host;
      const std::uint16_t port =
          c.endpoint == 0 ? opts_.tcp_port : opts_.failover_port;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
              0 &&
          errno != EINPROGRESS) {
        ::close(fd);
        return false;
      }
    }
    c.fd = fd;
    c.state = State::kConnecting;
    ++live_;
    Client* cp = &c;
    if (!loop_.add(fd, EPOLLOUT,
                   [this, cp](std::uint32_t revents) { on_event(*cp, revents); })) {
      --live_;
      ::close(fd);
      c.fd = -1;
      return false;
    }
    return true;
  }

  void on_event(Client& c, std::uint32_t revents) {
    if (c.state == State::kConnecting) {
      if ((revents & (EPOLLERR | EPOLLHUP)) != 0) {
        fail(c, "connect");
        return;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        fail(c, "connect");
        return;
      }
      loop_.modify(c.fd, EPOLLIN);
      if (!opts_.token.empty()) {
        c.state = State::kHello;
        // The token is the payload; the tenant rides in the frame header.
        send_request(c, "hello", opts_.token);
      } else if (c.failover_pending) {
        begin_probe(c);
      } else {
        begin_create(c);
      }
      return;
    }
    if ((revents & (EPOLLERR | EPOLLHUP)) != 0 &&
        (revents & EPOLLIN) == 0) {
      dropped(c);
      return;
    }
    if ((revents & EPOLLOUT) != 0 && !flush(c)) return;
    if ((revents & EPOLLIN) == 0) return;
    char buf[8192];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        // EOF before this tenant finished = the daemon dropped us.
        dropped(c);
        return;
      }
      c.in.append(buf, static_cast<std::size_t>(n));
    }
    if (!drain_responses(c)) return;
  }

  // Parses every complete response in c.in; false if the client was closed.
  bool drain_responses(Client& c) {
    for (;;) {
      const net::DecodeResult r = net::decode_frame(c.in);
      if (r.status == net::DecodeStatus::kNeedMore) return true;
      if (r.status == net::DecodeStatus::kBad) {
        fail(c, "bad frame from daemon");
        return false;
      }
      c.in.erase(0, r.consumed);
      const char* prefix = r.frame.opcode == net::Opcode::kOk ? "ok" : "err";
      const std::string response =
          r.frame.payload.empty() ? std::string(prefix)
                                  : std::string(prefix) + " " + r.frame.payload;
      ++stats_.frames_received;
      if (!on_response(c, response)) return false;
    }
  }

  // Advances the per-tenant state machine by one response; false if the
  // client was closed (done or failed).
  bool on_response(Client& c, const std::string& response) {
    const bool ok = response.rfind("ok", 0) == 0;
    switch (c.state) {
      case State::kHello:
        if (!ok) {
          fail(c, "hello rejected: " + response);
          return false;
        }
        if (c.failover_pending) {
          begin_probe(c);
        } else {
          begin_create(c);
        }
        return true;
      case State::kProbe: {
        // First answer after a failover reconnect: the drop→served latency
        // sample, whatever the study's state turned out to be.
        stats_.failover_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      c.failover_start)
                .count());
        c.failover_pending = false;
        if (!ok) {
          // status serves a study from its session, replica or journal,
          // so an err means the failover target holds none. Replication
          // is asynchronous: a create acked by the primary in its last
          // instants may never have reached the follower. The study's
          // history died with the primary — recreate it from scratch.
          if (response.find("no active study") != std::string::npos) {
            begin_create(c);
            return true;
          }
          fail(c, "failover probe: " + response);
          return false;
        }
        if (response.find("state=finished") != std::string::npos) {
          begin_suspend(c);
        } else {
          // Resume the trial loop; a study that is actually done answers
          // the next ask with `err ... finished`, which begin_suspend
          // handling already covers.
          begin_ask(c);
        }
        return true;
      }
      case State::kCreate:
        if (!ok) {
          fail(c, "create-study: " + response);
          return false;
        }
        begin_ask(c);
        return true;
      case State::kAsk: {
        if (!ok) {
          // The study may finish early (e.g. trials > max-trials).
          if (response.find("finished") != std::string::npos) {
            begin_suspend(c);
            return true;
          }
          fail(c, "ask: " + response);
          return false;
        }
        const std::size_t id_at = response.find("id=");
        if (id_at == std::string::npos) {
          fail(c, "ask response without id: " + response);
          return false;
        }
        c.trial_id = std::stol(response.substr(id_at + 3));
        c.state = State::kTell;
        char obj[48];
        std::snprintf(obj, sizeof(obj), "%.17g", objective(c));
        send_request(c, "tell",
                     study_name(c) + " " + std::to_string(c.trial_id) + " " +
                         obj);
        return true;
      }
      case State::kTell: {
        if (!ok) {
          fail(c, "tell: " + response);
          return false;
        }
        stats_.ask_tell_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() -
                                                      c.ask_start)
                .count());
        ++c.trial;
        if (c.trial < opts_.trials) {
          begin_ask(c);
        } else {
          begin_suspend(c);
        }
        return true;
      }
      case State::kSuspend:
        if (!ok) {
          fail(c, "suspend: " + response);
          return false;
        }
        ++stats_.completed_studies;
        ++c.study;
        if (c.study < opts_.studies) {
          begin_create(c);
          return true;
        }
        c.state = State::kDone;
        close_client(c, /*dropped=*/false);
        return false;
      default:
        fail(c, "response in unexpected state: " + response);
        return false;
    }
  }

  void begin_create(Client& c) {
    c.state = State::kCreate;
    c.trial = 0;
    send_request(c, "create-study",
                 study_name(c) + " external seed=" +
                     std::to_string(c.tenant * 1000 + c.study) +
                     " max-trials=" + std::to_string(opts_.trials));
  }

  void begin_ask(Client& c) {
    c.state = State::kAsk;
    c.ask_start = Clock::now();
    send_request(c, "ask", study_name(c));
  }

  void begin_probe(Client& c) {
    c.state = State::kProbe;
    send_request(c, "status", study_name(c));
  }

  void begin_suspend(Client& c) {
    c.state = State::kSuspend;
    send_request(c, "suspend", study_name(c));
  }

  void send_request(Client& c, const std::string& verb,
                    const std::string& args) {
    ++stats_.frames_sent;
    net::Frame f;
    f.opcode = *net::opcode_for_verb(verb);
    f.tenant = c.tenant;
    f.payload = args;
    c.out += net::encode_frame(f);
    flush(c);
  }

  // Writes pending output; false if the client was closed. Requests are
  // strictly sequential per tenant, so the queue stays tiny — EPOLLOUT is
  // registered only while a partial write is pending.
  bool flush(Client& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        loop_.modify(c.fd, EPOLLIN | EPOLLOUT);
        return true;
      }
      if (n <= 0) {
        dropped(c);
        return false;
      }
      c.out_off += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_off = 0;
    loop_.modify(c.fd, EPOLLIN);
    return true;
  }

  void fail(Client& c, const std::string& why) {
    ++stats_.failed_requests;
    if (failures_logged_ < 10) {
      std::cerr << "tenant " << c.tenant << " failed: " << why << "\n";
      ++failures_logged_;
    }
    c.state = State::kFailed;
    close_client(c, /*dropped=*/false);
  }

  void dropped(Client& c) {
    // With --failover, a dropped connection re-routes instead of failing
    // the run: reconnect to the other endpoint and probe the study there.
    // The cap stops a flapping pair of daemons from ping-ponging forever.
    if (opts_.failover_port != 0 && c.failovers < 4 &&
        c.state != State::kDone && c.state != State::kFailed) {
      ++c.failovers;
      ++stats_.failovers;
      c.failover_start = Clock::now();
      c.failover_pending = true;
      loop_.remove(c.fd);
      ::close(c.fd);
      c.fd = -1;
      if (live_ > 0) --live_;  // start_connect re-counts this client
      c.in.clear();
      c.out.clear();
      c.out_off = 0;
      c.endpoint ^= 1;
      if (!start_connect(c)) {
        ++stats_.dropped_connections;
        c.state = State::kFailed;
      }
      return;
    }
    ++stats_.dropped_connections;
    c.state = State::kFailed;
    close_client(c, /*dropped=*/false);  // already counted as a drop
  }

  void close_client(Client& c, bool dropped_at_deadline) {
    if (c.fd < 0) return;
    if (dropped_at_deadline) ++stats_.dropped_connections;
    loop_.remove(c.fd);
    ::close(c.fd);
    c.fd = -1;
    if (live_ > 0) --live_;
  }

  static double percentile(std::vector<double>& v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  }

  void emit_json(double elapsed_s) {
    const double p50 = percentile(stats_.ask_tell_us, 0.50);
    const double p99 = percentile(stats_.ask_tell_us, 0.99);
    const double fps =
        elapsed_s > 0.0
            ? static_cast<double>(stats_.frames_sent +
                                  stats_.frames_received) /
                  elapsed_s
            : 0.0;
    std::ostringstream js;
    js << "{\n"
       << "  \"transport\": \""
       << (opts_.unix_path.empty() ? "tcp" : "unix") << "\",\n"
       << "  \"tenants\": " << opts_.tenants << ",\n"
       << "  \"studies_per_tenant\": " << opts_.studies << ",\n"
       << "  \"trials_per_study\": " << opts_.trials << ",\n"
       << "  \"completed_studies\": " << stats_.completed_studies << ",\n"
       << "  \"failed_requests\": " << stats_.failed_requests << ",\n"
       << "  \"dropped_connections\": " << stats_.dropped_connections
       << ",\n"
       << "  \"failovers\": " << stats_.failovers << ",\n"
       << "  \"failover_samples\": " << stats_.failover_us.size() << ",\n"
       << "  \"failover_p50_us\": " << percentile(stats_.failover_us, 0.50)
       << ",\n"
       << "  \"failover_p99_us\": " << percentile(stats_.failover_us, 0.99)
       << ",\n"
       << "  \"frames_sent\": " << stats_.frames_sent << ",\n"
       << "  \"frames_received\": " << stats_.frames_received << ",\n"
       << "  \"elapsed_seconds\": " << elapsed_s << ",\n"
       << "  \"frames_per_sec\": " << fps << ",\n"
       << "  \"ask_tell_samples\": " << stats_.ask_tell_us.size() << ",\n"
       << "  \"ask_tell_p50_us\": " << p50 << ",\n"
       << "  \"ask_tell_p99_us\": " << p99 << "\n"
       << "}\n";
    if (opts_.json_path.empty()) {
      std::cout << js.str();
    } else {
      std::ofstream out(opts_.json_path, std::ios::trunc);
      out << js.str();
      if (!out) {
        std::cerr << "error: cannot write " << opts_.json_path << "\n";
      }
    }
  }

  Options opts_;
  net::EventLoop loop_;
  std::vector<std::unique_ptr<Client>> clients_;
  Stats stats_;
  std::size_t live_ = 0;
  std::size_t failures_logged_ = 0;
};

int usage(int rc) {
  std::cerr << "usage: fedtune_loadgen (--tcp HOST:PORT | --socket PATH)\n"
               "                       [--failover HOST:PORT]\n"
               "                       [--tenants N] [--studies M] "
               "[--trials T]\n"
               "                       [--token TOK]\n"
               "                       [--prefix P] [--timeout SEC] "
               "[--json PATH]\n";
  return rc;
}

// "HOST:PORT" with a strictly numeric non-zero port.
bool parse_hostport(const std::string& spec, std::string* host,
                    std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const std::string digits = spec.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) return false;
  unsigned long p = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return false;
    p = p * 10 + static_cast<unsigned long>(ch - '0');
  }
  if (p == 0 || p > 65535) return false;
  *host = spec.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--tcp") {
      const std::string spec = next();
      if (!parse_hostport(spec, &opts.tcp_host, &opts.tcp_port)) {
        std::cerr << "error: bad --tcp spec '" << spec
                  << "' (want HOST:PORT)\n";
        return 2;
      }
    } else if (a == "--failover") {
      const std::string spec = next();
      if (!parse_hostport(spec, &opts.failover_host,
                          &opts.failover_port)) {
        std::cerr << "error: bad --failover spec '" << spec
                  << "' (want HOST:PORT)\n";
        return 2;
      }
    } else if (a == "--socket") {
      opts.unix_path = next();
    } else if (a == "--tenants") {
      opts.tenants = tools::parse_size_flag(a, next());
    } else if (a == "--studies") {
      opts.studies = tools::parse_size_flag(a, next());
    } else if (a == "--trials") {
      opts.trials = tools::parse_size_flag(a, next());
    } else if (a == "--token") {
      opts.token = next();
    } else if (a == "--prefix") {
      opts.prefix = next();
    } else if (a == "--timeout") {
      opts.timeout_s = tools::parse_double_flag(a, next());
    } else if (a == "--json") {
      opts.json_path = next();
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else {
      std::cerr << "error: unknown argument '" << a << "'\n";
      return usage(2);
    }
  }
  if (opts.tcp_host.empty() == opts.unix_path.empty()) {
    std::cerr << "error: pass exactly one of --tcp / --socket\n";
    return 2;
  }
  if (opts.failover_port != 0 && opts.tcp_host.empty()) {
    std::cerr << "error: --failover needs --tcp\n";
    return 2;
  }
  if (opts.tenants == 0 || opts.studies == 0 || opts.trials == 0) {
    std::cerr << "error: --tenants/--studies/--trials must be positive\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  raise_fd_limit();
  LoadGen gen(opts);
  return gen.run();
}

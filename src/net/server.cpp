#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"

namespace fedtune::net {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Second word of a line ("create-study NAME ..." / "suspend NAME").
std::string second_word(const std::string& args) {
  const std::size_t sp = args.find(' ');
  return sp == std::string::npos ? args : args.substr(0, sp);
}

}  // namespace

Server::Server(EventLoop& loop, ServerOptions opts, Handler handler)
    : loop_(loop),
      opts_(std::move(opts)),
      handler_(std::move(handler)),
      quotas_(opts_.quota) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  conns_tcp_ =
      &reg.counter("fedtune_net_connections_total", {{"transport", "tcp"}});
  conns_unix_ =
      &reg.counter("fedtune_net_connections_total", {{"transport", "unix"}});
  frames_in_ = &reg.counter("fedtune_net_frames_total", {{"dir", "in"}});
  frames_out_ = &reg.counter("fedtune_net_frames_total", {{"dir", "out"}});
  bytes_in_ = &reg.counter("fedtune_net_bytes_total", {{"dir", "in"}});
  bytes_out_ = &reg.counter("fedtune_net_bytes_total", {{"dir", "out"}});
  protocol_errors_ = &reg.counter("fedtune_net_protocol_errors_total");
  auth_failures_ = &reg.counter("fedtune_net_auth_failures_total");
  quota_rate_rejections_ =
      &reg.counter("fedtune_net_quota_rejections_total", {{"kind", "rate"}});
  quota_study_rejections_ = &reg.counter("fedtune_net_quota_rejections_total",
                                         {{"kind", "studies"}});
  open_conns_ = &reg.gauge("fedtune_net_open_connections");
  request_seconds_ = &reg.histogram("fedtune_net_request_seconds");
  for (const char* reason :
       {"eof", "error", "backpressure", "protocol", "auth", "shutdown"}) {
    disconnects_[reason] =
        &reg.counter("fedtune_net_disconnects_total", {{"reason", reason}});
  }
}

Server::~Server() { shutdown(0); }

double Server::now_seconds() const {
  return opts_.now_s ? opts_.now_s() : steady_seconds();
}

Server::Conn* Server::find(int fd) {
  const auto it = conns_.find(fd);
  return it == conns_.end() ? nullptr : it->second.get();
}

bool Server::listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return false;
  }
  ::unlink(path.c_str());
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, opts_.listen_backlog) < 0) {
    ::close(fd);
    return false;
  }
  if (!loop_.add(fd, EPOLLIN, [this, fd](std::uint32_t) {
        on_accept(fd, /*via_unix=*/true);
      })) {
    ::close(fd);
    return false;
  }
  listeners_[fd] = true;
  unix_path_ = path;
  return true;
}

bool Server::listen_tcp(const std::string& host, std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string bind_host = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return false;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, opts_.listen_backlog) < 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    tcp_port_ = ntohs(bound.sin_port);
  }
  if (!loop_.add(fd, EPOLLIN, [this, fd](std::uint32_t) {
        on_accept(fd, /*via_unix=*/false);
      })) {
    ::close(fd);
    return false;
  }
  listeners_[fd] = false;
  return true;
}

void Server::on_accept(int listen_fd, bool via_unix) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;  // a signal mid-accept is a retry
      // EAGAIN: drained. EMFILE/ENFILE/ECONNABORTED: skip this round; the
      // listener stays registered and healthy connections keep arriving.
      break;
    }
    if (!via_unix) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (opts_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts_.sndbuf_bytes,
                   sizeof(opts_.sndbuf_bytes));
    }
    if (!loop_.add(fd, EPOLLIN, [this, fd](std::uint32_t revents) {
          on_conn_event(fd, revents);
        })) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->via_unix = via_unix;
    // Local Unix peers are pre-trusted (they can already touch the journal
    // directory); TCP peers must hello unless the table is open.
    conn->authed = via_unix || opts_.auth.open();
    conns_[fd] = std::move(conn);
    (via_unix ? conns_unix_ : conns_tcp_)->add();
    open_conns_->set(static_cast<double>(conns_.size()));
  }
}

void Server::close_conn(int fd, const char* reason) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  loop_.remove(fd);
  ::close(fd);
  conns_.erase(it);
  const auto metric = disconnects_.find(reason);
  if (metric != disconnects_.end()) metric->second->add();
  open_conns_->set(static_cast<double>(conns_.size()));
}

void Server::on_conn_event(int fd, std::uint32_t revents) {
  Conn* c = find(fd);
  if (c == nullptr) return;
  if ((revents & (EPOLLHUP | EPOLLERR)) != 0 &&
      (revents & EPOLLIN) == 0) {
    close_conn(fd, (revents & EPOLLERR) != 0 ? "error" : "eof");
    return;
  }
  if ((revents & EPOLLOUT) != 0) {
    if (!flush(fd)) return;
    if ((c = find(fd)) == nullptr) return;
  }
  if ((revents & (EPOLLIN | EPOLLHUP)) == 0) return;

  bool eof = false;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_->add(static_cast<std::uint64_t>(n));
      c->in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(fd, "error");
    return;
  }
  // Parse before honoring EOF: a client that pipelines requests and
  // half-closes still gets them executed (shutdown-then-close works).
  process_input(fd);
  if (eof && find(fd) != nullptr) close_conn(fd, "eof");
}

void Server::process_input(int fd) {
  Conn* c;
  while ((c = find(fd)) != nullptr && !c->close_after_flush) {
    const DecodeResult res = decode_frame(c->in, opts_.max_frame_payload);
    if (res.status == DecodeStatus::kNeedMore) return;
    if (res.status == DecodeStatus::kBad) {
      protocol_error(fd, res.error);
      return;
    }
    c->in.erase(0, res.consumed);
    frames_in_->add();
    if (res.frame.opcode == Opcode::kHello) {
      handle_hello(fd, res.frame.tenant, res.frame.payload);
      continue;
    }
    // With no auth table configured, trust the header's tenant id so
    // per-tenant quotas stay meaningful without a hello handshake.
    if (opts_.auth.open()) c->tenant = res.frame.tenant;
    const char* verb = verb_for_opcode(res.frame.opcode);
    if (verb == nullptr) {
      protocol_error(
          fd, "bad opcode " +
                  std::to_string(static_cast<int>(res.frame.opcode)));
      return;
    }
    dispatch(fd, verb, res.frame.payload);
  }
}

void Server::protocol_error(int fd, const std::string& message) {
  protocol_errors_->add();
  Conn* c = find(fd);
  if (c == nullptr) return;
  c->close_after_flush = true;
  c->close_reason = "protocol";
  queue_response(fd, "err protocol: " + message);
}

void Server::handle_hello(int fd, std::uint64_t tenant,
                          const std::string& token) {
  Conn* c = find(fd);
  if (c == nullptr) return;
  if (!opts_.auth.check(tenant, token)) {
    auth_failures_->add();
    c->close_after_flush = true;
    c->close_reason = "auth";
    queue_response(fd, "err auth failed for tenant " + std::to_string(tenant));
    return;
  }
  c->authed = true;
  c->tenant = tenant;
  queue_response(fd, "ok hello tenant=" + std::to_string(tenant));
}

void Server::dispatch(int fd, const std::string& verb,
                      const std::string& args) {
  Conn* c = find(fd);
  if (c == nullptr) return;
  if (!c->authed) {
    auth_failures_->add();
    c->close_after_flush = true;
    c->close_reason = "auth";
    queue_response(fd, "err auth required (send hello first)");
    return;
  }
  const std::uint64_t tenant = c->tenant;
  // Peer replication traffic (repl-*) is inter-node, not tenant-billable:
  // it still passes the auth gate above, but throttling it under a tenant's
  // rate bucket would let one tenant's quota starve another study's
  // durability copy.
  const bool is_repl = verb.rfind("repl-", 0) == 0;
  if (!is_repl && !quotas_.admit_frame(tenant, now_seconds())) {
    quota_rate_rejections_->add();
    queue_response(fd, "err quota exceeded (rate)");
    return;
  }
  const bool is_create = verb == "create-study";
  if (is_create && !quotas_.admit_study(tenant)) {
    quota_study_rejections_->add();
    queue_response(
        fd, "err quota exceeded (max " +
                std::to_string(quotas_.options().max_studies_per_tenant) +
                " concurrent studies per tenant)");
    return;
  }
  const std::string line = args.empty() ? verb : verb + " " + args;
  bool keep_running = true;
  const double t0 = steady_seconds();
  const std::string response = handler_(line, tenant, &keep_running);
  request_seconds_->observe(steady_seconds() - t0);
  const bool ok = response.rfind("ok", 0) == 0;
  if (ok && is_create) quotas_.record_study(tenant, second_word(args));
  if (ok && verb == "suspend") quotas_.release_study(tenant, second_word(args));
  queue_response(fd, response);
  if (!keep_running) {
    stopping_ = true;
    if ((c = find(fd)) != nullptr) {
      c->close_after_flush = true;
      c->close_reason = "shutdown";
    }
  }
}

void Server::queue_response(int fd, const std::string& response) {
  Conn* c = find(fd);
  if (c == nullptr) return;
  Frame frame;
  frame.tenant = c->tenant;
  if (response.rfind("ok", 0) == 0) {
    frame.opcode = Opcode::kOk;
    frame.payload = response.size() > 3 ? response.substr(3) : "";
  } else {
    frame.opcode = Opcode::kErr;
    frame.payload = response.size() > 4 ? response.substr(4) : response;
  }
  frames_out_->add();
  c->out.append(encode_frame(frame));
  flush(fd);
}

bool Server::flush(int fd) {
  Conn* c = find(fd);
  if (c == nullptr) return false;
  while (c->out_off < c->out.size()) {
    const ssize_t w =
        ::send(fd, c->out.data() + c->out_off, c->out.size() - c->out_off,
               MSG_NOSIGNAL);
    if (w > 0) {
      bytes_out_->add(static_cast<std::uint64_t>(w));
      c->out_off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(fd, "error");
    return false;
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
    if (c->close_after_flush) {
      close_conn(fd, c->close_reason);
      return false;
    }
    loop_.modify(fd, EPOLLIN);
    return true;
  }
  // Socket full: compact the sent prefix, enforce the backpressure cap on
  // what remains, and wait for EPOLLOUT.
  if (c->out_off > 0) {
    c->out.erase(0, c->out_off);
    c->out_off = 0;
  }
  if (c->out.size() > opts_.max_write_queue_bytes) {
    close_conn(fd, "backpressure");
    return false;
  }
  loop_.modify(fd, EPOLLIN | EPOLLOUT);
  return true;
}

void Server::shutdown(int drain_timeout_ms) {
  // Bounded best-effort drain of queued responses (e.g. `ok bye`).
  const double deadline = steady_seconds() + drain_timeout_ms / 1000.0;
  for (;;) {
    bool pending = false;
    for (const auto& [fd, conn] : conns_) {
      if (conn->out_off < conn->out.size()) pending = true;
    }
    if (!pending || steady_seconds() >= deadline) break;
    if (loop_.run_once(10) < 0) break;
  }
  for (const auto& [fd, via_unix] : listeners_) {
    loop_.remove(fd);
    ::close(fd);
  }
  listeners_.clear();
  while (!conns_.empty()) close_conn(conns_.begin()->first, "shutdown");
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

}  // namespace fedtune::net
